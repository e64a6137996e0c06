"""Event log: record shape, serialization stability, round trips."""

from __future__ import annotations

import json

from miserysim.eventlog import EventLog, load_records, serialize_record
from miserysim.experiment import ExperimentConfig, run_experiment


def test_emit_returns_and_stores_record():
    log = EventLog()
    rec = log.emit(1.5, "thing.happened", instance="web", detail={"n": 1})
    assert rec == {"t": 1.5, "kind": "thing.happened", "instance": "web",
                   "detail": {"n": 1}}
    assert log.records == [rec]


def test_serialization_is_compact_and_key_sorted():
    rec = {"t": 0.0, "kind": "k", "b": 1, "a": 2}
    line = serialize_record(rec)
    assert line == '{"a":2,"b":1,"kind":"k","t":0.0}'
    assert json.loads(line) == rec


def test_dump_and_load_round_trip(tmp_path):
    log = EventLog()
    log.emit(0.0, "one", x=1)
    log.emit(2.0, "two", y=[1, 2, 3])
    path = tmp_path / "events.jsonl"
    log.dump(str(path))
    assert load_records(str(path)) == log.records


def test_of_kind_filters():
    log = EventLog()
    log.emit(0.0, "a")
    log.emit(1.0, "b")
    log.emit(2.0, "a")
    assert [r["t"] for r in log.of_kind("a")] == [0.0, 2.0]



def test_serialization_writes_what_json_dumps_writes_for_a_whole_run():
    # a churn run emits every kind of record: movement, rules, addresses,
    # polls, requests and the summary
    result = run_experiment(ExperimentConfig(d=3, k=2, j=60.0, r=5.0, s=16,
                                             rng_seed=2))
    records = result.log.records
    assert len({record["kind"] for record in records}) > 10
    for record in records:
        assert serialize_record(record) == json.dumps(
            record, sort_keys=True, separators=(",", ":"))
