"""Report derivation: quantiles, window attribution, artifact files."""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from miserysim.experiment import ExperimentConfig, run_experiment
from miserysim.reporting import (
    CSV_COLUMNS,
    REPORTED_FIELDS,
    TransformationWindow,
    _quantile,
    emit_report,
    metrics_from_records,
    field_problem,
    window_for,
    windows_from_records,
)


def done(i, t, outcome, latency=0.05, corr="c" * 32, status=200):
    return {"t": t + latency, "kind": "request.done", "i": i, "corr": corr,
            "issued_at": t, "latency": latency, "outcome": outcome,
            "status": status, "detail": "ok" if outcome == "processed" else "x",
            "response": ""}


def window_record(cycle, layer, t0, t1):
    return {"t": t1, "kind": "movement.window", "instance": None,
            "detail": {"cycle": cycle, "layer": layer, "t0": t0, "t1": t1,
                       "nodes": [], "new_ids": []}}


# --- quantiles -----------------------------------------------------------------

def test_quantile_known_points():
    ordered = [float(x) for x in range(1, 101)]
    assert _quantile(ordered, 0.50) == 50.0
    assert _quantile(ordered, 0.95) == 95.0
    assert _quantile(ordered, 0.99) == 99.0
    assert _quantile(ordered, 0.01) == 1.0
    assert _quantile([7.0], 0.5) == 7.0
    assert _quantile([], 0.5) is None


def test_quantile_matches_counting_oracle():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(1, 40)
        ordered = sorted(rng.sample(range(10000), n))
        q = rng.choice([0.5, 0.9, 0.95, 0.99])
        got = _quantile([float(x) for x in ordered], q)
        # smallest value with at least ceil(q*n) points at or below it
        need = math.ceil(q * n)
        oracle = min(x for x in ordered
                     if sum(1 for y in ordered if y <= x) >= need)
        assert got == float(oracle)


# --- window attribution -----------------------------------------------------------

def test_windows_parse_and_cover_inclusively():
    records = [window_record(1, 2, 10.0, 13.0), window_record(2, 3, 40.0, 42.0)]
    windows = windows_from_records(records)
    assert [(w.cycle, w.layer) for w in windows] == [(1, 2), (2, 3)]
    assert window_for(windows, 10.0) is windows[0]
    assert window_for(windows, 13.0) is windows[0]
    assert window_for(windows, 41.0) is windows[1]
    assert window_for(windows, 20.0) is None
    assert TransformationWindow(1, 2, 10.0, 13.0).covers(11.5)


def test_metrics_attribute_failures_to_windows():
    records = [
        window_record(1, 2, 10.0, 13.0),
        window_record(2, 3, 40.0, 42.0),
        done(0, 5.0, "processed", latency=0.1),
        done(1, 11.0, "failed"),
        done(2, 12.0, "failed"),
        done(3, 41.0, "failed"),
        done(4, 70.0, "failed"),
        done(5, 71.0, "processed", latency=0.3),
    ]
    report = metrics_from_records(records)
    assert (report.issued, report.processed, report.failed) == (6, 2, 4)
    assert report.transformations == 2
    assert report.failures_by_layer == {"2": 2, "3": 1, "none": 1}
    assert report.failures_by_cycle == [
        {"cycle": 1, "layer": 2, "failures": 2},
        {"cycle": 2, "layer": 3, "failures": 1},
    ]
    assert report.latency_p50_ms == 100.0
    assert report.latency_p95_ms == 300.0


def test_metrics_count_pool_misses_and_round_latency():
    records = [
        {"t": 1.0, "kind": "pool.allocate", "instance": "pool-m-1",
         "detail": {"image": "multicaster", "hit": True}},
        {"t": 2.0, "kind": "pool.allocate", "instance": None,
         "detail": {"image": "multicaster", "hit": False}},
        done(0, 3.0, "processed", latency=0.0123456),
    ]
    report = metrics_from_records(records)
    assert report.pool_misses == 1
    assert report.latency_p50_ms == 12.346


def test_metrics_empty_records():
    report = metrics_from_records([])
    assert report.issued == 0
    assert report.latency_p50_ms is None
    assert report.failures_by_layer == {}
    assert report.failures_by_cycle == []


# --- artifacts ----------------------------------------------------------------------

def test_emit_report_writes_rows_and_summary(tmp_path):
    records = [
        {"t": 0.0, "kind": "experiment.config", "config": {"d": 3}},
        window_record(1, 2, 10.0, 13.0),
        done(0, 5.0, "processed"),
        done(1, 11.0, "failed", status=0),
    ]
    csv_path, json_path = emit_report(records, str(tmp_path / "out"))
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("0,")
    assert lines[1].endswith(",processed,0.05,200,none")
    assert lines[2].endswith(",failed,0.05,0,2")
    summary = json.loads(Path(json_path).read_text(encoding="utf-8"))
    assert summary["config"] == {"d": 3}
    assert summary["metrics"] == asdict(metrics_from_records(records))


def test_emit_report_empty_records_header_only(tmp_path):
    csv_path, json_path = emit_report([], str(tmp_path))
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    assert lines == [",".join(CSV_COLUMNS)]
    summary = json.loads(Path(json_path).read_text(encoding="utf-8"))
    assert summary["config"] is None
    assert summary["metrics"]["issued"] == 0


def test_emit_report_is_byte_deterministic(tmp_path):
    records = [
        {"t": 0.0, "kind": "experiment.config", "config": {"d": 0}},
        done(0, 1.0, "processed", latency=1 / 3),
        done(1, 2.5, "failed"),
    ]
    a = emit_report(records, str(tmp_path / "a"))
    b = emit_report(records, str(tmp_path / "b"))
    for path_a, path_b in zip(a, b):
        assert Path(path_a).read_bytes() == Path(path_b).read_bytes()


def test_emit_report_from_live_run(tmp_path):
    cfg = ExperimentConfig(d=0, k=0, n_requests=8, j=60.0, rng_seed=2)
    result = run_experiment(cfg)
    csv_path, json_path = emit_report(result.records, str(tmp_path))
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + result.report.issued
    summary = json.loads(Path(json_path).read_text(encoding="utf-8"))
    assert ExperimentConfig.from_json_dict(summary["config"]) == cfg
    assert summary["metrics"]["processed"] == 8


def test_missing_field_names_each_field_the_report_reads(tmp_path):
    records = [{"t": 0.0, "kind": "experiment.config", "config": {}},
               window_record(1, 2, 0.0, 1.0),
               {"t": 0.5, "kind": "pool.allocate", "detail": {"hit": False}},
               done(0, 0.5, "failed"),
               {"t": 2.0, "kind": "poll.cycle"}]
    assert [field_problem(rec) for rec in records] == [None] * 5
    emit_report(records, str(tmp_path))
    for rec in records[:4]:
        for path in REPORTED_FIELDS[rec["kind"]]:
            broken = copy.deepcopy(rec)
            *outer, last = path.split(".")
            holder = broken
            for key in outer:
                holder = holder[key]
            del holder[last]
            assert field_problem(broken) == f"has no {path}"
            # the table lists only fields the report really reads
            with pytest.raises(KeyError):
                emit_report([broken if r is rec else r for r in records],
                            str(tmp_path))


def test_field_problem_names_each_wrongly_typed_field():
    records = [{"t": 0.0, "kind": "experiment.config", "config": {}},
               window_record(1, 2, 0.0, 1.0),
               {"t": 0.5, "kind": "pool.allocate", "detail": {"hit": False}},
               done(0, 0.5, "failed")]
    for rec in records:
        for path in REPORTED_FIELDS[rec["kind"]]:
            *outer, last = path.split(".")
            for wrong in ("0.5", True, None, [1]):
                broken = copy.deepcopy(rec)
                holder = broken
                for key in outer:
                    holder = holder[key]
                if type(holder[last]) is type(wrong):
                    continue
                holder[last] = wrong
                assert field_problem(broken).startswith(
                    f"has {path} {json.dumps(wrong)}, not "), (path, wrong)
    # an integer is a number, but a boolean is not an integer
    assert field_problem(done(0, 1, "processed", latency=1)) is None
    assert field_problem(window_record(True, 2, 0.0, 1.0)) == (
        "has detail.cycle true, not an integer")
