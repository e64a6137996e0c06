"""Command-line interface: exit codes, artifact flows, flag mapping."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import miserysim
from miserysim.cli import main
from miserysim.movement import MovementManager
from miserysim.multicaster import MulticasterNode
from miserysim.topology import MiseryDigraph

# SHA-256 of the state.json `deploy --s 4` writes for the d=3 k=2 build
DEPLOY_STATE_SHA256 = (
    "52e57daa7dbe7322037a7b7eb30f001b45a90881de5230e08ef6962aa9f29fb7")


def test_build_writes_digraph_to_stdout(capsys):
    assert main(["build", "--d", "3", "--k", "2"]) == 0
    out = capsys.readouterr().out
    digraph = MiseryDigraph.from_json_dict(json.loads(out))
    assert [len(digraph.layer(i)) for i in (1, 2, 3)] == [1, 2, 4]
    # the whole document, derived keys included, is a pure function of (d, k)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "255bd75716989df5c2b77d4e6f6af001b843b377903476b59ded55d23ce75328")


def test_build_writes_digraph_file(tmp_path, capsys):
    out = tmp_path / "digraph.json"
    assert main(["build", "--d", "2", "--k", "3", "-o", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    digraph = MiseryDigraph.from_json_dict(json.loads(out.read_text()))
    assert digraph.spec.d == 2 and digraph.spec.k == 3


def test_build_rejects_flat_and_invalid_shapes(capsys):
    assert main(["build", "--d", "0", "--k", "0"]) == 2
    assert main(["build", "--d", "3", "--k", "0"]) == 2
    assert main(["build", "--d", "1", "--k", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_deploy_dumps_cloud_state(tmp_path, capsys):
    digraph_path = tmp_path / "digraph.json"
    state_path = tmp_path / "state.json"
    assert main(["build", "--d", "3", "--k", "2", "-o", str(digraph_path)]) == 0
    assert main(["deploy", "--digraph", str(digraph_path), "--s", "4",
                 "-o", str(state_path)]) == 0
    assert "deployed 8 nodes" in capsys.readouterr().out
    state = json.loads(state_path.read_text())
    assert state["t"] == 300.0
    ids = {inst["id"] for inst in state["cloud"]["instances"]}
    assert {"web", "app", "db"} <= ids
    running = [i for i in state["cloud"]["instances"] if i["state"] == "running"]
    assert len(running) == 8 + 4
    assert state["cloud"]["rules"]
    assert "web" in state["addresses"]
    # the whole dump is a pure function of the digraph, the seed and s
    assert hashlib.sha256(state_path.read_bytes()).hexdigest() == DEPLOY_STATE_SHA256


def test_deploy_reads_an_older_digraph_file_the_same(tmp_path, capsys):
    # an older build also wrote a designated leaf and its path; deploy
    # reads spec, layers and target only
    digraph_path = tmp_path / "digraph.json"
    state_path = tmp_path / "state.json"
    assert main(["build", "--d", "3", "--k", "2", "-o", str(digraph_path)]) == 0
    doc = json.loads(digraph_path.read_text())
    doc.update(enabled_leaf="app", enabled_path=["web", "L2.s0.g0", "app"])
    digraph_path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert main(["deploy", "--digraph", str(digraph_path), "--s", "4",
                 "-o", str(state_path)]) == 0
    assert "deployed 8 nodes" in capsys.readouterr().out
    assert hashlib.sha256(state_path.read_bytes()).hexdigest() == DEPLOY_STATE_SHA256


def test_deploy_rejects_a_negative_pool_size(tmp_path, capsys):
    digraph_path = tmp_path / "digraph.json"
    assert main(["build", "--d", "3", "--k", "2", "-o", str(digraph_path)]) == 0
    assert main(["deploy", "--digraph", str(digraph_path), "--s", "-1",
                 "-o", str(tmp_path / "state.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "state.json").exists()


def test_deploy_missing_digraph_file(tmp_path):
    assert main(["deploy", "--digraph", str(tmp_path / "nope.json")]) == 2


def test_deploy_malformed_digraph_file_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "digraph.json"
    assert main(["build", "--d", "3", "--k", "2", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    two_roots = dict(doc, layers=[doc["layers"][0] + ["web2"]] + doc["layers"][1:])
    for bad in ({k: v for k, v in doc.items() if k != "layers"}, [doc], two_roots,
                "{not json"):
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        assert main(["deploy", "--digraph", str(path)]) == 2
    assert "runtime failure" not in capsys.readouterr().err


def test_deploy_rejects_a_wrongly_typed_digraph_value(tmp_path, capsys):
    path = tmp_path / "digraph.json"
    assert main(["build", "--d", "3", "--k", "2", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["spec"]["d"] = 3.9   # not read as d=3
    path.write_text(json.dumps(doc))
    assert main(["deploy", "--digraph", str(path),
                 "-o", str(tmp_path / "state.json")]) == 2
    assert "spec d must be int" in capsys.readouterr().err
    assert not (tmp_path / "state.json").exists()


@pytest.mark.parametrize("where", ["node", "target"])
def test_deploy_rejects_a_digraph_naming_the_internet(tmp_path, capsys, where):
    # the firewall reads the id as the Internet: a decoy so named would
    # grant the Internet its children's port 80
    path = tmp_path / "digraph.json"
    assert main(["build", "--d", "3", "--k", "2", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    if where == "node":
        doc["layers"][1][1] = "public-internet"
    else:
        doc["target"] = "public-internet"
    path.write_text(json.dumps(doc))
    assert main(["deploy", "--digraph", str(path),
                 "-o", str(tmp_path / "state.json")]) == 2
    err = capsys.readouterr().err
    assert "reserved" in err and "runtime failure" not in err
    assert not (tmp_path / "state.json").exists()


def test_deploy_rejects_a_digraph_naming_a_pool_standby(tmp_path, capsys):
    # the pool would create a second instance of that id during the deploy
    path = tmp_path / "digraph.json"
    assert main(["build", "--d", "3", "--k", "2", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["layers"][1][1] == "L2.s1.g0"
    doc["layers"][1][1] = "pool-m-1"
    path.write_text(json.dumps(doc))
    assert main(["deploy", "--digraph", str(path),
                 "-o", str(tmp_path / "state.json")]) == 2
    err = capsys.readouterr().err
    assert "reserved" in err and "runtime failure" not in err
    assert not (tmp_path / "state.json").exists()


def test_run_writes_artifacts(tmp_path, capsys):
    outdir = tmp_path / "out"
    code = main(["run", "--d", "3", "--k", "2", "--n-requests", "10",
                 "--j", "60", "--seed", "3", "--outdir", str(outdir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "issued=10" in out
    assert (outdir / "events.jsonl").exists()
    rows = (outdir / "requests.csv").read_text().splitlines()
    assert len(rows) == 11
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["config"]["d"] == 3
    assert summary["config"]["rng_seed"] == 3
    assert summary["metrics"]["issued"] == 10


def test_run_prints_p50_none_when_no_request_was_processed(tmp_path, capsys):
    # u = 1 ms is shorter than any path through the digraph: every request fails
    outdir = tmp_path / "out"
    assert main(["run", "--d", "3", "--k", "2", "--j", "5", "--u", "0.001",
                 "--outdir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "processed=0" in out and out.rstrip().endswith(" p50=none")
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["metrics"]["latency_p50_ms"] is None


def test_run_maps_rate_to_interval(tmp_path):
    outdir = tmp_path / "out"
    assert main(["run", "--d", "0", "--k", "0", "--n-requests", "4",
                 "--rate", "2.0", "--outdir", str(outdir)]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["config"]["request_interval"] == 0.5


def test_run_rejects_bad_rate(tmp_path):
    assert main(["run", "--rate", "0", "--outdir", str(tmp_path)]) == 2


def test_a_crashing_movement_cycle_ends_the_run(tmp_path, capsys, monkeypatch):
    # a bug in a cycle must not silently stop all movement for the run
    def crash(self, cycle, op):
        raise RuntimeError("switch failed")

    monkeypatch.setattr(MovementManager, "_execute_switch", crash)
    assert main(["run", "--d", "3", "--k", "2", "--j", "60", "--r", "10",
                 "--outdir", str(tmp_path)]) == 3
    assert "runtime failure: RuntimeError: switch failed" in capsys.readouterr().err


def test_a_run_whose_sweep_finds_stale_tables_exits_three(tmp_path, capsys,
                                                       monkeypatch):
    # multicasters that drop their address pushes keep routing on the tables
    # the cycles replaced, and the end-of-run sweep reports each one
    monkeypatch.setattr(MulticasterNode, "apply_update", lambda self, record: None)
    assert main(["run", "--d", "3", "--k", "2", "--j", "30", "--r", "10",
                 "--outdir", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    problems = captured.err.splitlines()
    assert problems and all(line.startswith("consistency: ") for line in problems)
    assert any(": table " in line for line in problems)
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    summary = json.loads(lines[-1])
    assert summary["kind"] == "experiment.summary"
    assert summary["consistency"] == [line[len("consistency: "):]
                                      for line in problems]


def run_cli_process(args: list[str], timeout: float = 30) -> subprocess.CompletedProcess:
    """`python -m miserysim` in a child process, so that a run which never
    returns fails on its timeout instead of stalling the suite."""
    src = str(Path(miserysim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "miserysim", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("flag, value", [("--m", "nan"), ("--u", "inf"),
                                         ("--j", "nan"), ("--r", "nan"),
                                         ("--compress", "inf")])
def test_run_rejects_non_finite_durations(tmp_path, flag, value):
    proc = run_cli_process(["run", "--d", "3", "--k", "2", "--j", "5",
                            flag, value, "--outdir", str(tmp_path)])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "error:" in proc.stderr
    assert not (tmp_path / "events.jsonl").exists()


def test_python_m_miserysim_runs_the_cli():
    proc = run_cli_process(["build", "--d", "2", "--k", "2"])
    assert proc.returncode == 0, proc.stderr
    digraph = MiseryDigraph.from_json_dict(json.loads(proc.stdout))
    assert [len(digraph.layer(i)) for i in (1, 2)] == [1, 2]


def test_run_rejects_a_poll_interval_that_would_stall_the_clock(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"d": 2, "k": 2, "j": 10, "m": 1e-14,
                                    "latency": {"hop": [0.0, 0.0]}}))
    proc = run_cli_process(["run", "--config", str(cfg_path),
                            "--outdir", str(tmp_path)])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "error: poll interval m=1e-14" in proc.stderr
    assert not (tmp_path / "events.jsonl").exists()


@pytest.mark.parametrize("args", [
    ["run", "--j", "20", "--r", "1e-300", "--s", "2"],
    ["attack", "--d", "3", "--k", "2", "--r", "1e-300", "--seeds", "1"],
    ["attack", "--d", "3", "--k", "2", "--r", "0.5", "--hop", "1e20",
     "--seeds", "1"],
], ids=["run", "attack", "attack-huge-hop"])
def test_a_movement_period_that_stalls_the_clock_is_a_config_error(tmp_path,
                                                                    args):
    proc = run_cli_process(args + (["--outdir", str(tmp_path)]
                                   if args[0] == "run" else []))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == "" and "error: movement period r" in proc.stderr
    assert not (tmp_path / "events.jsonl").exists()


@pytest.mark.parametrize("args, bound", [
    (["run", "--j", "20", "--r", "1e-6", "--s", "2"], "movement cycles"),
    # the idle replay would run through a drain of u + 2 s
    (["run", "--d", "3", "--k", "2", "--j", "10", "--u", "1e7"], "poll cycles"),
    (["attack", "--d", "3", "--k", "2", "--r", "1e-6", "--hop", "1",
      "--seeds", "1"], "movement cycles per walk"),
    # a 2**100000 - 1 node shape: the replay took 13 s to build its widths
    (["attack", "--d", "100000", "--k", "2", "--r", "0.5", "--seeds", "1"],
     "instances"),
    # 10**7 cycles per walk is at the per-walk cap; the default 1000 seeds
    # would run for about 85 minutes
    (["attack", "--d", "5", "--k", "3", "--r", "5e-5"], "per replay"),
    # 2**28 - 1 instances: the build ran out of memory before the cap
    (["build", "--d", "28", "--k", "2"], "instances"),
    # a million standbys: the pool fill ran past an 8 s timeout
    (["run", "--s", "1000000", "--j", "10"], "plus s"),
    (["deploy", "--s", "1000000"], "plus s"),
], ids=["run-r", "run-u", "attack-r", "attack-d", "attack-seeds", "build-d",
        "run-s", "deploy-s"])
def test_a_config_whose_work_is_over_a_cap_is_a_config_error(tmp_path, args,
                                                              bound):
    # each command passes every other check and once ran past a timeout
    if args[0] == "run":
        args = args + ["--outdir", str(tmp_path)]
    elif args[0] == "deploy":
        digraph_path = tmp_path / "digraph.json"
        assert main(["build", "--d", "3", "--k", "2", "-o", str(digraph_path)]) == 0
        args = args + ["--digraph", str(digraph_path),
                       "-o", str(tmp_path / "state.json")]
    proc = run_cli_process(args, timeout=10)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == "" and bound in proc.stderr and "cap" in proc.stderr
    assert not (tmp_path / "events.jsonl").exists()
    assert not (tmp_path / "state.json").exists()


@pytest.mark.parametrize("config", [
    {"latency": {"hop": [0, 0]}},
    {"latency": {"hop": [0, 5]}},
    {"latency": {"hop": [5, 5]}},
    {"n_requests": 1},
    {"u": 1e-9},
    # the clock floor at t = provisioning + j + 2u + think + drain is 5.7e-14
    {"m": 1e-12},
    {"r": 1e-3, "s": 2, "j": 20},
    # every reset waits out on-demand provisioning, past the drain
    {"s": 0, "r": 1, "j": 60},
], ids=["hop-0-0", "hop-0-5", "hop-5-5", "one-request", "u-tiny", "m-floor",
        "r-tiny-s2", "s0-r1"])
def test_a_corner_config_finishes_or_is_a_config_error(tmp_path, config):
    cfg_path = tmp_path / "corner.json"
    cfg_path.write_text(json.dumps(config))
    proc = run_cli_process(["run", "--config", str(cfg_path),
                            "--outdir", str(tmp_path)], timeout=10)
    assert proc.returncode in (0, 2), proc.stdout + proc.stderr
    assert (tmp_path / "summary.json").exists() == (proc.returncode == 0)


# json reads NaN and Infinity, so a config file can carry them too, and a
# wrongly typed value must be a config error, not a crash inside the run
@pytest.mark.parametrize("extra", [
    ["--rate", "inf"], ["--rate", "nan"],
    '{"m": NaN}', '{"u": Infinity}', '{"latency": {"provisioning": NaN}}',
    '{"latency": {"hop": [0.001, Infinity]}}',
    '{"latency": {"hop": 5}}', '{"j": "600"}', '{"d": 3.5}'])
def test_run_rejects_non_finite_rate_and_config_values(tmp_path, extra):
    if isinstance(extra, str):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(extra)
        extra = ["--config", str(cfg_path)]
    proc = run_cli_process(["run", *extra, "--outdir", str(tmp_path)])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "error:" in proc.stderr
    assert not (tmp_path / "events.jsonl").exists()


def test_run_reads_config_file_with_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"d": 0, "k": 0, "n_requests": 5,
                                    "j": 30.0}))
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--seed", "9",
                 "--outdir", str(outdir)]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["config"]["d"] == 0
    assert summary["config"]["n_requests"] == 5
    assert summary["config"]["rng_seed"] == 9


def test_run_rejects_bad_config_files(tmp_path, capsys):
    bad_keys = tmp_path / "bad.json"
    bad_keys.write_text(json.dumps({"depth": 3}))
    assert main(["run", "--config", str(bad_keys),
                 "--outdir", str(tmp_path)]) == 2
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    assert main(["run", "--config", str(malformed),
                 "--outdir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_attack_reports_static_walk(capsys):
    assert main(["attack", "--d", "3", "--k", "2", "--seeds", "50",
                 "--hop", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"] == 50
    assert doc["censored"] == 0
    assert doc["median"] == 2.0
    assert doc["strategy"] == "depth-first"
    assert doc["r"] is None


def test_attack_treats_nonpositive_period_as_static(capsys):
    assert main(["attack", "--d", "3", "--k", "2", "--seeds", "10",
                 "--r", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r"] is None and doc["median"] == 2.0


@pytest.mark.parametrize("extra", [
    "--r=nan", "--r=inf", "--r=-inf", "--hop=nan", "--hop=inf", "--hop=-1",
    "--hop=0", "--seeds=-3", "--seeds=0"])
def test_attack_rejects_bad_input(capsys, extra):
    assert main(["attack", "--d", "3", "--k", "2", "--seeds", "5", extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_attack_prints_a_censored_median_as_null(capsys):
    # a cycle every 0.1 s resets the goal about 50 times per 10 s hop, so
    # every run reaches the horizon
    assert main(["attack", "--d", "3", "--k", "2", "--seeds", "5",
                 "--r", "0.1", "--hop", "10"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out, parse_constant=pytest.fail)
    assert doc["censored"] == doc["runs"] == 5 and doc["median"] is None


@pytest.mark.parametrize("movement", [[], ["--r", "0.5"]], ids=["static", "moving"])
def test_attack_rejects_a_hop_whose_horizon_overflows(capsys, movement):
    # the default horizon, 500 hops, is inf: a static replay read as all
    # censored, and a moving one blamed r
    assert main(["attack", "--d", "3", "--k", "2", "--hop", "1e308",
                 "--seeds", "3", *movement]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "horizon must be finite, got inf (hop_time 1e+308" in captured.err


def test_report_regenerates_identical_artifacts(tmp_path):
    run_dir = tmp_path / "run"
    rep_dir = tmp_path / "rep"
    assert main(["run", "--d", "3", "--k", "2", "--n-requests", "8",
                 "--j", "60", "--seed", "1", "--outdir", str(run_dir)]) == 0
    assert main(["report", "--events", str(run_dir / "events.jsonl"),
                 "--outdir", str(rep_dir)]) == 0
    for name in ("requests.csv", "summary.json"):
        assert (rep_dir / name).read_bytes() == (run_dir / name).read_bytes()


def test_report_missing_events_file(tmp_path):
    assert main(["report", "--events", str(tmp_path / "gone.jsonl"),
                 "--outdir", str(tmp_path)]) == 2


@pytest.mark.parametrize("unreadable", ["directory", "non-utf-8"])
@pytest.mark.parametrize("command, flag", [("run", "--config"),
                                           ("deploy", "--digraph"),
                                           ("report", "--events")])
def test_an_input_file_that_cannot_be_read_is_a_config_error(
        tmp_path, capsys, command, flag, unreadable):
    path = tmp_path / "input"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"d": "\xff"}\n')
    out = ["-o" if command == "deploy" else "--outdir", str(tmp_path / "out")]
    assert main([command, flag, str(path), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and str(path) in err, err
    assert not (tmp_path / "out").exists()


def test_report_rejects_a_line_that_is_not_json(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    events.write_text('{"t": 0.0, "kind": "experiment.config", "config": {}}\n'
                      '{"t": 1.0, "kind": "request.done"\n', encoding="utf-8")
    assert main(["report", "--events", str(events),
                 "--outdir", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert f"bad events file {events}, line 2:" in err
    assert "runtime failure" not in err


def test_report_rejects_a_line_that_is_json_but_not_an_object(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    events.write_text('{"t": 0.0, "kind": "experiment.config", "config": {}}\n'
                      '[1.0, "request.done"]\n', encoding="utf-8")
    assert main(["report", "--events", str(events),
                 "--outdir", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert f"bad events file {events}, line 2: not a JSON object" in err
    assert "runtime failure" not in err
    assert not (tmp_path / "rep").exists()


def test_report_rejects_a_record_without_a_reported_field(tmp_path, capsys):
    done = {"t": 1.0, "kind": "request.done", "i": 0, "corr": "", "latency": 0.1,
            "outcome": "processed", "status": 200}
    events = tmp_path / "events.jsonl"
    events.write_text('{"t": 0.0, "kind": "experiment.config", "config": {}}\n'
                      "\n" + json.dumps(done) + "\n", encoding="utf-8")
    assert main(["report", "--events", str(events),
                 "--outdir", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert (f"bad events file {events}, line 3: request.done record has no "
            f"issued_at") in err


@pytest.mark.parametrize("field, value, expected", [
    ("latency", "0.5", 'latency "0.5", not a number'),
    ("outcome", 1, "outcome 1, not a string"),
], ids=["string-latency", "numeric-outcome"])
def test_report_rejects_a_wrongly_typed_reported_field(tmp_path, capsys, field,
                                                       value, expected):
    done = {"t": 1.0, "kind": "request.done", "i": 0, "corr": "", "issued_at": 0.5,
            "latency": 0.5, "outcome": "processed", "status": 200}
    done[field] = value
    events = tmp_path / "events.jsonl"
    events.write_text('{"t": 0.0, "kind": "experiment.config", "config": {}}\n'
                      + json.dumps(done) + "\n", encoding="utf-8")
    assert main(["report", "--events", str(events),
                 "--outdir", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert (f"bad events file {events}, line 2: request.done record has "
            f"{expected}") in err
    assert "runtime failure" not in err


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["build", "--bogus"]) == 2
    capsys.readouterr()
