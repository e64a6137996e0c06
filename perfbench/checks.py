"""Correctness gate for benchmark runs.

Everything here runs outside the timed region.  A closed-loop run passes
when each request executed exactly once and the final consistency sweep is
clean (check_state), and when every processed response matches a replay of
the same commands on the plain d=0 chain and `emit_report` on the reloaded
events.jsonl rewrites the run's own requests.csv and summary.json byte for
byte (check_outputs).  check_outputs depends on the artifacts alone, so a
run whose artifacts equal those of a checked run inherits its verdict.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from miserysim import reporting
from miserysim.attacker import Strategy, simulate_one
from miserysim.eventlog import load_records
from miserysim.experiment import ExperimentConfig, run_experiment

ARTIFACTS = ("events.jsonl", "requests.csv", "summary.json")


def digests(outdir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


def times_digest(times: list[float]) -> str:
    return hashlib.sha256(json.dumps(times).encode("ascii")).hexdigest()


def check_state(result) -> list[str]:
    problems = []
    counts = result.store.execution_counts()
    if not counts:
        problems.append("no request was executed")
    repeated = sum(1 for n in counts.values() if n != 1)
    if repeated:
        problems.append(f"{repeated} ids executed more than once")
    return problems + [f"consistency: {p}" for p in result.consistency]


def check_outputs(cfg: ExperimentConfig, result, outdir: Path) -> list[str]:
    return _differential(cfg, result) + _report_roundtrip(outdir)


def _differential(cfg: ExperimentConfig, result) -> list[str]:
    """Replay the run's commands on the d=0 chain.  Keys are never rewritten,
    so a reply is a function of its command alone and must match exactly."""
    issued = sorted(result.log.of_kind("request.issued"), key=lambda r: r["i"])
    commands = [r["command"] for r in issued]
    oracle = run_experiment(
        ExperimentConfig(d=0, k=0, j=2 * cfg.j, n_requests=len(commands),
                         rng_seed=cfg.rng_seed),
        replay=commands)
    expected = {r["i"]: r for r in oracle.log.of_kind("request.done")}
    mismatched = 0
    for rec in result.log.of_kind("request.done"):
        if rec["outcome"] != "processed":
            continue
        ref = expected.get(rec["i"])
        if (ref is None or ref["outcome"] != "processed"
                or ref["response"] != rec["response"]):
            mismatched += 1
    if mismatched:
        return [f"{mismatched} processed responses differ from the d=0 replay"]
    return []


def _report_roundtrip(outdir: Path) -> list[str]:
    rebuilt = outdir / "rebuilt"
    reporting.emit_report(load_records(str(outdir / "events.jsonl")), str(rebuilt))
    return [f"{name} rebuilt from events.jsonl differs"
            for name in ("requests.csv", "summary.json")
            if (rebuilt / name).read_bytes() != (outdir / name).read_bytes()]


def check_attack(d: int, k: int, hop_time: float, times: list[float]) -> list[str]:
    """No replay reaches layer d in fewer than d-1 hops, and on a static
    digraph every strategy takes exactly d-1."""
    floor = (d - 1) * hop_time
    problems = []
    early = sum(1 for t in times if t < floor)
    if early:
        problems.append(f"{early} replays reached layer {d} in under {floor}")
    for strategy in Strategy:
        static = simulate_one(d, k, hop_time=hop_time, strategy=strategy,
                              r=None, seed=0)
        if static != floor:
            problems.append(f"static {strategy.value} replay took {static}, "
                            f"not {floor}")
    return problems
