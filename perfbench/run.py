"""miserysim benchmark: host cost and simulated outcomes on fixed workloads.

Usage:
    python3 perfbench/run.py --workload steady --seed 1 --seconds 40 --trace 0

A workload is one shape of the misery digraph.  One pass runs the shape
three times the way `miserysim run` does (run_experiment, then
events.jsonl, requests.csv and summary.json), at think intervals 0.77, 0.80
and 0.83 s with seeds seed, seed+1 and seed+2, and then replays the
lateral-movement attacker against the same shape.  Passes repeat while
another one of the same length still fits in --seconds.  run_s and
attack_s are medians over passes, scaled by the machine's speed during the
run (see calibration_round); setup_s is the median over SETUP_PROBES fresh
interpreters (setup_probe.py), each scaled by a reference interpreter timed
next to it, taken before the passes; peak_rss_mb is the process's
high-water mark after the first run, before any check.  Simulated
metrics come from the first pass, which every later pass must repeat byte
for byte.  Every run goes through the correctness gate in checks.py outside
the timed region; a later pass inherits the first pass's verdict on the
artifacts it reproduces.

With --trace 0 the last line of output is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric, taken from one untraced and one traced pass.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Closed loop with one client.  Three think intervals 4% apart, because with
# one interval the client phase-locks to the poll period and a model change
# could move p50 by 30% through the phase alone.
THINKS = (0.77, 0.80, 0.83)
WORKLOADS = {
    # the README and acceptance shape; host time is mostly idle poll dialogue
    "steady": dict(d=3, k=2, r=100.0, s=8, m=0.1, u=1.0, j=600.0),
    # 81 leaves: heap, per-leaf handshakes and fan-out dominate, and the
    # serial poller sets the latency; j is halved to keep a pass near 10 s
    "wide": dict(d=5, k=3, r=100.0, s=8, m=0.1, u=1.0, j=300.0),
    # a pool of 64 lets movement run ~62 of 120 cycles instead of 6, so the
    # rule-rewrite, severance and refused paths run about 10x as often
    "churn": dict(d=4, k=2, r=5.0, s=64, m=0.1, u=1.0, j=600.0),
}
# The attacker replay (both strategies), as in `miserysim attack --r 0.5
# --hop 1.0`.  Its times sit on a half-hop grid, so the median is
# interpolated within its half-hop class.
ATTACK_R = 0.5
ATTACK_HOP = 1.0
ATTACK_GRID = 0.5
ATTACK_REPLAYS = 1500
ATTACK_SEED_STRIDE = 10_000
# Set-up is mostly imports, whose speed on a shared host does not follow
# the calibration round.  Each probe is paired with a reference interpreter
# that imports a fixed set of stdlib modules, and set-up is reported as if
# the reference took SETUP_NOMINAL_S.
SETUP_PROBES = 15
SETUP_NOMINAL_S = 0.035
SETUP_REFERENCE = (
    "import time; t0 = time.perf_counter(); "
    "import argparse, csv, dataclasses, decimal, email.message, fractions, "
    "hashlib, heapq, json, random, statistics, xml.dom.minidom; "
    "print(repr(time.perf_counter() - t0))")
# The host's speed drifts by a quarter or more over minutes while other
# tenants come and go, which no median within one run can remove.  A fixed
# stdlib-only round timed between the workload's steps measures that speed;
# host times are reported as if one round took CAL_NOMINAL_S.
CAL_ITEMS = 3_000
CAL_REPEATS = 10
CAL_NOMINAL_S = 0.05


@dataclass
class Outcome:
    """One checked unit of work: a closed-loop run or an attacker batch."""

    label: str
    attempted: int
    digests: dict[str, str]
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    run_s: float = 0.0
    attack_s: float = 0.0
    peak_rss_mb: float = 0.0
    calibration: list[float] = field(default_factory=list)
    done: list[dict] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)


def run_pass(name: str, seed: int, tracer=None, reference: Pass | None = None,
             mismatch: str = "") -> Pass:
    """One pass of the workload.  With a reference pass, the artifacts must
    equal the reference's (else `mismatch` is reported) instead of going
    through the output checks again."""
    from miserysim import reporting
    from miserysim.attacker import Strategy, simulate_attacker
    from miserysim.experiment import ExperimentConfig, run_experiment

    import checks

    shape = WORKLOADS[name]
    out = Pass()
    for i, think in enumerate(THINKS):
        cfg = ExperimentConfig(rng_seed=seed + i, request_interval=think, **shape)
        outdir = OUT / name / f"run{i}"
        outdir.mkdir(parents=True, exist_ok=True)
        out.calibration.append(calibration_round())
        gc.collect()
        if tracer is not None:
            tracer.start_run()
        t0 = time.perf_counter()
        result = run_experiment(cfg)
        result.log.dump(str(outdir / "events.jsonl"))
        reporting.emit_report(result.records, str(outdir))
        out.run_s += time.perf_counter() - t0
        if i == 0:
            # before any check runs, so the high-water mark is the program's
            out.peak_rss_mb = peak_rss_mb()
        problems = []
        if tracer is not None:
            problems += tracer.stop_run(
                result, (outdir / "events.jsonl").stat().st_size)
        problems += checks.check_state(result)
        done = result.log.of_kind("request.done")
        if reference is None:
            problems += checks.check_outputs(cfg, result, outdir)
            out.done += done
        out.outcomes.append(Outcome(f"{name}:seed={cfg.rng_seed}:think={think}",
                                    len(done), checks.digests(outdir), problems))
        del result

    d, k = shape["d"], shape["k"]
    seeds = range(seed * ATTACK_SEED_STRIDE, seed * ATTACK_SEED_STRIDE + ATTACK_REPLAYS)
    times = []
    for strategy in Strategy:
        out.calibration.append(calibration_round())
        gc.collect()
        if tracer is not None:
            tracer.start_attack()
        t0 = time.perf_counter()
        times += simulate_attacker(d, k, hop_time=ATTACK_HOP, strategy=strategy,
                                   r=ATTACK_R, seeds=seeds)
        out.attack_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.stop_attack()
    out.outcomes.append(Outcome(
        f"{name}:attack:seed={seed}", len(times),
        {"times": checks.times_digest(times)},
        checks.check_attack(d, k, ATTACK_HOP, times)))
    if reference is None:
        out.times = times
    else:
        for got, want in zip(out.outcomes, reference.outcomes):
            if got.digests != want.digests:
                got.problems.append(mismatch)
    return out


def calibration_round() -> float:
    """Host seconds for a fixed round of the simulator's kind of work: a
    heap of tuples, random draws, dict counts and JSON.  The heap is small
    and refilled, so the round sets no memory high-water mark of its own."""
    t0 = time.perf_counter()
    rng = random.Random(0)
    counts: dict[int, int] = {}
    for _ in range(CAL_REPEATS):
        heap: list[tuple[float, int, str]] = []
        for i in range(CAL_ITEMS):
            heapq.heappush(heap, (rng.random(), i, str(i)))
            counts[i % 997] = counts.get(i % 997, 0) + 1
        rows = []
        while heap:
            t, i, text = heapq.heappop(heap)
            rows.append({"t": t, "i": i, "text": text})
        json.dumps(rows[:200], sort_keys=True)
    return time.perf_counter() - t0


def measure_setup(name: str) -> list[tuple[float, float]]:
    """Pairs of (reference, set-up) seconds, each from a fresh interpreter."""
    probe = [sys.executable, "-I", str(BENCH / "setup_probe.py"), str(SRC),
             json.dumps(WORKLOADS[name])]
    reference = [sys.executable, "-I", "-c", SETUP_REFERENCE]

    def seconds(cmd: list[str]) -> float:
        return float(subprocess.run(cmd, capture_output=True, text=True,
                                    check=True, timeout=60).stdout)

    return [(seconds(reference), seconds(probe)) for _ in range(SETUP_PROBES)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def simulated_metrics(name: str, first: Pass) -> dict[str, float]:
    from miserysim import reporting

    pooled = reporting.metrics_from_records(first.done)
    sim_seconds = len(THINKS) * WORKLOADS[name]["j"]
    print(f"sim: {pooled.issued} requests issued, {pooled.processed} processed "
          f"(the latency sample count), {pooled.failed} failed, "
          f"sim_failed_pct {100.0 * pooled.failed / pooled.issued:.3f} %")
    return {
        "sim_p50_ms": pooled.latency_p50_ms,
        "sim_p95_ms": pooled.latency_p95_ms,
        "sim_goodput_rps": pooled.processed / sim_seconds,
        "sim_processed_pct": 100.0 * pooled.processed / pooled.issued,
        "attack_ttt_median": statistics.median_grouped(first.times, ATTACK_GRID),
    }


def report_outcomes(passes: list[Pass]) -> tuple[int, int, bool]:
    pinned = json.loads((BENCH / "baseline.json").read_text()).get("fingerprints", {})
    attempted = failed = 0
    for number, p in enumerate(passes):
        for outcome in p.outcomes:
            attempted += outcome.attempted
            if outcome.problems:
                failed += outcome.attempted
            if number == 0:
                want = pinned.get(outcome.label)
                status = ("unpinned" if want is None
                          else "match" if want == outcome.digests else "differs")
                print(f"fingerprint {outcome.label} pinned={status} "
                      + " ".join(f"{k}={v}" for k, v in sorted(outcome.digests.items())))
            for problem in outcome.problems:
                print(f"FAIL pass {number} {outcome.label}: {problem}")
    return attempted, failed, failed == 0


def emit(correct: bool, attempted: int, failed: int, values: dict[str, float],
         declared: list[dict]) -> None:
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(values))
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "miserysim" / "__init__.py").is_file():
        print(f"error: no miserysim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name, seed = args.workload, args.seed

    try:
        if args.trace:
            import tracing

            base = run_pass(name, seed)
            tracer = tracing.Tracer()
            traced = run_pass(name, seed, tracer, base, "tracing changed the artifacts")
            values = tracer.metrics()
            values["trace.overhead"] = traced.run_s / base.run_s
            values["trace.attack_overhead"] = traced.attack_s / base.attack_s
            passes = [base, traced]
            declared = spec["per_layer"]
        else:
            setup = measure_setup(name)
            start = time.perf_counter()
            passes = [run_pass(name, seed)]
            took = time.perf_counter() - start
            while time.perf_counter() - start + took <= args.seconds:
                t0 = time.perf_counter()
                passes.append(run_pass(name, seed, reference=passes[0],
                                       mismatch="artifacts differ from the first pass"))
                took = time.perf_counter() - t0
            # a mean, because the host flips between a fast and a slow state
            # and a median would pick one of them
            calibration = statistics.fmean(c for p in passes for c in p.calibration)
            speed = CAL_NOMINAL_S / calibration
            print(f"host (unscaled): {len(passes)} passes, run_s "
                  + " ".join(f"{p.run_s:.3f}" for p in passes)
                  + ", attack_s " + " ".join(f"{p.attack_s:.3f}" for p in passes)
                  + ", setup_s " + " ".join(f"{s:.4f}/{r:.4f}" for r, s in setup)
                  + f", calibration round {calibration:.4f} s, scale {speed:.4f}")
            print(f"peak RSS: {passes[0].peak_rss_mb:.3f} MiB after the first run, "
                  f"{peak_rss_mb():.3f} MiB at the end (checks included)")
            values = {
                "run_s": speed * statistics.median(p.run_s for p in passes),
                "attack_s": speed * statistics.median(p.attack_s for p in passes),
                "setup_s": SETUP_NOMINAL_S * statistics.median(s / r for r, s in setup),
                "peak_rss_mb": passes[0].peak_rss_mb,
            }
            values.update(simulated_metrics(name, passes[0]))
            declared = spec["end_to_end"]
        attempted, failed, correct = report_outcomes(passes)
        emit(correct, attempted, failed, values, declared)
    finally:
        shutil.rmtree(OUT / name, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
