"""Command-line interface.

Subcommands mirror the lifecycle: build a digraph from a config, deploy it
into a fresh simulated cloud and dump the state, run a full experiment,
replay an attacker model, and regenerate report artifacts from an event log.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import fields

from . import attacker as attacker_mod
from . import reporting
from .errors import ConfigError, MiserySimError, TopologyError
from .eventlog import EventLog, numbered_records
from .experiment import (
    ExperimentConfig,
    build_cloud,
    build_experiment_digraph,
    run_experiment,
)
from .deploy import deploy_misery
from .topology import MiseryDigraph

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _read_json(path: str, what: str):
    """The JSON document in `path`; a file that cannot be read or parsed is
    a ConfigError that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:   # ValueError: bad UTF-8 or JSON
        raise ConfigError(f"bad {what} file {path}: {err}") from err


def _prepare_output(make, path: str, *args, **kwargs):
    """make(path, ...), the creation or opening of an output path, before
    the work: a path that cannot be used is a ConfigError that names it."""
    try:
        return make(path, *args, **kwargs)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from err


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The --config document with the given flags merged into its fields,
    built, and so checked, once."""
    doc = _read_json(args.config, "config") if args.config else {}
    # each flag's dest is the name of the field it sets
    flags = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    rate = getattr(args, "rate", None)
    if rate is not None:
        if not (rate > 0 and math.isfinite(rate)):
            raise ConfigError("--rate must be finite and > 0")
        flags["request_interval"] = 1.0 / rate
    if isinstance(doc, dict):   # from_json_dict rejects any other document
        doc = {**doc, **{name: value for name, value in flags.items()
                         if value is not None}}
    return ExperimentConfig.from_json_dict(doc)


def _add_shape_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d", type=int, help="digraph depth (0 = plain chain)")
    parser.add_argument("--k", type=int, help="expansion factor per layer")
    parser.add_argument("--config", help="JSON config file")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    _add_shape_flags(parser)
    parser.add_argument("--j", type=float, help="experiment duration, seconds")
    parser.add_argument("--r", type=float, help="movement period, seconds")
    parser.add_argument("--u", type=float, help="client/forwarding timeout, seconds")
    parser.add_argument("--m", type=float, help="target poll interval, seconds")
    parser.add_argument("--s", type=int, help="standby pool size")
    parser.add_argument("--seed", type=int, dest="rng_seed", metavar="SEED",
                        help="experiment rng seed")
    parser.add_argument("--rate", type=float,
                        help="requests per second (sets the think interval)")
    parser.add_argument("--compress", type=float,
                        help="simulated seconds per wall-clock second (0 = free-run)")
    parser.add_argument("--n-requests", type=int, dest="n_requests",
                        help="stop after this many requests")


def cmd_build(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if cfg.d == 0:
        raise ConfigError("build requires d >= 2 (d=0 has no digraph)")
    out = (_prepare_output(open, args.output, "w", encoding="utf-8")
           if args.output else contextlib.nullcontext(sys.stdout))
    with out as fh:
        json.dump(build_experiment_digraph(cfg).to_json_dict(), fh,
                  sort_keys=True, indent=2)
        fh.write("\n")
    if args.output:
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_deploy(args: argparse.Namespace) -> int:
    digraph = MiseryDigraph.from_json_dict(_read_json(args.digraph, "digraph"))
    # the digraph comes from the file, and its shape counts into the
    # instance cap; everything else is the run's default.  The rollout
    # draws from no stream, so no seed is asked for.
    cfg = ExperimentConfig(d=digraph.spec.d, k=digraph.spec.k, s=args.s)
    out = args.output or "state.json"
    with _prepare_output(open, out, "w", encoding="utf-8") as fh:
        provider, addresses = build_cloud(cfg, EventLog())
        sim = provider.sim
        task = sim.spawn(deploy_misery(provider, addresses, digraph,
                                       u=cfg.u, m=cfg.m, s=cfg.s))
        sim.run_until(task.future)
        state = {"cloud": provider.snapshot(),
                 "addresses": addresses.dump(), "t": sim.now}
        json.dump(state, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"deployed {len(digraph.all_nodes())} nodes; wrote {out}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    outdir = args.outdir
    _prepare_output(os.makedirs, outdir, exist_ok=True)
    result = run_experiment(cfg)
    events_path = os.path.join(outdir, "events.jsonl")
    result.log.dump(events_path)
    reporting.emit_report(result.records, outdir)
    rep = result.report
    # with nothing processed there is no median; summary.json writes null
    p50 = "none" if rep.latency_p50_ms is None else f"{rep.latency_p50_ms}ms"
    print(f"issued={rep.issued} processed={rep.processed} failed={rep.failed} "
          f"transformations={rep.transformations} p50={p50}")
    if result.consistency:
        for problem in result.consistency:
            print(f"consistency: {problem}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    strategy = attacker_mod.Strategy(args.strategy)
    if args.r is not None and not math.isfinite(args.r):
        raise ConfigError("--r must be finite (omit it or pass <= 0 for static)")
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    r = None if args.r is None or args.r <= 0 else args.r
    try:
        times = attacker_mod.simulate_attacker(
            args.d, args.k, hop_time=args.hop, strategy=strategy, r=r,
            seeds=range(args.seeds))
    except ValueError as err:   # the replay's own check of --hop and --r
        raise ConfigError(str(err)) from None
    doc = attacker_mod.summarize(times)
    doc.update({"d": args.d, "k": args.k, "hop_time": args.hop,
                "r": r, "strategy": strategy.value})
    json.dump(doc, sys.stdout, sort_keys=True, indent=2, allow_nan=False)
    print()
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    records = []
    for n, record in numbered_records(args.events):
        problem = reporting.field_problem(record)
        if problem is not None:
            raise ConfigError(f"bad events file {args.events}, line {n}: "
                              f"{record['kind']} record {problem}")
        records.append(record)
    _prepare_output(os.makedirs, args.outdir, exist_ok=True)
    csv_path, json_path = reporting.emit_report(records, args.outdir)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miserysim",
        description="Simulated moving-target defense for cloud request paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="expand a config into a digraph dump")
    _add_shape_flags(p_build)
    p_build.add_argument("--output", "-o", help="digraph JSON path (default stdout)")
    p_build.set_defaults(fn=cmd_build)

    p_deploy = sub.add_parser("deploy", help="deploy a digraph dump into a "
                                             "fresh simulated cloud")
    p_deploy.add_argument("--digraph", required=True, help="digraph JSON path")
    p_deploy.add_argument("--output", "-o", help="state dump path")
    p_deploy.add_argument("--s", type=int, default=8, help="standby pool size")
    p_deploy.set_defaults(fn=cmd_deploy)

    p_run = sub.add_parser("run", help="run a full experiment")
    _add_run_flags(p_run)
    p_run.add_argument("--outdir", default=".",
                       help="where events.jsonl, requests.csv, summary.json go")
    p_run.set_defaults(fn=cmd_run)

    p_attack = sub.add_parser("attack", help="Monte-Carlo attacker replay")
    p_attack.add_argument("--d", type=int, required=True)
    p_attack.add_argument("--k", type=int, required=True)
    p_attack.add_argument("--r", type=float,
                          help="movement period; omit or <=0 for static")
    p_attack.add_argument("--hop", type=float, default=1.0,
                          help="attacker per-hop compromise time")
    p_attack.add_argument("--strategy", default="depth-first",
                          choices=[s.value for s in attacker_mod.Strategy])
    p_attack.add_argument("--seeds", type=int, default=1000)
    p_attack.set_defaults(fn=cmd_attack)

    p_report = sub.add_parser("report", help="regenerate artifacts from an "
                                             "event log")
    p_report.add_argument("--events", required=True, help="events.jsonl path")
    p_report.add_argument("--outdir", default=".")
    p_report.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else EXIT_OK
    try:
        return args.fn(args)
    except (ConfigError, TopologyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MiserySimError as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as err:  # pragma: no cover - last resort
        print(f"runtime failure: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
