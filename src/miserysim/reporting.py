"""Metrics and report artifacts, derived from the event log alone.

Everything here is a pure function of the recorded events so that a report
regenerated later from events.jsonl is byte-identical to the one written at
run time.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field


def is_int(value) -> bool:
    # bool subclasses int, but true is neither a count nor a duration
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return is_int(value) or isinstance(value, float)


_INTEGER = (is_int, "an integer")
_NUMBER = (is_number, "a number")
_STRING = (lambda value: isinstance(value, str), "a string")

# what the report reads from each record kind, as dotted paths, with the
# JSON type each must have
REPORTED_FIELDS = {
    "experiment.config": {"config": (lambda value: isinstance(value, dict),
                                     "an object")},
    "movement.window": {"detail.cycle": _INTEGER, "detail.layer": _INTEGER,
                        "detail.t0": _NUMBER, "detail.t1": _NUMBER},
    "pool.allocate": {"detail.hit": (lambda value: isinstance(value, bool),
                                     "a boolean")},
    "request.done": {"i": _INTEGER, "corr": _STRING, "issued_at": _NUMBER,
                     "outcome": _STRING, "latency": _NUMBER, "status": _INTEGER},
}


def field_problem(record: dict) -> str | None:
    """What is wrong with the first field the report reads from `record`
    ("has no PATH" or "has PATH VALUE, not TYPE"), or None."""
    kind = record.get("kind")
    if not isinstance(kind, str):
        return None
    for path, (ok, type_name) in REPORTED_FIELDS.get(kind, {}).items():
        value = record
        for key in path.split("."):
            if not isinstance(value, dict) or key not in value:
                return f"has no {path}"
            value = value[key]
        if not ok(value):
            return f"has {path} {json.dumps(value)}, not {type_name}"
    return None


@dataclass(frozen=True)
class TransformationWindow:
    """Interval during which one movement cycle can disturb requests: from
    the first rule rewrite until every stale address table has been
    corrected (propagation end plus the notification latency bound)."""

    cycle: int
    layer: int
    t0: float
    t1: float

    def covers(self, t: float) -> bool:
        return self.t0 <= t <= self.t1


@dataclass
class MetricsReport:
    issued: int = 0
    processed: int = 0
    failed: int = 0
    latency_p50_ms: float | None = None
    latency_p95_ms: float | None = None
    latency_p99_ms: float | None = None
    transformations: int = 0
    pool_misses: int = 0
    failures_by_layer: dict[str, int] = field(default_factory=dict)
    failures_by_cycle: list[dict] = field(default_factory=list)


def _quantile(ordered: list[float], q: float) -> float | None:
    if not ordered:
        return None
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[idx]


def windows_from_records(records: list[dict]) -> list[TransformationWindow]:
    out = []
    for rec in records:
        if rec.get("kind") != "movement.window":
            continue
        d = rec["detail"]
        out.append(TransformationWindow(cycle=d["cycle"], layer=d["layer"],
                                        t0=d["t0"], t1=d["t1"]))
    return out


def window_for(windows: list[TransformationWindow],
               t: float) -> TransformationWindow | None:
    for w in windows:
        if w.covers(t):
            return w
    return None


def metrics_from_records(records: list[dict]) -> MetricsReport:
    windows = windows_from_records(records)
    report = MetricsReport()
    report.transformations = len(windows)
    by_cycle: dict[int, dict] = {}
    for w in windows:
        by_cycle[w.cycle] = {"cycle": w.cycle, "layer": w.layer, "failures": 0}
    latencies: list[float] = []
    for rec in records:
        kind = rec.get("kind")
        if kind == "pool.allocate" and not rec["detail"]["hit"]:
            report.pool_misses += 1
            continue
        if kind != "request.done":
            continue
        report.issued += 1
        if rec["outcome"] == "processed":
            report.processed += 1
            latencies.append(rec["latency"])
        else:
            report.failed += 1
            w = window_for(windows, rec["issued_at"])
            label = str(w.layer) if w is not None else "none"
            report.failures_by_layer[label] = (
                report.failures_by_layer.get(label, 0) + 1)
            if w is not None:
                by_cycle[w.cycle]["failures"] += 1
    report.failures_by_cycle = [by_cycle[c] for c in sorted(by_cycle)]
    latencies.sort()
    report.latency_p50_ms = _ms(_quantile(latencies, 0.50))
    report.latency_p95_ms = _ms(_quantile(latencies, 0.95))
    report.latency_p99_ms = _ms(_quantile(latencies, 0.99))
    return report


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else round(seconds * 1000.0, 3)


CSV_COLUMNS = ("index", "correlation_id", "issued_at", "outcome",
               "latency_s", "status", "window_layer")


def emit_report(records: list[dict], outdir: str) -> tuple[str, str]:
    """Write requests.csv (one row per issued request) and summary.json.
    Returns (csv_path, json_path)."""
    os.makedirs(outdir, exist_ok=True)
    windows = windows_from_records(records)
    csv_path = os.path.join(outdir, "requests.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            if rec.get("kind") != "request.done":
                continue
            w = window_for(windows, rec["issued_at"])
            writer.writerow([rec["i"], rec["corr"], repr(rec["issued_at"]),
                             rec["outcome"], repr(rec["latency"]),
                             rec["status"],
                             str(w.layer) if w is not None else "none"])

    config = None
    for rec in records:
        if rec.get("kind") == "experiment.config":
            config = rec["config"]
            break
    summary = {"config": config,
               "metrics": asdict(metrics_from_records(records))}
    json_path = os.path.join(outdir, "summary.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return csv_path, json_path
