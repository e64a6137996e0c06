"""Structured event log: one JSON object per line, byte-stable per seed."""

from __future__ import annotations

import json
from typing import Any, Iterator

from .errors import ConfigError


class EventLog:
    """Append-only record list with deterministic JSON-lines serialization.

    Every record carries at least {"t", "kind"}; records are kept in emit
    order, which under a fixed seed is the deterministic event order of the
    simulation.  Keys are sorted at serialization time so identical runs
    produce identical bytes.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def emit(self, t: float, kind: str, **fields: Any) -> dict[str, Any]:
        record = {"t": t, "kind": kind}
        record.update(fields)
        self.records.append(record)
        return record

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(serialize_record(record) + "\n")

    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        return [r for r in self.records if r["kind"] == kind]


# json.dumps with these options builds a new encoder per call; one shared
# encoder writes the same bytes
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def serialize_record(record: dict[str, Any]) -> str:
    return _ENCODER.encode(record)


def load_records(path: str) -> list[dict[str, Any]]:
    return [record for _, record in numbered_records(path)]


def numbered_records(path: str) -> Iterator[tuple[int, dict[str, Any]]]:
    """(line number, record) for each non-blank line of an events file; a
    file that cannot be read, or a line that is not a JSON object, is a
    ConfigError naming the file (and the line)."""
    try:
        with open(path, encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as err:
                    raise ConfigError(
                        f"bad events file {path}, line {n}: {err}") from err
                if not isinstance(record, dict):
                    raise ConfigError(
                        f"bad events file {path}, line {n}: not a JSON object")
                yield n, record
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"bad events file {path}: {err}") from err
