"""Versioned endpoint registry (the Address Server).

One record per owner node: the owner's current children endpoints (or, for
the target, the layer-d endpoint list).  The movement manager is the single
writer; owners subscribe and receive full records asynchronously in version
order after a propagation delay — that delay is the window in which parents
still route to replaced instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import MiserySimError
from .eventlog import EventLog
from .sim import Simulation


@dataclass(frozen=True)
class AddressRecord:
    owner: str
    version: int
    children: tuple[tuple[str, str], ...]   # (node id, address)


class AddressServer:
    def __init__(self, sim: Simulation, log: EventLog, *,
                 notify_latency: tuple[float, float] = (0.5, 1.5)):
        self.sim = sim
        self.log = log
        self._notify = notify_latency
        self._rng = sim.rng("addresses")
        self._records: dict[str, AddressRecord] = {}
        self._subscribers: dict[str, Callable[[AddressRecord], None]] = {}
        self._last_at: dict[str, float] = {}

    @property
    def notify_bound(self) -> float:
        """Worst-case propagation delay (window upper edge for reporting)."""
        return self._notify[1]

    def register(self, owner: str,
                 children: Iterable[tuple[str, str]]) -> AddressRecord:
        if owner in self._records:
            raise MiserySimError(f"{owner} is already registered")
        record = AddressRecord(owner, 1, tuple(children))
        self._records[owner] = record
        self.log.emit(self.sim.now, "address.register", instance=owner,
                      detail={"version": 1, "entries": [list(e) for e in record.children]})
        return record

    def update(self, owner: str,
               children: Iterable[tuple[str, str]]) -> AddressRecord:
        """Bump the owner's record and push it to the subscriber after the
        propagation delay.  Updates are events: identical children still get a
        new version."""
        current = self._records.get(owner)
        if current is None:
            raise MiserySimError(f"{owner} never registered")
        record = AddressRecord(owner, current.version + 1, tuple(children))
        self._records[owner] = record
        self.log.emit(self.sim.now, "address.update", instance=owner,
                      detail={"version": record.version,
                              "entries": [list(e) for e in record.children]})
        subscriber = self._subscribers.get(owner)
        if subscriber is not None:
            # deliveries to one owner must not reorder: a subscriber adopts
            # each record as delivered, so a newer record overtaken by a
            # stale one would stick
            at = max(self.sim.now + self._rng.uniform(*self._notify),
                     self._last_at.get(owner, 0.0))
            self._last_at[owner] = at
            self.sim.schedule_at(at, subscriber, record)
        return record

    def lookup(self, owner: str) -> AddressRecord:
        record = self._records.get(owner)
        if record is None:
            raise MiserySimError(f"{owner} never registered")
        return record

    def subscribe(self, owner: str, fn: Callable[[AddressRecord], None]) -> None:
        self._subscribers[owner] = fn

    def remove(self, owner: str) -> None:
        """Drop a terminated owner's record and subscription (plumbing)."""
        self._records.pop(owner, None)
        self._subscribers.pop(owner, None)
        self._last_at.pop(owner, None)

    def dump(self) -> dict:
        return {
            owner: {"version": record.version,
                    "entries": [list(e) for e in record.children]}
            for owner, record in sorted(self._records.items())
        }
