"""Discrete-event simulation kernel.

A single virtual clock, a binary-heap event queue, deterministic named RNG
streams, and a small cooperative-task layer (generators yielding delays,
futures, or None to park until resumed) that the node runtimes are written
against.  Determinism contract: identical seed and identical call sequence
produce identical event order; ties at the same instant resolve by
(priority, schedule sequence).

Each heap entry is a `(t, priority, seq, handle)` tuple, the priority-queue
recipe of the heapq documentation: tuples compare in C, and `seq` is unique,
so a comparison is always settled before it reaches the handles.
A cancelled handle stays in the heap and is dropped when it reaches the top.

`run(until)` and `run_until(future, limit)` share one dispatch loop, which
stops when a future resolves (`run` waits on one that nothing resolves),
the heap drains, or the next live event lies past a horizon (the `until`
or `limit`).  An exception that an event raises, a task's included, leaves
the loop and ends the run.

`next_due()` is the time of the next live heap event, or the running loop's
horizon if that is sooner.  The poller replays its idle cycles as arithmetic
up to it: events that schedule only each other and fall strictly before it
run before any other event in a stepwise dispatch too.  Replayed events have
no heap entry to set the clock, so `run(until)` leaves the clock at `until`
and a `run_until` that hits its `limit` leaves it at `limit`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import time
from collections.abc import Callable, Generator
from typing import Any

# Tie-break priorities for events scheduled at the same instant.  Lower runs
# first: provider state flips before deliveries, deliveries before the
# multicaster's same-instant winner resolution, actors before control-plane
# and load-generation decisions.
PRIO_PROVIDER = 0
PRIO_NETWORK = 1
PRIO_RESOLVE = 2
PRIO_ACTOR = 3
PRIO_CONTROL = 4
PRIO_LOAD = 5


class Handle:
    """Cancellable reference to one scheduled callback."""

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn: Callable[..., Any], args: tuple):
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        self.fn = None
        self.args = ()


class Future:
    """Single-assignment result container resolved inside the event loop."""

    __slots__ = ("_state", "_value", "_callbacks")

    _PENDING, _DONE, _FAILED = 0, 1, 2

    def __init__(self) -> None:
        self._state = Future._PENDING
        self._value: Any = None
        self._callbacks: list[Callable[["Future"], None]] = []

    @property
    def done(self) -> bool:
        return self._state != Future._PENDING

    @property
    def failed(self) -> bool:
        return self._state == Future._FAILED

    def result(self) -> Any:
        if self._state == Future._PENDING:
            raise RuntimeError("future not resolved")
        if self._state == Future._FAILED:
            raise self._value
        return self._value

    def exception(self) -> BaseException | None:
        return self._value if self._state == Future._FAILED else None

    def resolve(self, value: Any = None) -> None:
        if self._state != Future._PENDING:
            return
        self._state = Future._DONE
        self._value = value
        self._flush()

    def reject(self, exc: BaseException) -> None:
        if self._state != Future._PENDING:
            return
        self._state = Future._FAILED
        self._value = exc
        self._flush()

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        if self._state != Future._PENDING:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _flush(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


def gather(futures: list[Future]) -> Future:
    """Future resolving to all results in order; rejects on the first failure."""
    out = Future()
    results: list = [None] * len(futures)
    remaining = len(futures)
    if remaining == 0:
        out.resolve(results)
        return out

    def make_cb(index: int):
        def cb(fut: Future) -> None:
            nonlocal remaining
            if fut.failed:
                out.reject(fut.exception())
                return
            results[index] = fut.result()
            remaining -= 1
            if remaining == 0:
                out.resolve(results)
        return cb

    for index, fut in enumerate(futures):
        fut.add_done_callback(make_cb(index))
    return out


class Task:
    """A generator driven by the simulation.

    The generator yields a number (sleep that many virtual seconds; 0 runs
    it again after the events already due at this instant), a Future
    (resume when it resolves; a rejected future is thrown into the
    generator) or None (park until some code calls `resume`).
    `resume(value)` sends value into the generator and `resume(exc=err)`
    throws err into it.  The task's own `future` resolves with the
    generator's return value.  An exception the generator does not catch
    ends the run: it leaves the event loop.
    """

    __slots__ = ("sim", "gen", "prio", "future")

    def __init__(self, sim: "Simulation", gen: Generator, prio: int):
        self.sim = sim
        self.gen = gen
        self.prio = prio
        self.future = Future()

    def resume(self, value: Any = None, exc: BaseException | None = None) -> None:
        """Run the generator to its next yield."""
        try:
            item = self.gen.throw(exc) if exc is not None else self.gen.send(value)
        except StopIteration as stop:
            self.future.resolve(stop.value)
            return
        if item is None:
            return
        if isinstance(item, Future):
            item.add_done_callback(self._resume_from)
        else:
            self.sim.schedule(float(item), self.resume, priority=self.prio)

    def _resume_from(self, fut: Future) -> None:
        if fut.failed:
            self.resume(exc=fut.exception())
        else:
            self.resume(fut._value)


class Simulation:
    """Virtual clock plus event queue plus named deterministic RNG streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now = 0.0
        self._heap: list[tuple[float, int, int, Handle]] = []
        self._seq = itertools.count()
        self._rngs: dict[str, random.Random] = {}
        self._processed = 0
        # events_processed when the running loop was entered: code outside
        # the loops may have changed any state before then
        self.loop_entry = 0
        self._horizon = math.inf    # the running loop's until or limit

    def rng(self, name: str) -> random.Random:
        """Deterministic per-subsystem stream, independent of other streams."""
        stream = self._rngs.get(name)
        if stream is None:
            stream = random.Random(f"{self.seed}/{name}")
            self._rngs[name] = stream
        return stream

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = PRIO_ACTOR) -> Handle:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, fn, *args, priority=priority)

    def schedule_at(self, t: float, fn: Callable[..., Any], *args: Any,
                    priority: int = PRIO_ACTOR) -> Handle:
        if not t >= self.now:   # also rejects a NaN time
            raise ValueError(f"cannot schedule into the past ({t} < {self.now})")
        handle = Handle(fn, args)
        heapq.heappush(self._heap, (t, priority, next(self._seq), handle))
        return handle

    def spawn(self, gen: Generator, priority: int = PRIO_ACTOR) -> Task:
        task = Task(self, gen, priority)
        self.schedule(0.0, task.resume, priority=priority)
        return task

    def next_due(self) -> float:
        """The time of the next live heap event, or the horizon of the loop
        running this event if that is sooner; inf if there is neither.
        Call it from an event."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return min(heap[0][0], self._horizon) if heap else self._horizon

    def run(self, until: float | None = None) -> int:
        """Process events until the queue drains or the clock passes `until`.
        Returns the number of events processed by this call."""
        start = self._processed
        self._dispatch(_NEVER, math.inf if until is None else until, 0.0)
        if until is not None and self.now < until:
            self.now = until
        return self._processed - start

    def run_until(self, future: Future, limit: float | None = None,
                  pace: float = 0.0) -> Any:
        """Process events until `future` resolves; returns its result.

        `pace` > 0 throttles to that many simulated seconds per wall-clock
        second so a human can watch; 0 runs as fast as possible.
        """
        late = self._dispatch(future, math.inf if limit is None else limit, pace)
        if future.done:
            return future.result()
        if late is None:
            raise RuntimeError("event queue drained before future resolved")
        if self.now < limit:
            self.now = limit
        raise RequestNeverCompletes(
            f"future unresolved at t={limit} (next event t={late})")

    def _dispatch(self, future: Future, horizon: float, pace: float) -> float | None:
        """Run events until `future` resolves, the heap drains, or the next
        live event lies past `horizon`; returns that event's time in the
        last case, else None."""
        self.loop_entry = self._processed
        self._horizon = horizon
        heap = self._heap
        pop = heapq.heappop
        pending = Future._PENDING
        while future._state == pending and heap:
            t, _, _, handle = heap[0]
            if handle.cancelled:
                pop(heap)
                continue
            if t > horizon:
                return t
            if pace > 0.0 and t > self.now:
                time.sleep((t - self.now) / pace)
            pop(heap)
            self.now = t
            fn, args = handle.fn, handle.args
            handle.fn, handle.args = None, ()
            fn(*args)
            self._processed += 1
        return None

    @property
    def events_processed(self) -> int:
        return self._processed


class RequestNeverCompletes(RuntimeError):
    """run_until hit its limit with the future still pending."""


# the future run() waits on: nothing resolves it
_NEVER = Future()
