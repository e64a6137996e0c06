"""Discrete-event kernel: ordering, futures, tasks, determinism."""

from __future__ import annotations

import math
import random

import pytest

from miserysim.sim import (
    PRIO_ACTOR,
    PRIO_CONTROL,
    PRIO_NETWORK,
    PRIO_PROVIDER,
    Future,
    Handle,
    RequestNeverCompletes,
    Simulation,
    gather,
)


def test_clock_starts_at_zero():
    sim = Simulation(0)
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulation(0)
    seen = []
    sim.schedule(3.0, seen.append, "c")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_priority_breaks_same_instant_ties():
    sim = Simulation(0)
    seen = []
    sim.schedule(1.0, seen.append, "actor", priority=PRIO_ACTOR)
    sim.schedule(1.0, seen.append, "provider", priority=PRIO_PROVIDER)
    sim.schedule(1.0, seen.append, "control", priority=PRIO_CONTROL)
    sim.schedule(1.0, seen.append, "network", priority=PRIO_NETWORK)
    sim.run()
    assert seen == ["provider", "network", "actor", "control"]


def test_same_priority_fifo_at_same_instant():
    sim = Simulation(0)
    seen = []
    for i in range(5):
        sim.schedule(1.0, seen.append, i)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_cancelled_handle_does_not_fire():
    sim = Simulation(0)
    seen = []
    h = sim.schedule(1.0, seen.append, "x")
    sim.schedule(0.5, h.cancel)
    sim.run()
    assert seen == []


def test_cancelled_head_past_until_is_skipped_and_run_stops_at_until():
    sim = Simulation(0)
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(5.0, seen.append, "cancelled").cancel()
    sim.schedule(7.0, seen.append, "b")
    assert sim.run(until=3.0) == 1
    assert (seen, sim.now) == (["a"], 3.0)
    assert sim.run() == 1
    assert (seen, sim.now) == (["a", "b"], 7.0)


def test_cancelled_head_past_limit_does_not_end_run_until():
    sim = Simulation(0)
    fut = Future()
    sim.schedule(2.0, lambda: None)
    sim.schedule(6.0, fut.resolve, "cancelled").cancel()
    # only the cancelled entry lies past the limit: the queue drains instead
    with pytest.raises(RuntimeError) as info:
        sim.run_until(fut, limit=5.0)
    assert not isinstance(info.value, RequestNeverCompletes)
    assert sim.now == 2.0
    # behind a cancelled head, the limit is checked against the live event
    sim.schedule_at(6.0, fut.resolve, "cancelled").cancel()
    sim.schedule_at(8.0, fut.resolve, "late")
    with pytest.raises(RequestNeverCompletes, match="next event t=8.0"):
        sim.run_until(fut, limit=5.0)


def test_unorderable_args_at_the_same_instant_run_fifo():
    sim = Simulation(0)
    seen = []
    for i in range(5):
        sim.schedule(1.0, lambda doc: seen.append(doc), {"i": i}, priority=PRIO_ACTOR)
        sim.schedule(1.0, seen.append, {"j": i}, priority=PRIO_ACTOR)
    sim.run()
    assert seen == [doc for i in range(5) for doc in ({"i": i}, {"j": i})]


def test_every_event_is_scheduled_through_schedule_at(monkeypatch):
    # perfbench counts schedule_at and Handle.cancel calls; with the queue
    # drained, every scheduled entry was either run or skipped as cancelled
    counts = {"scheduled": 0, "cancelled_pending": 0}
    schedule_at, cancel = Simulation.schedule_at, Handle.cancel

    def counted_schedule_at(self, *args, **kwargs):
        counts["scheduled"] += 1
        return schedule_at(self, *args, **kwargs)

    def counted_cancel(handle):
        if not handle.cancelled and handle.fn is not None:
            counts["cancelled_pending"] += 1
        cancel(handle)

    monkeypatch.setattr(Simulation, "schedule_at", counted_schedule_at)
    monkeypatch.setattr(Handle, "cancel", counted_cancel)
    sim = Simulation(3)
    rng = random.Random(3)

    def worker(n):
        for _ in range(n):
            timer = sim.schedule(rng.uniform(0.5, 2.0), lambda: None)
            fut = Future()
            sim.schedule(rng.uniform(0.0, 1.0), fut.resolve, n)
            yield gather([fut])
            if rng.random() < 0.5:
                timer.cancel()
            yield rng.uniform(0.0, 0.5)
            yield 0.0

    for n in range(1, 8):
        sim.spawn(worker(n), priority=n % 6)
    sim.run()
    assert counts["cancelled_pending"] > 0
    assert counts["scheduled"] == sim.events_processed + counts["cancelled_pending"]


def test_run_until_time_stops_clock_exactly():
    sim = Simulation(0)
    seen = []
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(5.0, seen.append, "late")
    sim.run(until=2.0)
    assert seen == ["early"]
    assert sim.now == 2.0
    sim.run()
    assert seen == ["early", "late"]


def test_run_until_sets_now_when_queue_drains_early():
    sim = Simulation(0)
    sim.schedule(1.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_future_resolve_is_idempotent():
    fut = Future()
    fut.resolve(1)
    fut.resolve(2)
    fut.reject(RuntimeError("nope"))
    assert fut.done and not fut.failed
    assert fut.result() == 1


def test_future_reject_then_resolve_keeps_failure():
    fut = Future()
    fut.reject(ValueError("boom"))
    fut.resolve("late")
    assert fut.failed
    assert isinstance(fut.exception(), ValueError)
    with pytest.raises(ValueError):
        fut.result()


def test_future_callback_after_done_fires_immediately():
    fut = Future()
    fut.resolve(7)
    seen = []
    fut.add_done_callback(lambda f: seen.append(f.result()))
    assert seen == [7]


def test_task_sleep_and_zero_delay():
    sim = Simulation(0)
    trace = []

    def gen():
        trace.append(sim.now)
        yield 2.5
        trace.append(sim.now)
        yield 0.0
        trace.append(sim.now)

    sim.spawn(gen())
    sim.run()
    assert trace == [0.0, 2.5, 2.5]


def test_task_waits_on_future_value():
    sim = Simulation(0)
    fut = Future()
    got = []

    def gen():
        value = yield fut
        got.append((sim.now, value))

    sim.spawn(gen())
    sim.schedule(4.0, fut.resolve, "ready")
    sim.run()
    assert got == [(4.0, "ready")]


def test_rejected_future_is_thrown_into_task():
    sim = Simulation(0)
    caught = []

    def gen():
        try:
            yield fut
        except RuntimeError as err:
            caught.append(str(err))

    fut = Future()
    sim.spawn(gen())
    sim.schedule(1.0, fut.reject, RuntimeError("down"))
    sim.run()
    assert caught == ["down"]


def test_task_return_value_resolves_its_future():
    sim = Simulation(0)

    def gen():
        yield 1.0
        return 42

    task = sim.spawn(gen())
    sim.run()
    assert task.future.result() == 42


def test_task_exception_ends_the_run():
    sim = Simulation(0)
    seen = []

    def gen():
        yield 1.0
        raise KeyError("lost")

    task = sim.spawn(gen())
    sim.schedule(2.0, seen.append, "after")
    with pytest.raises(KeyError):
        sim.run()
    assert (sim.now, seen, task.future.done) == (1.0, [], False)


def test_a_task_that_yields_none_parks_until_resumed():
    sim = Simulation(0)
    got = []

    def gen():
        got.append((yield))
        try:
            yield
        except KeyError as err:
            got.append(err.args)
        return "done"

    task = sim.spawn(gen())
    sim.run()
    # nothing is scheduled for a parked task: the heap drains around it
    assert (got, task.future.done) == ([], False)
    sim.schedule(2.0, task.resume, "sent")
    sim.run()
    assert (got, sim.now, task.future.done) == (["sent"], 2.0, False)
    task.resume(exc=KeyError("thrown"))
    assert got == ["sent", ("thrown",)]
    assert task.future.result() == "done"


def test_run_until_future_returns_result():
    sim = Simulation(0)

    def gen():
        yield 2.0
        return "done"

    task = sim.spawn(gen())
    assert sim.run_until(task.future) == "done"
    assert sim.now == 2.0


def test_run_until_future_raises_when_queue_drains():
    sim = Simulation(0)
    fut = Future()
    with pytest.raises(RuntimeError):
        sim.run_until(fut)


def test_run_until_future_honors_limit():
    sim = Simulation(0)
    fut = Future()

    def keep_alive():
        while True:
            yield 1.0

    sim.spawn(keep_alive())
    with pytest.raises(RequestNeverCompletes):
        sim.run_until(fut, limit=5.0)


def test_named_rng_streams_are_stable_and_independent():
    a = Simulation(99)
    b = Simulation(99)
    assert a.rng("net").random() == b.rng("net").random()
    c = Simulation(99)
    d = Simulation(100)
    assert c.rng("net").random() != d.rng("net").random()
    e = Simulation(99)
    assert e.rng("net").random() != e.rng("cloud-api").random()
    # same name returns the same stream object
    f = Simulation(1)
    assert f.rng("x") is f.rng("x")


def test_interleaving_order_is_deterministic_property():
    # schedule a random workload twice; identical execution traces
    for trial in range(10):
        seed_rng = random.Random(trial)
        plan = [(round(seed_rng.uniform(0, 50), 3), seed_rng.randrange(6), i)
                for i in range(200)]
        traces = []
        for _ in range(2):
            sim = Simulation(0)
            trace = []
            for t, prio, tag in plan:
                sim.schedule(t, trace.append, (t, prio, tag), priority=prio)
            sim.run()
            traces.append(trace)
        assert traces[0] == traces[1]
        # and the trace is sorted by (time, priority, insertion)
        assert traces[0] == sorted(traces[0], key=lambda x: (x[0], x[1]))


def test_events_processed_counts_each_event_as_it_runs():
    sim = Simulation(0)
    seen = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, lambda: seen.append(sim.events_processed))
    assert sim.run(until=10.0) == 3
    assert seen == [0, 1, 2]
    assert sim.events_processed == 3


# --- the next due event -------------------------------------------------------


def test_next_due_skips_a_cancelled_heap_top():
    sim = Simulation(0)
    sim.schedule(1.0, lambda: None).cancel()
    sim.schedule(2.0, lambda: None)
    assert sim.next_due() == 2.0


def test_next_due_is_inf_with_an_empty_heap_and_no_horizon():
    sim = Simulation(0)
    assert sim.next_due() == math.inf
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.next_due()))
    sim.run()
    assert seen == [math.inf]


def test_run_until_a_time_caps_next_due():
    sim = Simulation(0)
    seen = []
    for t in (1.0, 2.0):
        sim.schedule_at(t, lambda: seen.append(sim.next_due()))
    sim.schedule_at(5.0, lambda: None)
    sim.run(until=3.0)
    # behind the event at 2.0 only the one at 5.0 is left, past the until
    assert seen == [2.0, 3.0]


def test_run_until_a_limit_caps_next_due_and_leaves_the_clock_there():
    sim = Simulation(0)
    seen = []
    sim.schedule_at(1.0, lambda: seen.append(sim.next_due()))
    sim.schedule_at(7.0, lambda: None)
    with pytest.raises(RequestNeverCompletes, match=r"next event t=7\.0"):
        sim.run_until(Future(), limit=5.5)
    assert (seen, sim.now) == ([5.5], 5.5)
