"""Adversary walk model: hop arithmetic, churn handling, sign test."""

from __future__ import annotations

import itertools
import json
import math
import random
import statistics

import pytest

from miserysim import attacker
from miserysim.attacker import (
    Strategy,
    attack_digraph,
    simulate_attacker,
    simulate_one,
    summarize,
)
from miserysim.errors import TopologyError
from miserysim.topology import next_replacement_id
from signtest import sign_test


# --- static digraph: pure hop arithmetic ---------------------------------------

def test_static_walk_takes_depth_minus_one_hops():
    for d in (2, 3, 4, 5):
        for strategy in Strategy:
            t = simulate_one(d, 2, hop_time=1.0, strategy=strategy,
                             r=None, seed=d)
            assert t == float(d - 1)
    assert simulate_one(3, 2, hop_time=7.5, strategy=Strategy.DEPTH_FIRST,
                        r=None, seed=0) == 15.0


def test_horizon_censors_unfinished_walks():
    t = simulate_one(3, 2, hop_time=1.0, strategy=Strategy.DEPTH_FIRST,
                     r=None, seed=0, horizon=1.5)
    assert t == math.inf


def test_simulation_is_seed_deterministic():
    kwargs = dict(hop_time=2.0, strategy=Strategy.UNIFORM_CHILD, r=3.0, seed=42)
    assert simulate_one(3, 2, **kwargs) == simulate_one(3, 2, **kwargs)
    times = simulate_attacker(3, 2, hop_time=2.0,
                              strategy=Strategy.UNIFORM_CHILD, r=3.0,
                              seeds=range(40))
    assert len(set(times)) > 1


# --- the digraph-walking reference replay ------------------------------------------

def _oracle(d, k, *, hop_time, strategy, r, streams, horizon=None):
    """The replay walked on node ids: every cycle derives a new digraph by
    swapping and replacing the drawn pair, and the attacker caches each
    child list it discovers and forgets the lists a cycle touches.  It
    draws from streams["movement"] and streams["attack"] with choice and
    sample."""
    digraph = attack_digraph(d, k)
    eligible = [a for a in range(2, d + 1) if len(digraph.layer(a)) >= 2]
    move_rng, attack_rng = streams["movement"], streams["attack"]
    generations: dict = {}
    knowledge: dict[str, tuple[str, ...]] = {}
    entry = current = digraph.root
    if horizon is None:
        horizon = 500.0 * hop_time

    def discover():
        knowledge[current] = tuple(digraph.children_of(current))
        return knowledge[current]

    def forget(touched):
        gone = set(touched)
        for holder in list(knowledge):
            if holder in gone or gone & set(knowledge[holder]):
                del knowledge[holder]

    def choose():
        children = knowledge.get(current)
        if children is None:
            children = discover()
        if strategy is Strategy.DEPTH_FIRST:
            return children[0]
        return attack_rng.choice(children)

    t = 0.0
    goal = choose()
    hop_end = t + hop_time
    next_move = r if r is not None else math.inf
    while True:
        if next_move < hop_end:
            t = next_move
            next_move += r
            if t > horizon:
                return math.inf
            if not eligible:
                continue
            touched = tuple(move_rng.sample(
                digraph.layer(move_rng.choice(eligible)), 2))
            digraph = digraph.with_positions_swapped(*touched)
            for old in touched:
                digraph = digraph.with_node_replaced(
                    old, next_replacement_id(digraph, old, generations))
            forget(touched)
            if current in touched:
                current = entry
            elif goal not in touched:
                continue
            goal = choose()
            hop_end = t + hop_time
            continue
        t = hop_end
        if t > horizon:
            return math.inf
        current = goal
        discover()
        if digraph.layer_of(current) >= d:
            return t
        goal = choose()
        hop_end = t + hop_time


STREAMS = ("movement", "attack")


def _seeded_streams(seed):
    return {name: random.Random(f"{seed}/{name}") for name in STREAMS}


def _replay_recording_streams(monkeypatch, walk, **kwargs):
    """walk(**kwargs) with every random.Random it builds recorded, as a list
    of (seed string, stream) in order of construction."""
    made = []

    class Recorded(random.Random):
        def __init__(self, x):
            super().__init__(x)
            made.append((x, self))

    with monkeypatch.context() as patch:
        patch.setattr(random, "Random", Recorded)
        result = walk(**kwargs)
    return result, made


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
@pytest.mark.parametrize("r", [None, 0.2, 0.5, 3.0])
def test_replay_matches_the_digraph_walking_oracle(monkeypatch, r, strategy):
    delayed = censored = 0
    for d in range(2, 7):
        for k in range(1, 5):
            seeds = range(12) if k ** (d - 1) <= 64 else range(3)
            for seed in seeds:
                for horizon in (None, 4.0):
                    kwargs = dict(hop_time=1.0, strategy=strategy, r=r,
                                  horizon=horizon)
                    t, made = _replay_recording_streams(
                        monkeypatch, simulate_one, d=d, k=k, seed=seed, **kwargs)
                    streams = _seeded_streams(seed)
                    assert t == _oracle(d, k, streams=streams, **kwargs), \
                        (d, k, seed, horizon)
                    # the replay consumed what the oracle consumed, stream by
                    # stream, and a stream it did not seed the oracle left
                    # as seeded (k=1 still spends bits on randrange(1))
                    replayed = {x.rpartition("/")[2]: rng for x, rng in made}
                    fresh = _seeded_streams(seed)
                    for name in STREAMS:
                        state = replayed.get(name, fresh[name]).getstate()
                        assert streams[name].getstate() == state, \
                            (name, d, k, seed, horizon)
                    censored += t == math.inf
                    delayed += d - 1 < t < math.inf
    # the comparison covers censored walks and, under movement, resets of
    # the foothold or the goal, not only undisturbed walks
    assert censored
    assert delayed if r is not None else not delayed


@pytest.mark.parametrize("strategy, r, k, streams", [
    (Strategy.UNIFORM_CHILD, 0.5, 2, ("attack", "movement")),
    (Strategy.DEPTH_FIRST, 0.5, 2, ("movement",)),
    (Strategy.UNIFORM_CHILD, None, 2, ("attack",)),
    (Strategy.DEPTH_FIRST, None, 2, ()),
    (Strategy.UNIFORM_CHILD, 0.5, 1, ("attack",)),
    (Strategy.DEPTH_FIRST, 0.5, 1, ()),
], ids=["uniform-child-moving", "depth-first-moving", "uniform-child-static",
        "depth-first-static", "uniform-child-nothing-to-switch",
        "depth-first-nothing-to-switch"])
def test_a_replay_seeds_only_the_streams_it_draws_from(monkeypatch, strategy,
                                                       r, k, streams):
    # a depth-first walk draws no attack choice, and a static one, or one
    # on a shape with no layer to switch, no cycle; every string seeding is
    # a fixed cost on each walk
    seeds = range(5)
    walk = dict(hop_time=1.0, strategy=strategy, r=r, seeds=seeds)
    times, made = _replay_recording_streams(monkeypatch, simulate_attacker,
                                            d=3, k=k, **walk)
    expected = [f"{seed}/{name}" for seed in seeds for name in streams]
    assert sorted(x for x, _ in made) == sorted(expected)
    assert times == simulate_attacker(3, k, **walk)


def test_replay_builds_no_digraph(monkeypatch):
    # a digraph has sum(k**i) nodes; the replay needs only (d, k)
    walk = dict(hop_time=1.0, strategy=Strategy.UNIFORM_CHILD, r=0.5,
                seeds=range(5))
    expected = simulate_attacker(4, 3, **walk)

    def refuse(spec):
        raise AssertionError(f"the replay built the {spec} digraph")

    attack_digraph.cache_clear()
    monkeypatch.setattr(attacker, "build_misery_digraph", refuse)
    assert simulate_attacker(4, 3, **walk) == expected


def test_replay_rejects_bad_shapes():
    with pytest.raises(TopologyError, match="d must be >= 2"):
        simulate_one(1, 2, hop_time=1.0, strategy=Strategy.DEPTH_FIRST,
                     r=None, seed=0)
    with pytest.raises(TopologyError, match="k must be >= 1"):
        simulate_one(3, 0, hop_time=1.0, strategy=Strategy.DEPTH_FIRST,
                     r=None, seed=0)


@pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
def test_replay_rejects_a_period_that_is_not_positive_and_finite(r):
    # r <= 0 never moved the next cycle past the horizon, so the replay hung
    with pytest.raises(ValueError):
        simulate_one(3, 2, hop_time=1.0, strategy=Strategy.DEPTH_FIRST,
                     r=r, seed=0)


@pytest.mark.parametrize("hop_time, r", [(1.0, 1e-300), (1e20, 0.5)],
                         ids=["tiny-period", "huge-hop"])
def test_replay_rejects_a_period_the_horizon_cannot_add(hop_time, r):
    # once next_move + r == next_move below the horizon (500 hops) the walk
    # never ends
    with pytest.raises(ValueError, match="ulp"):
        attacker._checked_spec(3, 2, hop_time, r, 500.0 * hop_time, 1)
    attacker._checked_spec(3, 2, hop_time, None, 500.0 * hop_time, 1)


@pytest.mark.parametrize("r", [0.5, None], ids=["moving", "static"])
def test_replay_rejects_a_horizon_that_is_not_finite(r):
    # at a hop of 1e307 the default horizon, 500 hops, overflows to inf: a
    # static replay read as all censored, and a moving one blamed r
    with pytest.raises(ValueError, match=r"horizon must be finite, got inf "
                                         r"\(hop_time 1e\+307"):
        simulate_one(3, 2, hop_time=1e307, strategy=Strategy.DEPTH_FIRST,
                     r=r, seed=0)
    with pytest.raises(ValueError, match="horizon must be finite, got nan"):
        simulate_one(3, 2, hop_time=1.0, strategy=Strategy.DEPTH_FIRST,
                     r=r, seed=0, horizon=math.nan)


def test_replay_caps_the_movement_cycles_of_one_walk():
    # r = 1e-6 gives 5e8 cycles in a 500-hop horizon, minutes per walk
    horizon, cap = 500.0, attacker.MAX_WALK_CYCLES
    with pytest.raises(ValueError, match="movement cycles per walk, above the cap"):
        attacker._checked_spec(3, 2, 1.0, horizon / cap * 0.999, horizon, 1)
    attacker._checked_spec(3, 2, 1.0, horizon / cap * 1.001, horizon, 1)


@pytest.mark.parametrize("d, k", [(17, 2), (100_000, 2), (10**9, 1), (3, 10**9)])
def test_replay_caps_the_instances_of_a_shape(d, k):
    # counted before any layer width is, so a huge d or k costs no more
    # than a small one
    with pytest.raises(ValueError, match=r"instances \(the sum of k\*\*\(i-1\) "
                                         r"for i = 1..d\), above the cap"):
        simulate_one(d, k, hop_time=1.0, strategy=Strategy.DEPTH_FIRST,
                     r=0.5, seed=0)


def test_replay_accepts_a_shape_just_under_the_instance_cap():
    attacker._checked_spec(16, 2, 1.0, 0.5, 500.0, 1)     # 2**16 - 1 = 65,535


def test_replay_caps_the_hops_and_cycles_of_all_walks():
    # a walk counts d hops plus horizon / r cycles: 1003 at d=3, r=0.5
    horizon, cap = 500.0, attacker.MAX_REPLAY_STEPS
    walks = cap // 1003
    attacker._checked_spec(3, 2, 1.0, 0.5, horizon, walks)
    message = "hops and movement cycles per replay, above the cap"
    with pytest.raises(ValueError, match=message):
        attacker._checked_spec(3, 2, 1.0, 0.5, horizon, walks + 1)
    # a static walk counts its d hops, and the check runs before any walk
    attacker._checked_spec(3, 2, 1.0, None, horizon, cap // 3)
    with pytest.raises(ValueError, match=message):
        simulate_attacker(3, 2, hop_time=1.0, strategy=Strategy.DEPTH_FIRST,
                          r=None, seeds=range(cap // 3 + 1))


@pytest.mark.parametrize("hop_time", [0.0, -1.0, math.inf, math.nan])
def test_replay_rejects_a_hop_that_is_not_positive_and_finite(hop_time):
    # an infinite hop made the default horizon infinite too, so the walk hung;
    # the others timed it wrong (0.0 s, inf, NaN)
    walk = dict(hop_time=hop_time, strategy=Strategy.DEPTH_FIRST, r=0.5)
    with pytest.raises(ValueError):
        simulate_one(3, 2, seed=0, **walk)
    with pytest.raises(ValueError):
        simulate_attacker(3, 2, seeds=range(3), **walk)


# --- churn slows the walk -----------------------------------------------------------

def test_fast_movement_beats_static_walk():
    static = simulate_attacker(3, 2, hop_time=10.0,
                               strategy=Strategy.UNIFORM_CHILD, r=None,
                               seeds=range(120))
    moving = simulate_attacker(3, 2, hop_time=10.0,
                               strategy=Strategy.UNIFORM_CHILD, r=5.0,
                               seeds=range(120))
    assert statistics.median(static) == 20.0
    assert statistics.median(moving) > 20.0
    greater = sum(1 for a, b in zip(moving, static) if a > b)
    less = sum(1 for a, b in zip(moving, static) if a < b)
    assert sign_test(greater, less) < 0.01


# --- the sign test itself -------------------------------------------------------------

def test_sign_test_matches_exhaustive_enumeration():
    for n in (1, 4, 9):
        outcomes = list(itertools.product((0, 1), repeat=n))
        for greater in range(n + 1):
            frac = sum(1 for o in outcomes if sum(o) >= greater) / len(outcomes)
            assert math.isclose(sign_test(greater, n - greater), frac)


def test_sign_test_known_values():
    assert sign_test(0, 0) == 1.0
    assert math.isclose(sign_test(10, 0), 1 / 1024)
    assert math.isclose(sign_test(8, 2), 56 / 1024)
    assert sign_test(5, 5) > 0.5


# --- summaries ---------------------------------------------------------------------------

def test_summarize_counts_censored_runs():
    out = summarize([1.0, 3.0, math.inf, 2.0])
    assert out["runs"] == 4
    assert out["censored"] == 1
    assert out["median"] == 2.5
    assert out["mean"] == 2.0
    assert out["min"] == 1.0 and out["max"] == 3.0


def reference_summary(times: list[float]) -> dict:
    """summarize written on the statistics module: the reference it must equal."""
    finite = sorted(x for x in times if math.isfinite(x))
    median = statistics.median(times) if times else math.inf
    return {
        "runs": len(times),
        "censored": len(times) - len(finite),
        "median": median if math.isfinite(median) else None,
        "mean": statistics.fmean(finite) if finite else None,
        "min": finite[0] if finite else None,
        "max": finite[-1] if finite else None,
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10, 99, 100])
@pytest.mark.parametrize("censored", ["none", "some", "majority"])
def test_summarize_equals_the_statistics_module(n, censored):
    rng = random.Random(f"summarize/{n}/{censored}")
    for _ in range(40):
        inf = {"none": 0, "some": rng.randint(1, max(1, (n - 1) // 2)),
               "majority": rng.randint(n // 2 + 1, n)}[censored]
        # hop multiples tie as replay times do; uniform draws do not
        times = [rng.choice((rng.randint(1, 40) * 0.5, rng.uniform(0, 1e3)))
                 for _ in range(n - inf)] + [math.inf] * inf
        rng.shuffle(times)
        got, expected = summarize(times), reference_summary(times)
        assert got == expected
        assert json.dumps(got) == json.dumps(expected)


def test_summarize_empty_and_all_censored():
    empty = summarize([])
    assert empty["runs"] == 0 and empty["median"] is None
    censored = summarize([math.inf, math.inf])
    assert censored["censored"] == 2 and censored["median"] is None
    assert summarize([1.0, math.inf, math.inf])["median"] is None
    assert censored["mean"] is None and censored["min"] is None
