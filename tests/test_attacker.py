"""Adversary walk model: hop arithmetic, churn handling, sign test."""

from __future__ import annotations

import itertools
import math
import random
import statistics

from miserysim.attacker import (
    AttackerState,
    Strategy,
    _apply_cycle,
    attack_digraph,
    sign_test,
    simulate_attacker,
    simulate_one,
    summarize,
)


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


# --- knowledge bookkeeping -------------------------------------------------------

def test_forget_drops_holders_and_stale_parents():
    state = AttackerState(current="a", hop_time=1.0,
                          strategy=Strategy.DEPTH_FIRST,
                          knowledge={"a": ("b", "c"), "b": ("x", "y"),
                                     "q": ("z",)})
    state.forget(("b", "unrelated"))
    # "b" was replaced (holder) and "a" pointed at it (stale child list)
    assert state.knowledge == {"q": ("z",)}


def test_discover_caches_children():
    digraph = attack_digraph(3, 2)
    entry = digraph.layer(1)[0]
    state = AttackerState(current=entry, hop_time=1.0,
                          strategy=Strategy.DEPTH_FIRST)
    children = state.discover(digraph)
    assert children == tuple(digraph.children_of(entry))
    assert state.knowledge[entry] == children


# --- replayed movement cycles -----------------------------------------------------

def test_cycles_preserve_shape_and_spare_edges_of_the_walk():
    digraph = attack_digraph(3, 2)
    widths = [len(digraph.layer(i)) for i in range(1, 4)]
    rng = random.Random(77)
    generations: dict = {}
    for _ in range(60):
        before = set(digraph.all_nodes())
        digraph, touched = _apply_cycle(digraph, rng, generations)
        digraph.validate()
        assert [len(digraph.layer(i)) for i in range(1, 4)] == widths
        assert digraph.layer(1) == ("web",)
        assert digraph.target == "db"
        # touched names existed beforehand and are gone afterwards
        assert set(touched) <= before
        assert not set(touched) & set(digraph.all_nodes())


def test_replacements_advance_generations():
    digraph = attack_digraph(3, 2)
    rng = random.Random(5)
    generations: dict = {}
    seen: dict[tuple, int] = {}
    for _ in range(40):
        digraph, _ = _apply_cycle(digraph, rng, generations)
    for key, gen in generations.items():
        assert gen >= 1
        assert key not in seen
        seen[key] = gen
    # ids in the digraph carry the latest generation for their slot
    checked = 0
    for layer_no in (2, 3):
        for slot, node in enumerate(digraph.layer(layer_no)):
            if node.startswith("L"):
                expected_gen = generations.get((layer_no, slot))
                if expected_gen is not None and ".g" in node:
                    assert node == f"L{layer_no}.s{slot}.g{expected_gen}"
                    checked += 1
    assert checked


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


def test_summarize_empty_and_all_censored():
    empty = summarize([])
    assert empty["runs"] == 0 and empty["median"] is None
    censored = summarize([math.inf, math.inf])
    assert censored["censored"] == 2
    assert censored["mean"] is None and censored["min"] is None
