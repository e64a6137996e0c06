"""Lateral-movement adversary model, evaluated by Monte-Carlo replay.

The attacker walks the digraph from the entry point one compromised child
per hop interval.  Movement cycles replay the same switch draw the deployed
system uses (movement.draw_switch): a cycle picks a uniformly chosen pair in
a uniformly chosen middle layer, swaps it and replaces both instances.  A
reset of the node the attacker currently holds evicts it to the entry point;
a reset of the child under attack forces it to re-choose and restart the
in-progress hop.  Time is abstract here (no queueing, no network): what is
measured is how many hop intervals survive the churn.

The replay keeps positions, not node ids.  A cycle resets both nodes it
switches, so the two swapped ids die at once and every live node stays in
the slot it was created in: while a node lives, its (layer, slot) names it.
"The cycle touched my foothold" is therefore "the cycle drew my slot", and
the children of slot s are slots s*k .. s*k+k-1 of the next layer.  No
digraph is rebuilt per cycle, and no knowledge of discovered child lists is
kept: a cached list would be dropped by exactly the cycles that change it,
so it always equals this fresh lookup and draws the same attack choices.
"""

from __future__ import annotations

import functools
import math
import random
import statistics
from enum import Enum

from .errors import NoEligibleLayer
from .movement import draw_switch
from .topology import MiseryDigraph, MiseryDigraphSpec, build_misery_digraph

ENTRY = (1, 0)


class Strategy(Enum):
    UNIFORM_CHILD = "uniform-child"
    DEPTH_FIRST = "depth-first"


@functools.lru_cache(maxsize=None)
def attack_digraph(d: int, k: int) -> MiseryDigraph:
    """The digraph the replay walks, for callers that need its nodes; the
    replay itself needs only the shape.  Immutable, so built once per shape."""
    return build_misery_digraph(MiseryDigraphSpec(d, k))


def simulate_one(d: int, k: int, *, hop_time: float, strategy: Strategy,
                 r: float | None, seed: int,
                 horizon: float | None = None) -> float:
    """Time for one attacker to compromise a layer-d node; inf if the
    horizon passes first.  r=None runs against a static digraph."""
    if r is not None and not (r > 0 and math.isfinite(r)):
        raise ValueError(f"movement period r must be None or finite and > 0, "
                         f"got {r}")
    spec = MiseryDigraphSpec(d, k)
    move_rng = random.Random(f"{seed}/movement")
    attack_rng = random.Random(f"{seed}/attack")
    if horizon is None:
        horizon = 500.0 * hop_time

    def choose(position: tuple[int, int]) -> tuple[int, int]:
        layer, slot = position
        first = slot * k
        if strategy is Strategy.DEPTH_FIRST:
            return layer + 1, first
        return layer + 1, attack_rng.choice(range(first, first + k))

    t = 0.0
    current = ENTRY
    goal = choose(current)
    hop_end = t + hop_time
    next_move = r if r is not None else math.inf
    while True:
        if next_move < hop_end:
            t = next_move
            next_move += r
            if t > horizon:
                return math.inf
            try:
                layer, a, b = draw_switch(spec, move_rng)
            except NoEligibleLayer:
                continue
            touched = ((layer, a), (layer, b))
            if current in touched:
                # current foothold reset: back to the entry point
                current = ENTRY
            elif goal not in touched:
                continue
            # else the instance under attack was replaced; severance is
            # immediate, so the attacker re-chooses straight away
            goal = choose(current)
            hop_end = t + hop_time
            continue
        t = hop_end
        if t > horizon:
            return math.inf
        current = goal
        if current[0] >= d:
            return t
        goal = choose(current)
        hop_end = t + hop_time


def simulate_attacker(d: int, k: int, *, hop_time: float, strategy: Strategy,
                      r: float | None, seeds: range,
                      horizon: float | None = None) -> list[float]:
    return [simulate_one(d, k, hop_time=hop_time, strategy=strategy, r=r,
                         seed=seed, horizon=horizon) for seed in seeds]


def sign_test(greater: int, less: int) -> float:
    """Exact one-sided sign test: P(X >= greater) for X ~ Binomial(n, 1/2)
    where n = greater + less (ties already excluded)."""
    n = greater + less
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(greater, n + 1))
    return tail / 2 ** n


def summarize(times: list[float]) -> dict:
    """JSON-safe summary: a median that falls on censored runs is None."""
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
