"""Lateral-movement adversary model, evaluated by Monte-Carlo replay.

The attacker walks the digraph from the entry point one compromised child
per hop interval.  Movement cycles replay the same switch draw the deployed
system uses (movement.switch_drawer, bound once per seed): a cycle picks a
uniformly chosen pair in a uniformly chosen middle layer, swaps it and
replaces both instances.  A reset of the node the attacker currently holds
evicts it to the entry point; a reset of the child under attack forces it
to re-choose and restart the in-progress hop.  Time is abstract here (no
queueing, no network): what is measured is how many hop intervals survive
the churn.

The replay keeps positions, not node ids.  A cycle resets both nodes it
switches, so the two swapped ids die at once and every live node stays in
the slot it was created in: while a node lives, its (layer, slot) names it.
"The cycle touched my foothold" is therefore "the cycle drew my slot", and
the children of slot s are slots s*k .. s*k+k-1 of the next layer.  No
digraph is rebuilt per cycle, and no knowledge of discovered child lists is
kept: a cached list would be dropped by exactly the cycles that change it,
so it always equals this fresh lookup and draws the same attack choices.

Each walk seeds only the streams it draws from: "{seed}/attack" for a
uniform-child walk, whose every pick is randrange(k) taken by the loop of
Random._randbelow_with_getrandbits, and "{seed}/movement" when r is set
and the shape has a layer to switch.  A depth-first walk always takes slot
s*k, and a static walk (r=None, or a shape where every cycle would be
skipped) never reaches a cycle, so the stream each skips would never be
drawn from; the streams are separate generators seeded from separate
strings, so leaving one unbuilt changes no draw of the other.
"""

from __future__ import annotations

import functools
import math
import random
from enum import Enum

from .movement import switch_drawer, switch_table
from .topology import (
    MAX_INSTANCES,
    MiseryDigraph,
    MiseryDigraphSpec,
    build_misery_digraph,
    node_count,
)

ENTRY = (1, 0)

# caps on the work a replay implies, so that every replay ends in bounded
# host time; each is over 100x what any shipped replay needs.  A walk takes
# up to d hops and may draw horizon / r movement cycles.
MAX_WALK_CYCLES = 10_000_000
MAX_REPLAY_STEPS = 200_000_000


class Strategy(Enum):
    UNIFORM_CHILD = "uniform-child"
    DEPTH_FIRST = "depth-first"


@functools.lru_cache(maxsize=None)
def attack_digraph(d: int, k: int) -> MiseryDigraph:
    """The digraph the replay walks, for callers that need its nodes; the
    replay itself needs only the shape.  Immutable, so built once per shape."""
    return build_misery_digraph(MiseryDigraphSpec(d, k))


def _checked_spec(d: int, k: int, hop_time: float, r: float | None,
                  horizon: float, walks: int) -> MiseryDigraphSpec:
    # a period or hop that is not finite and > 0 hangs the walk or times it
    # wrong, and so does a horizon that is not finite: a hop of 1e308 makes
    # the default horizon, 500 hops, inf.  An r <= ulp(horizon) / 2 can stop
    # next_move += r short of the horizon.
    if not (hop_time > 0 and math.isfinite(hop_time)):
        raise ValueError(f"hop_time must be finite and > 0, got {hop_time}")
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon} "
                         f"(hop_time {hop_time}; the default is 500 hops)")
    if r is not None and not (r > math.ulp(horizon) / 2 and math.isfinite(r)):
        raise ValueError(f"movement period r must be None or finite and "
                         f"above half an ulp of the horizon {horizon}, got {r}")
    if r is not None and horizon / r > MAX_WALK_CYCLES:
        raise ValueError(f"horizon / r = {horizon / r:.4g} movement cycles per "
                         f"walk, above the cap of {MAX_WALK_CYCLES}")
    spec = MiseryDigraphSpec(d, k)
    if node_count(d, k, MAX_INSTANCES) > MAX_INSTANCES:
        raise ValueError(f"d={d}, k={k} makes over {MAX_INSTANCES} instances "
                         f"(the sum of k**(i-1) for i = 1..d), above the cap")
    steps = walks * (d + (0 if r is None else horizon / r))
    if steps > MAX_REPLAY_STEPS:
        raise ValueError(f"{walks} seeds x (d + horizon / r) = {steps:.4g} hops "
                         f"and movement cycles per replay, above the cap of "
                         f"{MAX_REPLAY_STEPS}")
    return spec


def _walk(spec: MiseryDigraphSpec, hop_time: float, strategy: Strategy,
          r: float | None, seed: int, horizon: float) -> float:
    d, k = spec.d, spec.k
    if strategy is Strategy.DEPTH_FIRST:
        def choose(slot: int) -> int:
            """The slot of the child to attack next, one layer down."""
            return slot * k
    else:
        getrandbits = random.Random(f"{seed}/attack").getrandbits
        bits = k.bit_length()

        def choose(slot: int) -> int:
            # randrange(k), by the loop of Random._randbelow_with_getrandbits
            i = getrandbits(bits)
            while i >= k:
                i = getrandbits(bits)
            return slot * k + i

    if r is None:   # a static digraph draws no cycle
        next_move = math.inf
    else:
        draw = switch_drawer(spec, random.Random(f"{seed}/movement"))
        next_move = r

    # the foothold is (layer, slot); the goal is slot `goal` of layer + 1
    layer, slot = ENTRY
    goal = choose(slot)
    hop_end = hop_time
    while True:
        while next_move < hop_end:
            t = next_move
            next_move += r
            if t > horizon:
                return math.inf
            moved, a, b = draw()
            if moved == layer and (slot == a or slot == b):
                # current foothold reset: back to the entry point
                layer, slot = ENTRY
            elif moved != layer + 1 or (goal != a and goal != b):
                continue
            # else the instance under attack was replaced; severance is
            # immediate, so the attacker re-chooses straight away
            goal = choose(slot)
            hop_end = t + hop_time
        t = hop_end
        if t > horizon:
            return math.inf
        layer, slot = layer + 1, goal
        if layer >= d:
            return t
        goal = choose(slot)
        hop_end = t + hop_time


def simulate_one(d: int, k: int, *, hop_time: float, strategy: Strategy,
                 r: float | None, seed: int,
                 horizon: float | None = None) -> float:
    """Time for one attacker to compromise a layer-d node; inf if the
    horizon (default 500 hops) passes first.  r=None: a static digraph."""
    return simulate_attacker(d, k, hop_time=hop_time, strategy=strategy, r=r,
                             seeds=range(seed, seed + 1), horizon=horizon)[0]


def simulate_attacker(d: int, k: int, *, hop_time: float, strategy: Strategy,
                      r: float | None, seeds: range,
                      horizon: float | None = None) -> list[float]:
    """simulate_one for each seed, with the arguments checked once."""
    if horizon is None:
        horizon = 500.0 * hop_time
    spec = _checked_spec(d, k, hop_time, r, horizon, len(seeds))
    if not switch_table(spec):
        r = None    # every cycle would be skipped: the walk is a static one
    return [_walk(spec, hop_time, strategy, r, seed, horizon) for seed in seeds]


def summarize(times: list[float]) -> dict:
    """JSON-safe summary: a median that falls on censored runs is None."""
    finite = sorted(x for x in times if math.isfinite(x))
    # statistics.median and fmean's own arithmetic, without importing the
    # module: a censored walk is math.inf, so these are the times sorted
    ranked = finite + [math.inf] * (len(times) - len(finite))
    half = len(ranked) // 2
    if len(ranked) % 2:
        median = ranked[half]
    else:
        median = (ranked[half - 1] + ranked[half]) / 2 if ranked else math.inf
    return {
        "runs": len(times),
        "censored": len(times) - len(finite),
        "median": median if math.isfinite(median) else None,
        "mean": math.fsum(finite) / len(finite) if finite else None,
        "min": finite[0] if finite else None,
        "max": finite[-1] if finite else None,
    }
