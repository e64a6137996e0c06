"""Lateral-movement adversary model, evaluated by Monte-Carlo replay.

The attacker walks the digraph from the entry point one compromised child
per hop interval.  Movement cycles replay against the same positional
topology the deployed system uses: a cycle swaps a uniformly chosen pair in
a uniformly chosen middle layer and replaces both instances.  A reset of the
node the attacker currently holds evicts it to the entry point; a cycle that
touches its discovered frontier forces it to re-discover and restart the
in-progress hop.  Time is abstract here (no queueing, no network): what is
measured is how many hop intervals survive the churn.
"""

from __future__ import annotations

import functools
import math
import random
import statistics
from dataclasses import dataclass, field
from enum import Enum

from .errors import NoEligibleLayer
from .movement import select_transformation
from .topology import (
    MiseryDigraph,
    MiseryDigraphSpec,
    build_misery_digraph,
    next_replacement_id,
)


class Strategy(Enum):
    UNIFORM_CHILD = "uniform-child"
    DEPTH_FIRST = "depth-first"


@dataclass
class AttackerState:
    current: str
    hop_time: float
    strategy: Strategy
    knowledge: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def discover(self, digraph: MiseryDigraph) -> tuple[str, ...]:
        children = tuple(digraph.children_of(self.current))
        self.knowledge[self.current] = children
        return children

    def forget(self, nodes: tuple[str, str]) -> None:
        """Drop knowledge entries invalidated by a cycle touching nodes."""
        gone = set(nodes)
        for holder in list(self.knowledge):
            if holder in gone or gone & set(self.knowledge[holder]):
                del self.knowledge[holder]


@functools.lru_cache(maxsize=None)
def attack_digraph(d: int, k: int) -> MiseryDigraph:
    """The replay's starting digraph; immutable, so built once per shape."""
    return build_misery_digraph(MiseryDigraphSpec(d, k))


def _apply_cycle(digraph: MiseryDigraph, rng: random.Random,
                 generations: dict) -> tuple[MiseryDigraph, tuple[str, str]]:
    """One movement cycle: swap a pair, then replace both instances."""
    op = select_transformation(digraph, rng)
    out = digraph.with_positions_swapped(*op.nodes)
    for old in op.nodes:
        out = out.with_node_replaced(old, next_replacement_id(out, old, generations))
    return out, op.nodes


def simulate_one(d: int, k: int, *, hop_time: float, strategy: Strategy,
                 r: float | None, seed: int,
                 horizon: float | None = None) -> float:
    """Time for one attacker to compromise a layer-d node; inf if the
    horizon passes first.  r=None runs against a static digraph."""
    digraph = attack_digraph(d, k)
    move_rng = random.Random(f"{seed}/movement")
    attack_rng = random.Random(f"{seed}/attack")
    generations: dict = {}
    entry = digraph.root
    state = AttackerState(current=entry, hop_time=hop_time, strategy=strategy)
    if horizon is None:
        horizon = 500.0 * hop_time

    def choose() -> str:
        children = state.knowledge.get(state.current)
        if children is None:
            children = state.discover(digraph)
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
            try:
                digraph, touched = _apply_cycle(digraph, move_rng, generations)
            except NoEligibleLayer:
                continue
            state.forget(touched)
            if state.current in touched:
                # current foothold reset: back to the entry point
                state.current = entry
                goal = choose()
                hop_end = t + hop_time
            elif goal in touched:
                # the instance under attack was replaced; severance is
                # immediate, so the attacker re-chooses straight away
                goal = choose()
                hop_end = t + hop_time
            continue
        t = hop_end
        if t > horizon:
            return math.inf
        state.current = goal
        state.discover(digraph)
        if digraph.layer_of(state.current) >= digraph.d:
            return t
        goal = choose()
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
    finite = sorted(x for x in times if math.isfinite(x))
    return {
        "runs": len(times),
        "censored": len(times) - len(finite),
        "median": statistics.median(times) if times else None,
        "mean": statistics.fmean(finite) if finite else None,
        "min": finite[0] if finite else None,
        "max": finite[-1] if finite else None,
    }
