"""Movement Manager: the periodic transformation process.

Each period r it selects one layer in 2..d and two of that layer's nodes
uniformly at random, switches their positions (parents and children exchange,
firewall rules rewritten in one transaction), resets both nodes from the warm
instance pool (same image, fresh id and disk, old instance terminated), and
then writes the changed child tables to the Address Server.  Parents keep
routing on their stale tables until their subscription callback lands, so
every cycle opens a short inconsistency window; when the cycle hits layer 2
the window takes out every path at once, which is where failed requests
cluster under load.  Layer 1 and the target are never selected.

The manager acts on a Deployment and reaches everything else through it: the
provider (and with it the run's clock, event log and counters) and the
Address Server.  Its draws come from the simulation's "movement" stream,
through one switch_drawer bound to the deployed shape; the attacker replay
draws its cycles from the same drawer.

Address pushes are not retried: every owner a cycle pushes to is registered,
and every child id stays in provider.instances, so an update cannot fail.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Callable
from dataclasses import dataclass

from .deploy import MDG_TAGS, image_for_layer
from .errors import CloudError
from .sim import Future
from .topology import (
    MiseryDigraph,
    MiseryDigraphSpec,
    inbound_rules,
    layer_sizes,
    next_replacement_id,
)


@dataclass(frozen=True)
class SwitchOp:
    layer: int
    nodes: tuple[str, str]


def rule_delta(before: MiseryDigraph, after: MiseryDigraph,
               gone: tuple[str, ...], placed: tuple[str, ...]):
    """(revoke, grant) as sorted rule lists for a transform that moved or
    removed `gone` and put `placed` in their slots.  Only the inbound rules
    of those nodes and of their children can differ."""
    def around(digraph: MiseryDigraph, nodes: tuple[str, ...]) -> set:
        return {rule for node in nodes
                for n in (node, *digraph.children_of(node))
                for rule in inbound_rules(digraph, n)}

    old, new = around(before, gone), around(after, placed)
    return sorted(old - new), sorted(new - old)


@functools.lru_cache(maxsize=None)
def switch_table(spec: MiseryDigraphSpec) -> tuple[tuple[int, ...], ...]:
    """(layer, width, width's bit length, width - 1's bit length) for each
    middle layer with two or more nodes, the layers a cycle can switch in."""
    sizes = layer_sizes(spec)
    return tuple((a, w, w.bit_length(), (w - 1).bit_length())
                 for a, w in enumerate(sizes[1:], 2) if w >= 2)


def switch_drawer(spec: MiseryDigraphSpec,
                  rng: random.Random) -> Callable[[], tuple[int, int, int]] | None:
    """A draw() of (layer, slot_a, slot_b): a uniform layer among the middle
    layers with two or more nodes, then a uniform pair of distinct slots in
    that layer.  The live cycle and the attacker replay both draw here; the
    shape's layer table is built once per shape.

    Each draw takes from rng exactly what rng.choice(layers) followed by
    rng.sample(range(width), 2) takes, and returns the same values: all of
    them draw through _randbelow(n), as randrange(n) does, and each index
    here is taken with the loop of CPython's
    Random._randbelow_with_getrandbits, inlined: getrandbits(n.bit_length())
    until the value is below n.  sample picks by index, so the pair is also
    the one that sampling the layer's node tuple gives.
    test_movement.test_switch_drawer_draws_as_choice_then_sample pins the
    values and the generator state left behind, and
    test_attacker.test_replay_matches_the_digraph_walking_oracle pins both
    against a replay that calls choice and sample itself.  A shape without
    such a layer has nothing to draw: its drawer is None."""
    table = switch_table(spec)
    if not table:
        return None
    n = len(table)
    n_bits = n.bit_length()
    getrandbits = rng.getrandbits

    def draw() -> tuple[int, int, int]:
        i = getrandbits(n_bits)
        while i >= n:
            i = getrandbits(n_bits)
        layer, width, bits, pool_bits = table[i]
        a = getrandbits(bits)
        while a >= width:
            a = getrandbits(bits)
        if width <= 21:
            # sample's pool branch: the last slot fills the drawn one's place
            b = getrandbits(pool_bits)
            while b >= width - 1:
                b = getrandbits(pool_bits)
            if b == a:
                b = width - 1
        else:
            # sample's set branch: redraw until the slot is a new one
            b = a
            while b == a:
                b = getrandbits(bits)
                while b >= width:
                    b = getrandbits(bits)
        return layer, a, b

    return draw


def switch_op(digraph: MiseryDigraph, layer: int, a: int, b: int) -> SwitchOp:
    """A drawn switch, with its slots named by the nodes now in them."""
    row = digraph.layer(layer)
    return SwitchOp(layer, (row[a], row[b]))


class MovementManager:
    """Single writer for topology mutations: one task runs the cycles one
    after another, so they never overlap."""

    def __init__(self, deployment, r: float):
        # a NaN or infinite period would silently run no cycle at all
        if not (r > 0 and math.isfinite(r)):
            raise ValueError(f"period r must be finite and > 0, got {r}")
        provider = deployment.provider
        self.sim = provider.sim
        self.provider = provider
        self.addresses = deployment.addresses
        self.deployment = deployment
        self.r = r
        self.log = provider.log
        self.counters = provider.counters
        # the shape never changes, so one drawer serves every cycle; None
        # when no layer can switch, and then every cycle is skipped
        self._draw = switch_drawer(deployment.digraph.spec,
                                   self.sim.rng("movement"))
        self._generation: dict[tuple[int, int], int] = {}
        self.cycle_no = 0
        # resolved whenever no cycle is running
        self.settled = Future()
        self.settled.resolve()

    # -- scheduling --------------------------------------------------------

    def start(self, epoch: float, j: float) -> None:
        """Run a cycle every r on the virtual clock until epoch + j."""
        self.sim.spawn(self._loop(epoch, j))

    def _loop(self, epoch: float, j: float):
        horizon = epoch + j
        next_t = epoch + self.r
        while next_t <= horizon + 1e-9:
            delay = next_t - self.sim.now
            if delay > 0:
                yield delay
            self.settled = Future()
            yield from self._cycle()
            self.settled.resolve()
            next_t = max(next_t + self.r, self.sim.now)

    # -- the cycle -----------------------------------------------------------

    def _cycle(self):
        self.cycle_no += 1
        cycle = self.cycle_no
        if self._draw is None:
            self.counters["skipped_cycles"] += 1
            return
        digraph = self.deployment.digraph
        op = switch_op(digraph, *self._draw())
        # Don't start a switch the pool cannot finish: a reset stalled on
        # provisioning would leave the switched layer routing nowhere for the
        # whole provisioning latency.
        image = image_for_layer(digraph, op.layer)
        pool = self.provider.pool
        if pool is not None and pool.s > 0 and pool.ready_count(image) < 2:
            self.counters["skipped_pool_short"] += 1
            self.log.emit(self.sim.now, "movement.skip", instance=None,
                          detail={"cycle": cycle, "layer": op.layer,
                                  "image": image.value})
            return
        started = self.sim.now
        try:
            yield from self._execute_switch(cycle, op)
            new_ids = []
            for old in op.nodes:
                new_ids.append((yield from self._execute_reset(old)))
            versions = yield from self._propagate(op.layer, new_ids)
        except CloudError as err:
            # Abort cleanly; deployment.digraph always reflects applied steps,
            # so the next cycle starts from a consistent state.
            self.counters["aborted_cycles"] += 1
            self.log.emit(self.sim.now, "movement.abort", instance=None,
                          detail={"cycle": cycle, "error": str(err)})
            self._repair_layer_tables(op.layer)
            return
        for old, new in zip(op.nodes, new_ids):
            self._emit(cycle, "reset", op.layer, [old], [new], versions)
        self.counters["transformations"] += 1
        self.log.emit(self.sim.now, "movement.window", instance=None,
                      detail={"cycle": cycle, "layer": op.layer,
                              "t0": started,
                              "t1": self.sim.now + self.addresses.notify_bound,
                              "nodes": list(op.nodes), "new_ids": new_ids})

    def _emit(self, cycle: int, op: str, layer: int, nodes: list[str],
              new_ids: list[str], versions: dict[str, int]) -> None:
        """One "movement" record per switch and per reset."""
        self.log.emit(self.sim.now, "movement", instance=None, cycle=cycle,
                      op=op, layer=layer, nodes=nodes, new_ids=new_ids,
                      versions=dict(versions))

    def _execute_switch(self, cycle: int, op: SwitchOp):
        digraph = self.deployment.digraph
        u, v = op.nodes
        swapped = digraph.with_positions_swapped(u, v)
        yield self.provider.api_latency()
        revoke, grant = rule_delta(digraph, swapped, op.nodes, op.nodes)
        self.provider.rewrite_rules(revoke, grant)
        self.deployment.digraph = swapped
        self._emit(cycle, "switch", op.layer, [u, v], [], {})

    def _execute_reset(self, old: str):
        """Replace one node with a pool instance at its current position."""
        digraph = self.deployment.digraph
        instance = yield self.provider.pool.allocate(
            image_for_layer(digraph, digraph.layer_of(old)))
        yield self.provider.api_latency()
        new_id = next_replacement_id(digraph, old, self._generation)
        self.provider.adopt_instance(
            instance.id, new_id,
            tags={"role": digraph.role_of(old), **MDG_TAGS})
        replaced = digraph.with_node_replaced(old, new_id)
        revoke, grant = rule_delta(digraph, replaced, (old,), (new_id,))
        self.provider.rewrite_rules(revoke, grant)
        self.deployment.digraph = replaced
        self.deployment.attach_node(new_id)
        yield self.provider.api_latency()
        self.provider.terminate_instance(old)
        self.deployment.detach_node(old)
        self.addresses.remove(old)
        self.counters["resets"] += 1
        return new_id

    def _propagate(self, layer: int, new_ids: list[str]):
        """Push the changed child tables: the distinct parents of the replaced
        nodes, plus the target's layer-d endpoint list when layer == d."""
        digraph = self.deployment.digraph
        owners = []
        for new in new_ids:
            parent = digraph.parent_of(new)
            if parent is not None and parent not in owners:
                owners.append(parent)
        if layer == digraph.d:
            owners.append(digraph.target)
        yield self.provider.api_latency()
        return {owner: self._update_owner(owner) for owner in owners}

    def _update_owner(self, owner: str) -> int:
        return self.addresses.update(owner, self.deployment.child_entries(owner)).version

    def _repair_layer_tables(self, layer: int) -> None:
        """After an abort, whatever steps did apply are already in
        deployment.digraph; re-deriving the tables around the touched layer puts routing
        back in step with the rules instead of waiting for a later cycle to
        happen to hit the same nodes.  A switch changes the parents' child
        assignment and the swapped nodes' own children; an aborted reset
        leaves the swapped nodes running their old runtimes, so both layers
        need a push."""
        digraph = self.deployment.digraph
        below = digraph.layer(layer) if layer < digraph.d else (digraph.target,)
        for owner in digraph.layer(layer - 1) + below:
            self._update_owner(owner)
