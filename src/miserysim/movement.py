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
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass

from .deploy import MDG_TAGS, image_for_layer
from .errors import CloudError, NoEligibleLayer, UnknownOwner
from .sim import PRIO_CONTROL
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


def switch_drawer(spec: MiseryDigraphSpec,
                  rng: random.Random) -> Callable[[], tuple[int, int, int]]:
    """A draw() of (layer, slot_a, slot_b): a uniform layer among the middle
    layers with two or more nodes, then a uniform pair of distinct slots in
    that layer.  The live cycle and the attacker replay both draw here; the
    shape's layer table is built once, with the drawer.

    Each draw takes from rng exactly what rng.choice(layers) followed by
    rng.sample(range(width), 2) takes, and returns the same values: all of
    them draw through _randbelow(n), as randrange(n) does.  sample picks by
    index, so the pair is also the one that sampling the layer's node tuple
    gives.  For a shape without such a layer every draw raises
    NoEligibleLayer, so each cycle can be counted as skipped."""
    sizes = layer_sizes(spec)
    table = tuple((a, sizes[a - 1]) for a in range(2, spec.d + 1)
                  if sizes[a - 1] >= 2)
    n = len(table)
    randrange = rng.randrange

    def draw() -> tuple[int, int, int]:
        if not n:
            raise NoEligibleLayer(
                f"no layer in 2..{spec.d} has two nodes (k={spec.k})")
        layer, width = table[randrange(n)]
        a = randrange(width)
        if width <= 21:
            # sample's pool branch: the last slot fills the drawn one's place
            b = randrange(width - 1)
            if b == a:
                b = width - 1
        else:
            # sample's set branch: redraw until the slot is a new one
            b = randrange(width)
            while b == a:
                b = randrange(width)
        return layer, a, b

    return draw


def switch_op(digraph: MiseryDigraph, layer: int, a: int, b: int) -> SwitchOp:
    """A drawn switch, with its slots named by the nodes now in them."""
    row = digraph.layer(layer)
    return SwitchOp(layer, (row[a], row[b]))


def select_transformation(digraph: MiseryDigraph, rng: random.Random) -> SwitchOp:
    """One switch draw from rng on the digraph's shape."""
    return switch_op(digraph, *switch_drawer(digraph.spec, rng)())


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
        # the shape never changes, so one drawer serves every cycle
        self._draw = switch_drawer(deployment.digraph.spec,
                                   self.sim.rng("movement"))
        self._generation: dict[tuple[int, int], int] = {}
        self._retry_owners: set[str] = set()
        self.cycle_no = 0

    # -- scheduling --------------------------------------------------------

    def start(self, epoch: float, j: float) -> None:
        """Run a cycle every r on the virtual clock until epoch + j."""
        self.sim.spawn(self._loop(epoch, j), priority=PRIO_CONTROL)

    def _loop(self, epoch: float, j: float):
        horizon = epoch + j
        next_t = epoch + self.r
        while next_t <= horizon + 1e-9:
            delay = next_t - self.sim.now
            if delay > 0:
                yield delay
            yield from self._cycle()
            next_t = max(next_t + self.r, self.sim.now)

    def trigger(self):
        """Run one cycle immediately; returns the task future (for tests)."""
        return self.sim.spawn(self._cycle(), priority=PRIO_CONTROL).future

    # -- the cycle -----------------------------------------------------------

    def _cycle(self):
        self.cycle_no += 1
        cycle = self.cycle_no
        self._flush_retries()
        digraph = self.deployment.digraph
        try:
            op = switch_op(digraph, *self._draw())
        except NoEligibleLayer:
            self.counters["skipped_cycles"] += 1
            return
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
                          detail={"cycle": cycle, "error": type(err).__name__})
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
        yield self.provider.api_latency()
        versions: dict[str, int] = {}
        for owner in owners:
            version = self._update_owner(owner)
            if version is not None:
                versions[owner] = version
        if layer == digraph.d:
            version = self._update_owner(digraph.target)
            if version is not None:
                versions[digraph.target] = version
        return versions

    def _update_owner(self, owner: str) -> int | None:
        try:
            record = self.addresses.update(owner, self.deployment.child_entries(owner))
        except (UnknownOwner, CloudError):
            self._retry_owners.add(owner)
            self.counters["propagation_retries"] += 1
            return None
        return record.version

    def _repair_layer_tables(self, layer: int) -> None:
        """After an abort, whatever steps did apply are already in
        deployment.digraph; re-deriving the tables around the touched layer puts routing
        back in step with the rules instead of waiting for a later cycle to
        happen to hit the same nodes.  A switch changes the parents' child
        assignment and the swapped nodes' own children; an aborted reset
        leaves the swapped nodes running their old runtimes, so both layers
        need a push."""
        digraph = self.deployment.digraph
        for owner in digraph.layer(layer - 1):
            self._update_owner(owner)
        if layer < digraph.d:
            for owner in digraph.layer(layer):
                self._update_owner(owner)
        else:
            self._update_owner(digraph.target)

    def _flush_retries(self) -> None:
        retries, self._retry_owners = self._retry_owners, set()
        digraph = self.deployment.digraph
        known = set(digraph.all_nodes())
        for owner in sorted(retries):
            if owner in known:
                self._update_owner(owner)
