"""Graph-theoretic core: connectivity digraphs, misery digraphs, firewall rules.

Everything in this module is a pure function over immutable values.  The live
topology cell owned by the movement manager holds a MiseryDigraph and replaces
it wholesale on every transformation; nothing here mutates in place.

A misery digraph is stored positionally: layer i (1-based, i = 1..d) is a
tuple of node ids, and the parent/child edges are implied by slot arithmetic
(slot g of layer i+1 hangs under slot g // k of layer i, per tree).  The
target sits alone past layer d with no inbound edges at all.  Storing
positions instead of an edge list makes switches (position exchanges) and
resets (id substitutions) trivial and keeps the k-ary shape true by
construction.
"""

from __future__ import annotations

import functools
import logging
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import (
    DisconnectedPath,
    IncompatibleSpecs,
    InvalidSpec,
    LayerConflict,
    NoEntryPoint,
    NoTaggedInstances,
    NoTarget,
    TopologyError,
    UnknownNode,
)

logger = logging.getLogger(__name__)

PUBLIC_INTERNET = "public-internet"

ROLE_ENTRY = "entry-point"
ROLE_INTERMEDIATE = "intermediate"
ROLE_TARGET = "target"

ROLE_MULTICASTER = "multicaster"
ROLE_REQUESTS_SERVER = "requests-server"


@dataclass(frozen=True, order=True)
class ServiceKind:
    """A network service as (name, port); (name, port) unique per network."""

    name: str
    port: int

    def __post_init__(self) -> None:
        if not (1 <= self.port <= 65535):
            raise TopologyError(f"port {self.port} out of range for {self.name!r}")

    def to_dict(self) -> dict:
        return {"name": self.name, "port": self.port}

    @classmethod
    def from_dict(cls, d: Mapping) -> "ServiceKind":
        return cls(str(d["name"]), int(d["port"]))


# Well-known port names used when a rule document does not name its service.
_PORT_NAMES = {21: "ftp", 22: "ssh", 80: "http", 443: "https", 3306: "db"}


def service_for_port(port: int, name: str | None = None) -> ServiceKind:
    return ServiceKind(name or _PORT_NAMES.get(port, f"port-{port}"), port)


@dataclass(frozen=True)
class ConnectivityDigraph:
    """Permitted-flow graph: edge (u, v, s) means u may reach v on service s.

    `roles` maps every node id to entry-point | intermediate | target.
    Service-restricted subgraphs produced by split_by_service may lack an
    entry point; full digraphs (extract_connectivity output) always satisfy
    validate().
    """

    roles: tuple[tuple[str, str], ...]          # (node id, role), sorted by id
    edges: frozenset[tuple[str, str, ServiceKind]]

    def __post_init__(self) -> None:
        ids = [n for n, _ in self.roles]
        if len(ids) != len(set(ids)):
            raise TopologyError("duplicate node ids")
        known = {ROLE_ENTRY, ROLE_INTERMEDIATE, ROLE_TARGET}
        for n, role in self.roles:
            if role not in known:
                raise TopologyError(f"unknown role {role!r} for {n!r}")
        nodes = set(ids)
        for src, dst, _ in self.edges:
            if src == dst:
                raise TopologyError(f"self-loop at {src!r}")
            if src not in nodes or dst not in nodes:
                raise TopologyError(f"edge ({src!r}, {dst!r}) references unknown node")

    @classmethod
    def build(cls, roles: Mapping[str, str],
              edges: Iterable[tuple[str, str, ServiceKind]]) -> "ConnectivityDigraph":
        return cls(tuple(sorted(roles.items())), frozenset(edges))

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.roles)

    def role_of(self, node: str) -> str:
        for n, role in self.roles:
            if n == node:
                return role
        raise UnknownNode(node)

    @property
    def entry_points(self) -> tuple[str, ...]:
        return tuple(n for n, role in self.roles if role == ROLE_ENTRY)

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple(n for n, role in self.roles if role == ROLE_TARGET)

    @property
    def target(self) -> str:
        targets = self.targets
        if not targets:
            raise NoTarget("no node has the target role")
        if len(targets) > 1:
            raise TopologyError(f"multiple targets: {targets}")
        return targets[0]

    def services(self) -> tuple[ServiceKind, ...]:
        return tuple(sorted({s for _, _, s in self.edges}))

    def out_edges(self, node: str) -> list[tuple[str, str, ServiceKind]]:
        return sorted(e for e in self.edges if e[0] == node)

    def in_edges(self, node: str) -> list[tuple[str, str, ServiceKind]]:
        return sorted(e for e in self.edges if e[1] == node)

    def validate(self) -> None:
        """Full-digraph invariants: >=1 entry, exactly 1 target, reachability."""
        if not self.entry_points:
            raise NoEntryPoint("no node has the entry-point role")
        target = self.target
        adjacency: dict[str, set[str]] = {}
        for src, dst, _ in self.edges:
            adjacency.setdefault(src, set()).add(dst)
        for entry in self.entry_points:
            seen = {entry}
            frontier = [entry]
            while frontier:
                node = frontier.pop()
                for nxt in adjacency.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            if target not in seen:
                raise DisconnectedPath(f"target {target!r} unreachable from {entry!r}")


@dataclass(frozen=True)
class MiseryDigraphSpec:
    """Shape parameters: d = last pre-target layer index, k = branching factor."""

    d: int
    k: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise InvalidSpec(f"d must be >= 2, got {self.d}")
        if self.k < 1:
            raise InvalidSpec(f"k must be >= 1, got {self.k}")

    def layer_width(self, layer: int) -> int:
        """Nodes per tree at a 1-based layer in 1..d."""
        if not 1 <= layer <= self.d:
            raise InvalidSpec(f"layer {layer} outside 1..{self.d}")
        return self.k ** (layer - 1)

    @property
    def non_target_count(self) -> int:
        """Per-tree node count over layers 1..d (closed form from the k-ary sum)."""
        if self.k == 1:
            return self.d
        return (self.k ** self.d - 1) // (self.k - 1)


@functools.lru_cache(maxsize=None)
def layer_sizes(spec: MiseryDigraphSpec, n_roots: int) -> tuple[int, ...]:
    """Node count of layers 1..d in a forest of n_roots trees."""
    return tuple(n_roots * spec.layer_width(i) for i in range(1, spec.d + 1))


@dataclass(frozen=True, eq=False)
class MiseryDigraph:
    """A layered k-ary deception digraph (possibly a forest) plus its target.

    layers[i] holds layer i+1 left to right; with n roots, layer i is the
    concatenation of n blocks of k^(i-1) slots, one block per tree.  The
    target is not part of any layer tuple and has no parent edges (Isolated
    Target).  tree_services maps each root id to the service set riding every
    edge of its tree; poll_services are the services the target uses to poll
    layer d.
    """

    spec: MiseryDigraphSpec
    layers: tuple[tuple[str, ...], ...]
    target: str
    tree_services: tuple[tuple[str, tuple[ServiceKind, ...]], ...]
    poll_services: tuple[ServiceKind, ...]
    enabled_leaf: str
    _slots: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        for layer_idx, layer in enumerate(self.layers, start=1):
            for slot, node in enumerate(layer):
                if node in self._slots:
                    raise TopologyError(f"duplicate node id {node!r}")
                self._slots[node] = (layer_idx, slot)
        if self.target in self._slots:
            raise TopologyError("target also occurs in a layer")
        self.validate()

    # -- shape ---------------------------------------------------------------

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def roots(self) -> tuple[str, ...]:
        return self.layers[0]

    @property
    def n_roots(self) -> int:
        return len(self.layers[0])

    def layer(self, i: int) -> tuple[str, ...]:
        if not 1 <= i <= self.d:
            raise UnknownNode(f"layer {i} outside 1..{self.d}")
        return self.layers[i - 1]

    def all_nodes(self) -> list[str]:
        out = [n for layer in self.layers for n in layer]
        out.append(self.target)
        return out

    def position(self, node: str) -> tuple[int, int]:
        """(layer, slot) of a non-target node."""
        try:
            return self._slots[node]
        except KeyError:
            raise UnknownNode(node) from None

    def layer_of(self, node: str) -> int:
        if node == self.target:
            return self.d + 1
        return self.position(node)[0]

    def parent_of(self, node: str) -> str | None:
        layer, slot = self.position(node)
        if layer == 1:
            return None
        k = self.k
        width = self.spec.layer_width(layer)
        tree, offset = divmod(slot, width)
        parent_width = self.spec.layer_width(layer - 1)
        return self.layers[layer - 2][tree * parent_width + offset // k]

    def children_of(self, node: str) -> tuple[str, ...]:
        layer, slot = self.position(node)
        if layer == self.d:
            return ()
        k = self.k
        width = self.spec.layer_width(layer)
        tree, offset = divmod(slot, width)
        child_width = self.spec.layer_width(layer + 1)
        base = tree * child_width + offset * k
        return self.layers[layer][base:base + k]

    def role_of(self, node: str) -> str:
        layer = self.layer_of(node)
        if layer == self.d + 1:
            return ROLE_TARGET
        if layer == 1:
            return ROLE_ENTRY
        if layer == self.d:
            return ROLE_REQUESTS_SERVER
        return ROLE_MULTICASTER

    def tree_of(self, node: str) -> int:
        layer, slot = self.position(node)
        return slot // self.spec.layer_width(layer)

    def services_of_tree(self, tree: int) -> tuple[ServiceKind, ...]:
        return self.tree_services[tree][1]

    def edges(self) -> list[tuple[str, str, tuple[ServiceKind, ...]]]:
        """All parent->child edges with their service labels, layer by layer."""
        out = []
        for layer_idx in range(1, self.d):
            for node in self.layers[layer_idx - 1]:
                tree = self.tree_of(node)
                services = self.services_of_tree(tree)
                for child in self.children_of(node):
                    out.append((node, child, services))
        return out

    def validate(self) -> None:
        """Shape invariants in O(d); the ids were indexed once, in _slots."""
        layers, d = self.layers, self.spec.d
        n = len(layers[0])
        if n < 1:
            raise TopologyError("no roots")
        if len(layers) != d:
            raise TopologyError(f"expected {d} layers, found {len(layers)}")
        for i, (layer, expect) in enumerate(zip(layers, layer_sizes(self.spec, n)), 1):
            if len(layer) != expect:
                raise TopologyError(
                    f"layer {i} has {len(layer)} nodes, expected {expect}")
        # services_of_tree indexes tree_services by tree number, so they
        # must name layer 1's roots in order
        if tuple(root for root, _ in self.tree_services) != layers[0]:
            raise TopologyError("tree_services do not match roots")
        leaf = self._slots.get(self.enabled_leaf)
        if leaf is None or leaf[0] != d:
            raise TopologyError(f"enabled leaf {self.enabled_leaf!r} not in layer d")

    # -- transforms ----------------------------------------------------------

    def with_positions_swapped(self, u: str, v: str) -> "MiseryDigraph":
        """Exchange the positions of u and v (same layer, 2..d): parents and
        children swap with the positions; each node's own subtree stays put."""
        lu, su = self.position(u)
        lv, sv = self.position(v)
        if u == v:
            raise TopologyError("cannot switch a node with itself")
        if lu != lv:
            raise LayerConflict(f"{u!r} at layer {lu}, {v!r} at layer {lv}")
        if not 2 <= lu <= self.d:
            raise TopologyError(f"layer {lu} excluded from switching")
        return self._derive(lu, {su: v, sv: u}, self.enabled_leaf)

    def with_node_replaced(self, old: str, new: str) -> "MiseryDigraph":
        """Substitute a fresh id at old's position; designation follows."""
        layer, slot = self.position(old)
        if layer == 1:
            raise TopologyError("entry points are never replaced")
        if new in self._slots or new == self.target:
            raise TopologyError(f"replacement id {new!r} already present")
        enabled = new if self.enabled_leaf == old else self.enabled_leaf
        return self._derive(layer, {slot: new}, enabled, gone=old)

    def _derive(self, layer: int, placed: dict[int, str], enabled_leaf: str,
                gone: str | None = None) -> "MiseryDigraph":
        """A copy with `placed` (slot -> node) written into one layer and
        `gone` dropped.  Only the changed slots are re-indexed, on a copy of
        _slots, because digraphs are shared and the parent must not change.
        Callers have ruled out duplicate ids, so the result is valid by
        construction; validate() re-checks the shape in O(d)."""
        row = list(self.layers[layer - 1])
        slots = self._slots.copy()
        if gone is not None:
            del slots[gone]
        for slot, node in placed.items():
            row[slot] = node
            slots[node] = (layer, slot)
        out = object.__new__(MiseryDigraph)
        out.__dict__.update(
            spec=self.spec,
            layers=self.layers[:layer - 1] + (tuple(row),) + self.layers[layer:],
            target=self.target, tree_services=self.tree_services,
            poll_services=self.poll_services, enabled_leaf=enabled_leaf,
            _slots=slots)
        out.validate()
        return out

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "spec": {"d": self.d, "k": self.k},
            "layers": [list(layer) for layer in self.layers],
            "target": self.target,
            "roles": {n: self.role_of(n) for n in self.all_nodes()},
            "edges": [
                {"src": src, "dst": dst, "services": [s.to_dict() for s in services]}
                for src, dst, services in self.edges()
            ],
            "tree_services": {
                root: [s.to_dict() for s in services]
                for root, services in self.tree_services
            },
            "poll_services": [s.to_dict() for s in self.poll_services],
            "enabled_leaf": self.enabled_leaf,
            "enabled_path": enabled_path(self),
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "MiseryDigraph":
        spec = MiseryDigraphSpec(int(doc["spec"]["d"]), int(doc["spec"]["k"]))
        layers = tuple(tuple(layer) for layer in doc["layers"])
        tree_services = tuple(
            (root, tuple(ServiceKind.from_dict(s) for s in services))
            for root, services in doc["tree_services"].items()
        )
        poll = tuple(ServiceKind.from_dict(s) for s in doc["poll_services"])
        return cls(spec, layers, doc["target"], tree_services, poll,
                   doc["enabled_leaf"])

    def to_dot(self) -> str:
        lines = ["digraph misery {", "  rankdir=TB;"]
        for node in self.all_nodes():
            role = self.role_of(node)
            shape = {"entry-point": "invhouse", "target": "doubleoctagon",
                     "requests-server": "box"}.get(role, "ellipse")
            lines.append(f'  "{node}" [shape={shape} label="{node}\\n{role}"];')
        for src, dst, services in self.edges():
            label = ",".join(f"{s.name}:{s.port}" for s in services)
            lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        for leaf in self.layers[-1]:
            label = ",".join(f"{s.name}:{s.port}" for s in self.poll_services)
            lines.append(f'  "{self.target}" -> "{leaf}" [style=dashed label="poll {label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FirewallRule:
    """One inbound permission: src may initiate a connection to dst on port."""

    src: str
    dst: str
    port: int
    direction: str = "inbound"

    def to_dict(self) -> dict:
        return {"src": self.src, "dst": self.dst, "port": self.port,
                "direction": self.direction}


@dataclass(frozen=True)
class FirewallRuleSet:
    rules: frozenset[FirewallRule]

    def __iter__(self):
        return iter(sorted(self.rules, key=lambda r: (r.src, r.dst, r.port)))

    def __len__(self) -> int:
        return len(self.rules)

    def permits(self, src: str, dst: str, port: int) -> bool:
        return FirewallRule(src, dst, port) in self.rules


# --- operations ---------------------------------------------------------


def extract_connectivity(snapshot, tag: tuple[str, str]) -> ConnectivityDigraph:
    """Filter a provider snapshot (or parsed network description) by tag and
    derive the permitted-flow digraph from its security-group rules.

    `snapshot` needs `.instances` (each with .id and .tags) and `.rules`
    (each with .src, .dst, .port, optional .service name).  Role marking
    comes from the instance tag "role" (entry-point | target); everything
    else tagged is an intermediate.
    """
    key, value = tag
    tagged = [inst for inst in snapshot.instances if inst.tags.get(key) == value]
    if not tagged:
        raise NoTaggedInstances(f"no instance tagged {key}={value}")
    roles = {}
    for inst in tagged:
        role = inst.tags.get("role", ROLE_INTERMEDIATE)
        if role not in (ROLE_ENTRY, ROLE_TARGET):
            role = ROLE_INTERMEDIATE
        roles[inst.id] = role
    if ROLE_TARGET not in roles.values():
        raise NoTarget(f"no instance tagged {key}={value} is marked as target")
    if ROLE_ENTRY not in roles.values():
        raise NoEntryPoint(f"no instance tagged {key}={value} is marked as entry-point")
    edges = set()
    for rule in snapshot.rules:
        if rule.src in roles and rule.dst in roles:
            name = getattr(rule, "service", None)
            edges.add((rule.src, rule.dst, service_for_port(rule.port, name)))
    return ConnectivityDigraph.build(roles, edges)


def split_by_service(conn: ConnectivityDigraph) -> list[ConnectivityDigraph]:
    """Partition into one digraph per ServiceKind (edges disjoint, covering)."""
    if not conn.roles:
        raise TopologyError("empty digraph")
    out = []
    for service in conn.services():
        edges = {e for e in conn.edges if e[2] == service}
        touched = {n for src, dst, _ in edges for n in (src, dst)}
        roles = {n: role for n, role in conn.roles if n in touched}
        out.append(ConnectivityDigraph.build(roles, edges))
    return out


def _decoy_id(tree_prefix: str, layer: int, slot: int, generation: int = 0) -> str:
    return f"{tree_prefix}L{layer}.s{slot}.g{generation}"


def replacement_id(layer: int, slot: int, generation: int, tree_prefix: str = "") -> str:
    """Positional id for a reset replacement (generation >= 1)."""
    return _decoy_id(tree_prefix, layer, slot, generation)


def next_replacement_id(digraph: MiseryDigraph, node: str,
                        generations: dict[tuple[int, int, int], int]) -> str:
    """Fresh id for a reset of `node` at its current position.  Bumps the
    generation of its (tree, layer, offset-in-tree) in `generations`; in a
    forest the id carries the tree's root as a prefix."""
    layer, slot = digraph.position(node)
    tree, offset = divmod(slot, digraph.spec.layer_width(layer))
    key = (tree, layer, offset)
    generations[key] = generations.get(key, 0) + 1
    prefix = f"{digraph.roots[tree]}~" if digraph.n_roots > 1 else ""
    return replacement_id(layer, offset, generations[key], prefix)


def build_misery_digraph(conn: ConnectivityDigraph,
                         spec: MiseryDigraphSpec) -> MiseryDigraph:
    """Expand an attack path into a full k-ary misery digraph (one tree per
    entry point, all sharing the single target).

    Per tree: the root is the entry point; the first original intermediate on
    the path is absorbed at layer-d slot 0 (it carries the application logic);
    any further original intermediates are discarded with a warning; every
    other non-root, non-target slot is filled with a fresh decoy.  Transport
    services are the entry's own outbound services and ride every tree edge;
    poll services are the target's inbound services.
    """
    conn.validate()
    entries = conn.entry_points
    target = conn.target
    adjacency: dict[str, list[str]] = {}
    for src, dst, _ in sorted(conn.edges):
        adjacency.setdefault(src, [])
        if dst not in adjacency[src]:
            adjacency[src].append(dst)

    poll_services = tuple(sorted({s for _, _, s in conn.in_edges(target)}))
    if not poll_services:
        raise DisconnectedPath(f"target {target!r} has no inbound service")

    multi = len(entries) > 1
    tree_services: list[tuple[str, tuple[ServiceKind, ...]]] = []
    absorbed: list[str | None] = []
    for entry in entries:
        transport = tuple(sorted({s for _, _, s in conn.out_edges(entry)}))
        if not transport:
            raise DisconnectedPath(f"entry {entry!r} has no outbound service")
        tree_services.append((entry, transport))
        # BFS for the original path's intermediates, in discovery order.
        order, seen, frontier = [], {entry}, [entry]
        while frontier:
            node = frontier.pop(0)
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    if nxt != target:
                        order.append(nxt)
                        frontier.append(nxt)
        absorbed.append(order[0] if order else None)
        if len(order) > 1:
            logger.warning("discarding %d original intermediate(s) beyond %r: %s",
                           len(order) - 1, order[0], order[1:])

    layers: list[tuple[str, ...]] = [entries]
    for layer_idx in range(2, spec.d + 1):
        width = spec.layer_width(layer_idx)
        row: list[str] = []
        for tree, entry in enumerate(entries):
            prefix = f"{entry}~" if multi else ""
            for slot in range(width):
                if layer_idx == spec.d and slot == 0 and absorbed[tree] is not None:
                    row.append(absorbed[tree])
                else:
                    row.append(_decoy_id(prefix, layer_idx, slot))
        layers.append(tuple(row))

    enabled = layers[-1][0]
    return MiseryDigraph(spec, tuple(layers), target, tuple(tree_services),
                         poll_services, enabled)


def union_misery_digraphs(digraphs: Sequence[MiseryDigraph]) -> MiseryDigraph:
    """Merge misery digraphs over the same spec and target.

    Same-root trees must be positionally identical and contribute the union
    of their service labels; distinct roots juxtapose as a forest.  Any node
    appearing at two different positions is a LayerConflict.
    """
    if not digraphs:
        raise TopologyError("union of zero digraphs")
    first = digraphs[0]
    for other in digraphs[1:]:
        if other.spec != first.spec:
            raise IncompatibleSpecs(f"{other.spec} != {first.spec}")
        if other.target != first.target:
            raise LayerConflict(
                f"targets differ: {other.target!r} != {first.target!r}")

    roots: list[str] = []
    services: dict[str, set[ServiceKind]] = {}
    tree_rows: dict[str, list[tuple[str, ...]]] = {}
    for dg in digraphs:
        for tree, root in enumerate(dg.roots):
            rows = []
            for layer_idx in range(1, dg.d + 1):
                width = dg.spec.layer_width(layer_idx)
                row = dg.layers[layer_idx - 1][tree * width:(tree + 1) * width]
                rows.append(row)
            if root in tree_rows:
                if tree_rows[root] != rows:
                    raise LayerConflict(f"tree {root!r} has diverging structure")
            else:
                roots.append(root)
                tree_rows[root] = rows
            services.setdefault(root, set()).update(dg.services_of_tree(tree))

    placement: dict[str, tuple[str, int, int]] = {}
    for root in roots:
        for layer_idx, row in enumerate(tree_rows[root], start=1):
            for slot, node in enumerate(row):
                prior = placement.get(node)
                if prior is not None and prior != (root, layer_idx, slot):
                    raise LayerConflict(
                        f"node {node!r} at layer {layer_idx} conflicts with {prior}")
                placement[node] = (root, layer_idx, slot)

    layers = tuple(
        tuple(n for root in roots for n in tree_rows[root][layer_idx - 1])
        for layer_idx in range(1, first.d + 1)
    )
    tree_services = tuple((root, tuple(sorted(services[root]))) for root in roots)
    poll = tuple(sorted(set().union(*(set(dg.poll_services) for dg in digraphs))))
    enabled = first.enabled_leaf
    return MiseryDigraph(first.spec, layers, first.target, tree_services, poll,
                         enabled)


def derive_firewall_rules(mdg: MiseryDigraph) -> FirewallRuleSet:
    """Rule per tree edge and service, plus the two exceptions: public ->
    entry on transport ports, and target -> each layer-d node on poll ports
    (the target itself gets zero inbound rules)."""
    mdg.validate()
    rules = set()
    for tree, root in enumerate(mdg.roots):
        for service in mdg.services_of_tree(tree):
            rules.add(FirewallRule(PUBLIC_INTERNET, root, service.port))
    for src, dst, services in mdg.edges():
        for service in services:
            rules.add(FirewallRule(src, dst, service.port))
    for leaf in mdg.layers[-1]:
        for service in mdg.poll_services:
            rules.add(FirewallRule(mdg.target, leaf, service.port))
    return FirewallRuleSet(frozenset(rules))


def classify_rules(ruleset: FirewallRuleSet, target: str) -> dict[str, list[FirewallRule]]:
    """Partition a derived rule set into public / polling / edge rules."""
    out: dict[str, list[FirewallRule]] = {"public": [], "polling": [], "edges": []}
    for rule in ruleset:
        if rule.src == PUBLIC_INTERNET:
            out["public"].append(rule)
        elif rule.src == target:
            out["polling"].append(rule)
        else:
            out["edges"].append(rule)
    return out


def enabled_path(mdg: MiseryDigraph) -> list[str]:
    """The unique root-to-layer-d path ending at the designated leaf."""
    path = [mdg.enabled_leaf]
    while True:
        parent = mdg.parent_of(path[-1])
        if parent is None:
            break
        path.append(parent)
    path.reverse()
    return path


# --- network description documents ---------------------------------------


@dataclass(frozen=True)
class DescribedInstance:
    id: str
    tags: dict
    image: str = ""


@dataclass(frozen=True)
class DescribedRule:
    src: str
    dst: str
    port: int
    service: str | None = None


@dataclass(frozen=True)
class NetworkDescription:
    """Parsed form of the input config document (instances, rules, roles)."""

    instances: tuple[DescribedInstance, ...]
    rules: tuple[DescribedRule, ...]
    entry_points: tuple[str, ...]
    target: str

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "NetworkDescription":
        entry_points = tuple(doc.get("entry_points", ()))
        target = doc.get("target", "")
        instances = []
        for item in doc.get("instances", ()):
            tags = dict(item.get("tags", {}))
            if item["id"] in entry_points:
                tags.setdefault("role", ROLE_ENTRY)
            if item["id"] == target:
                tags.setdefault("role", ROLE_TARGET)
            instances.append(DescribedInstance(item["id"], tags,
                                               item.get("image", "")))
        rules = tuple(
            DescribedRule(r["src"], r["dst"], int(r["port"]), r.get("service"))
            for r in doc.get("rules", ())
        )
        return cls(tuple(instances), rules, entry_points, target)


def canonical_chain_description(tag_value: str = "mdg") -> NetworkDescription:
    """The three-node web -> app -> db chain used as the default input."""
    doc = {
        "instances": [
            {"id": "web", "tags": {"instance_type": tag_value}},
            {"id": "app", "tags": {"instance_type": tag_value}},
            {"id": "db", "tags": {"instance_type": tag_value}},
        ],
        "rules": [
            {"src": "web", "dst": "app", "port": 80},
            {"src": "app", "dst": "db", "port": 3306},
        ],
        "entry_points": ["web"],
        "target": "db",
    }
    return NetworkDescription.from_json_dict(doc)
