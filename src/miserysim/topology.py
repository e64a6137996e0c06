"""Graph-theoretic core: the protected chain, misery digraphs, firewall rules.

Everything in this module is a pure function over immutable values.  The live
deployment holds a MiseryDigraph, and the movement manager replaces it
wholesale on every transformation; nothing here mutates in place.

A misery digraph is stored positionally: layer i (1-based, i = 1..d) is a
tuple of node ids, and the parent/child edges are implied by slot arithmetic
(slot g of layer i+1 hangs under slot g // k of layer i).  The
target sits alone past layer d with no inbound edges at all.  Every node
forwards to all its children and the target polls every layer-d node, so no
leaf is special: a digraph is its layers and its target.  Storing
positions instead of an edge list makes switches (position exchanges) and
resets (id substitutions) trivial and keeps the k-ary shape true by
construction.

The services are part of the protocol, not of a digraph: HTTP (port 80)
rides every tree edge and DATABASE (port 3306) carries every poll.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from .errors import TopologyError

PUBLIC_INTERNET = "public-internet"
# every warm standby the instance pool creates has an id with this prefix
POOL_ID_PREFIX = "pool-"

ROLE_ENTRY = "entry-point"
ROLE_TARGET = "target"

ROLE_MULTICASTER = "multicaster"
ROLE_REQUESTS_SERVER = "requests-server"

# a cap on a shape's nodes (plus a run's standbys), so that a build, run or
# replay ends in bounded host time; over 100x what any shipped shape needs
MAX_INSTANCES = 100_000


def _check_not_reserved(node: str) -> None:
    """A node may not be named PUBLIC_INTERNET, which the firewall reads as
    the Internet, nor like a pool standby, whose id the pool would reuse."""
    if node == PUBLIC_INTERNET:
        raise TopologyError(f"node id {PUBLIC_INTERNET!r} is reserved")
    if node.startswith(POOL_ID_PREFIX):
        raise TopologyError(
            f"node id {node!r} is reserved: {POOL_ID_PREFIX!r} names pool standbys")


def _typed(value, kind: type, what: str):
    """`value` as is if it is exactly a `kind` (a bool is no int), else TypeError."""
    if type(value) is not kind:
        raise TypeError(f"{what} must be {kind.__name__}, not {type(value).__name__}")
    return value


@dataclass(frozen=True)
class ServiceKind:
    """A network service as (name, port)."""

    name: str
    port: int


# The web -> app -> db chain the system protects: the d=0 baseline deploys
# it as is, and build_misery_digraph expands it to a misery digraph.  HTTP
# carries requests from the public internet inward; DATABASE is the app's
# link to the database, which in a misery digraph becomes the target's poll.
CHAIN = ("web", "app", "db")
HTTP = ServiceKind("http", 80)
DATABASE = ServiceKind("db", 3306)


@dataclass(frozen=True)
class MiseryDigraphSpec:
    """Shape parameters: d = last pre-target layer index, k = branching factor."""

    d: int
    k: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise TopologyError(f"d must be >= 2, got {self.d}")
        if self.k < 1:
            raise TopologyError(f"k must be >= 1, got {self.k}")


@functools.lru_cache(maxsize=None)
def layer_sizes(spec: MiseryDigraphSpec) -> tuple[int, ...]:
    """Node count of layers 1..d: layer i holds k ** (i - 1)."""
    return tuple(spec.k ** (i - 1) for i in range(1, spec.d + 1))


def node_count(d: int, k: int, cap: int) -> int:
    """The nodes of layers 1..d, summed layer by layer and stopped once past
    `cap`, so a huge d or k costs no more than a small one."""
    nodes, width = 0, 1
    for _ in range(d):
        nodes += width
        width *= k
        if nodes > cap:
            break
    return nodes


@dataclass(frozen=True, eq=False)
class MiseryDigraph:
    """A layered k-ary deception tree plus its target.

    layers[i] holds layer i+1 left to right; layer 1 is the single root, the
    public entry point.  The target is not part of any layer tuple and has no
    parent edges (Isolated Target).  HTTP rides every edge and the target
    polls layer d on DATABASE; no id may be PUBLIC_INTERNET, which the
    firewall reads as the Internet, or start with POOL_ID_PREFIX.
    """

    spec: MiseryDigraphSpec
    layers: tuple[tuple[str, ...], ...]
    target: str
    _slots: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        for layer_idx, layer in enumerate(self.layers, start=1):
            for slot, node in enumerate(layer):
                if node in self._slots:
                    raise TopologyError(f"duplicate node id {node!r}")
                self._slots[node] = (layer_idx, slot)
        if self.target in self._slots:
            raise TopologyError("target also occurs in a layer")
        for node in (*self._slots, self.target):
            _check_not_reserved(node)
        self.validate()

    # -- shape ---------------------------------------------------------------

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def root(self) -> str:
        return self.layers[0][0]

    def layer(self, i: int) -> tuple[str, ...]:
        if not 1 <= i <= self.d:
            raise TopologyError(f"layer {i} outside 1..{self.d}")
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
            raise TopologyError(f"unknown node {node!r}") from None

    def layer_of(self, node: str) -> int:
        if node == self.target:
            return self.d + 1
        return self.position(node)[0]

    def parent_of(self, node: str) -> str | None:
        layer, slot = self.position(node)
        if layer == 1:
            return None
        return self.layers[layer - 2][slot // self.spec.k]

    def children_of(self, node: str) -> tuple[str, ...]:
        layer, slot = self.position(node)
        if layer == self.d:
            return ()
        k = self.spec.k
        return self.layers[layer][slot * k:slot * k + k]

    def role_of(self, node: str) -> str:
        layer = self.layer_of(node)
        if layer == self.d + 1:
            return ROLE_TARGET
        if layer == 1:
            return ROLE_ENTRY
        if layer == self.d:
            return ROLE_REQUESTS_SERVER
        return ROLE_MULTICASTER

    def edges(self) -> list[tuple[str, str]]:
        """All parent->child edges, layer by layer; HTTP rides each."""
        return [(node, child)
                for layer in self.layers[:-1] for node in layer
                for child in self.children_of(node)]

    def validate(self) -> None:
        """Shape invariants in O(d); the ids were indexed once, in _slots.
        The expected layer sizes start at 1, so this also checks that
        layer 1 holds exactly one root."""
        layers, d = self.layers, self.spec.d
        if len(layers) != d:
            raise TopologyError(f"expected {d} layers, found {len(layers)}")
        for i, (layer, expect) in enumerate(zip(layers, layer_sizes(self.spec)), 1):
            if len(layer) != expect:
                raise TopologyError(
                    f"layer {i} has {len(layer)} nodes, expected {expect}")

    # -- transforms ----------------------------------------------------------

    def with_positions_swapped(self, u: str, v: str) -> "MiseryDigraph":
        """Exchange the positions of u and v (same layer, 2..d): parents and
        children swap with the positions; each node's own subtree stays put.
        Layer 1 holds one node, so a same-layer pair never lies there."""
        lu, su = self.position(u)
        lv, sv = self.position(v)
        if u == v:
            raise TopologyError("cannot switch a node with itself")
        if lu != lv:
            raise TopologyError(f"{u!r} at layer {lu}, {v!r} at layer {lv}")
        return self._derive(lu, {su: v, sv: u})

    def with_node_replaced(self, old: str, new: str) -> "MiseryDigraph":
        """Substitute a fresh id at old's position."""
        layer, slot = self.position(old)
        if layer == 1:
            raise TopologyError("entry points are never replaced")
        if new in self._slots or new == self.target:
            raise TopologyError(f"replacement id {new!r} already present")
        _check_not_reserved(new)
        return self._derive(layer, {slot: new}, gone=old)

    def _derive(self, layer: int, placed: dict[int, str],
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
            target=self.target, _slots=slots)
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
                {"src": src, "dst": dst, "services": [asdict(HTTP)]}
                for src, dst in self.edges()
            ],
            "transport_services": [asdict(HTTP)],
            "poll_services": [asdict(DATABASE)],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "MiseryDigraph":
        """Inverse of to_json_dict: it reads spec, layers and target, and
        every other key, derived or left by an older build, is not read.  A
        document with a missing key, a value of the wrong type or more than
        one root raises TopologyError."""
        try:
            spec = MiseryDigraphSpec(_typed(doc["spec"]["d"], int, "spec d"),
                                     _typed(doc["spec"]["k"], int, "spec k"))
            layers = tuple(tuple(_typed(node, str, "node id")
                                 for node in _typed(layer, list, "layer"))
                           for layer in doc["layers"])
            return cls(spec, layers, _typed(doc["target"], str, "target"))
        except (KeyError, TypeError, ValueError) as err:
            raise TopologyError(
                f"malformed digraph document: {type(err).__name__}: {err}") from err


class FirewallRule(NamedTuple):
    """One inbound permission: src may initiate a connection to dst on port.
    Rules sort by (src, dst, port), and a rule equals and hashes as that
    plain tuple, so the firewall is checked without building one."""

    src: str
    dst: str
    port: int


# --- operations ---------------------------------------------------------


def decoy_id(layer: int, slot: int, generation: int = 0) -> str:
    """Positional id of a decoy: generation 0 is the one built, each reset
    at that (layer, slot) places the next."""
    return f"L{layer}.s{slot}.g{generation}"


def next_replacement_id(digraph: MiseryDigraph, node: str,
                        generations: dict[tuple[int, int], int]) -> str:
    """Fresh id for a reset of `node` at its current position.  Bumps the
    generation of its (layer, slot) in `generations`."""
    key = digraph.position(node)
    generations[key] = generations.get(key, 0) + 1
    return decoy_id(*key, generations[key])


def build_misery_digraph(spec: MiseryDigraphSpec) -> MiseryDigraph:
    """Expand CHAIN to a k-ary misery digraph of depth d.

    web is the root, app sits at layer-d slot 0 as one requests server
    among the k ** (d - 1) that the target polls alike, every other slot of
    layers 2..d holds a fresh decoy, and db is the isolated target.
    """
    web, app, db = CHAIN
    layers = [(web,)] + [
        tuple(decoy_id(layer_idx, slot) for slot in range(width))
        for layer_idx, width in enumerate(layer_sizes(spec)[1:], 2)]
    layers[-1] = (app,) + layers[-1][1:]
    return MiseryDigraph(spec, tuple(layers), db)


def inbound_rules(mdg: MiseryDigraph, node: str) -> list[FirewallRule]:
    """The rules that let traffic into one non-target node: from its parent
    (the public internet for the root) on HTTP, and at layer d from the
    target on DATABASE.  Every rule of a digraph is the inbound rule of
    exactly one such node."""
    parent = mdg.parent_of(node)
    rules = [FirewallRule(PUBLIC_INTERNET if parent is None else parent,
                          node, HTTP.port)]
    if mdg.position(node)[0] == mdg.d:
        rules.append(FirewallRule(mdg.target, node, DATABASE.port))
    return rules


def derive_firewall_rules(mdg: MiseryDigraph) -> frozenset[FirewallRule]:
    """One HTTP rule per tree edge, plus the two exceptions: public ->
    root on HTTP, and target -> each layer-d node on DATABASE (the target
    itself gets zero inbound rules)."""
    return frozenset(rule for layer in mdg.layers for node in layer
                     for rule in inbound_rules(mdg, node))
