"""Topology: k-ary expansion, rules, transforms.

The rule-set and layer-count checks use independent first-principles
oracles (closed-form counts and brute-force enumeration) rather than the
implementation's own arithmetic.
"""

from __future__ import annotations

import json
import random

import pytest

from miserysim.errors import TopologyError
from miserysim.topology import (
    PUBLIC_INTERNET,
    ROLE_ENTRY,
    ROLE_MULTICASTER,
    ROLE_REQUESTS_SERVER,
    ROLE_TARGET,
    FirewallRule,
    MiseryDigraph,
    MiseryDigraphSpec,
    build_misery_digraph,
    decoy_id,
    derive_firewall_rules,
    layer_sizes,
    next_replacement_id,
)
from miserysim.movement import rule_delta


# --- oracles (independent of the implementation) ---------------------------

def oracle_layer_count(k: int, layer: int) -> int:
    return k ** (layer - 1)


def oracle_rule_count(k: int, d: int) -> int:
    """public->root + one HTTP rule per tree edge + target->leaf polls,
    counted from scratch."""
    edges = sum(oracle_layer_count(k, i + 1) for i in range(1, d))
    polls = oracle_layer_count(k, d)
    return 1 + edges + polls


def oracle_expand_edges(digraph: MiseryDigraph) -> set[tuple[str, str]]:
    """Edges recomputed from positions alone: slot s at layer i maps to
    slots [k*s, k*s+k) of the next layer."""
    k = digraph.k
    out = set()
    for i in range(1, digraph.d):
        row, nxt = digraph.layer(i), digraph.layer(i + 1)
        for s, node in enumerate(row):
            for j in range(k * s, k * s + k):
                out.add((node, nxt[j]))
    return out


# --- spec and expansion ------------------------------------------------------

def test_spec_rejects_degenerate_shapes():
    with pytest.raises(TopologyError, match="d must be >= 2"):
        MiseryDigraphSpec(1, 2)
    with pytest.raises(TopologyError, match="k must be >= 1"):
        MiseryDigraphSpec(3, 0)


def test_layer_widths_closed_form():
    for d in range(2, 6):
        for k in range(1, 4):
            assert layer_sizes(MiseryDigraphSpec(d, k)) == tuple(
                oracle_layer_count(k, layer) for layer in range(1, d + 1))


def test_expansion_shape_d3_k2():
    dg = build_misery_digraph(MiseryDigraphSpec(3, 2))
    assert dg.layer(1) == ("web",)
    assert len(dg.layer(2)) == 2
    assert len(dg.layer(3)) == 4
    assert dg.target == "db"
    # absorbed original intermediate sits at layer-d slot 0
    assert dg.layer(3)[0] == "app"
    assert dg.position("app") == (3, 0)
    assert dg.role_of("web") == ROLE_ENTRY
    assert dg.role_of(dg.layer(2)[0]) == ROLE_MULTICASTER
    assert dg.role_of("app") == ROLE_REQUESTS_SERVER
    assert dg.role_of("db") == ROLE_TARGET


def test_expansion_layer_counts_match_oracle():
    for d in range(2, 6):
        for k in range(1, 4):
            dg = build_misery_digraph(MiseryDigraphSpec(d, k))
            dg.validate()
            for layer in range(1, d + 1):
                assert len(dg.layer(layer)) == oracle_layer_count(k, layer)
            assert len(dg.all_nodes()) == sum(
                oracle_layer_count(k, i) for i in range(1, d + 1)) + 1


def test_edges_match_positional_oracle():
    for d, k in ((2, 1), (3, 2), (4, 2), (3, 3), (5, 2)):
        dg = build_misery_digraph(MiseryDigraphSpec(d, k))
        assert set(dg.edges()) == oracle_expand_edges(dg)


def test_parent_child_are_mutually_consistent():
    dg = build_misery_digraph(MiseryDigraphSpec(4, 3))
    for i in range(1, dg.d):
        for node in dg.layer(i):
            for child in dg.children_of(node):
                assert dg.parent_of(child) == node
    assert dg.parent_of("web") is None


def test_node_ids_are_unique():
    dg = build_misery_digraph(MiseryDigraphSpec(5, 3))
    nodes = dg.all_nodes()
    assert len(nodes) == len(set(nodes))


# --- firewall rules -----------------------------------------------------------

def test_rule_count_matches_oracle_fig_style():
    # d=3, k=2: 1 public + 6 edges + 4 polls = 11
    dg = build_misery_digraph(MiseryDigraphSpec(3, 2))
    rules = derive_firewall_rules(dg)
    assert oracle_rule_count(2, 3) == 11
    assert len(rules) == 11
    assert len([r for r in rules if r.src == PUBLIC_INTERNET]) == 1
    assert len([r for r in rules if r.src not in (PUBLIC_INTERNET, dg.target)]) == 6
    assert len([r for r in rules if r.src == dg.target]) == 4


def test_rule_counts_match_oracle_across_shapes():
    for d in range(2, 6):
        for k in range(1, 4):
            dg = build_misery_digraph(MiseryDigraphSpec(d, k))
            assert len(derive_firewall_rules(dg)) == oracle_rule_count(k, d)


def test_target_has_zero_inbound_rules():
    for d, k in ((3, 2), (4, 3)):
        dg = build_misery_digraph(MiseryDigraphSpec(d, k))
        rules = derive_firewall_rules(dg)
        assert not [r for r in rules if r.dst == dg.target]


def test_rules_enumerate_by_brute_force():
    dg = build_misery_digraph(MiseryDigraphSpec(3, 2))
    rules = derive_firewall_rules(dg)
    expected = {(PUBLIC_INTERNET, "web", 80)}
    expected |= {(src, dst, 80) for src, dst in oracle_expand_edges(dg)}
    expected |= {("db", leaf, 3306) for leaf in dg.layer(3)}
    assert {(r.src, r.dst, r.port) for r in rules} == expected


def test_ruleset_iterates_sorted_and_permits():
    dg = build_misery_digraph(MiseryDigraphSpec(3, 2))
    rules = derive_firewall_rules(dg)
    listed = [(r.src, r.dst, r.port) for r in sorted(rules)]
    assert listed == sorted(listed)
    assert FirewallRule(PUBLIC_INTERNET, "web", 80) in rules
    assert FirewallRule(PUBLIC_INTERNET, "web", 81) not in rules
    assert FirewallRule("web", "db", 3306) not in rules


# --- positional transforms ----------------------------------------------------

def test_swap_exchanges_positions_only():
    dg = build_misery_digraph(MiseryDigraphSpec(3, 2))
    a, b = dg.layer(2)
    swapped = dg.with_positions_swapped(a, b)
    assert swapped.position(a) == dg.position(b)
    assert swapped.position(b) == dg.position(a)
    assert sorted(swapped.all_nodes()) == sorted(dg.all_nodes())
    # original is untouched (pure transform)
    assert dg.layer(2) == (a, b)


def test_swap_rewires_children_with_position():
    dg = build_misery_digraph(MiseryDigraphSpec(3, 2))
    a, b = dg.layer(2)
    swapped = dg.with_positions_swapped(a, b)
    assert swapped.children_of(a) == dg.children_of(b)
    assert swapped.children_of(b) == dg.children_of(a)


def test_swap_rejects_cross_layer_and_boundary_layers():
    dg = build_misery_digraph(MiseryDigraphSpec(4, 2))
    with pytest.raises(TopologyError, match="at layer 2"):
        dg.with_positions_swapped(dg.layer(2)[0], dg.layer(3)[0])
    with pytest.raises(TopologyError):
        dg.with_positions_swapped(dg.layer(2)[0], dg.layer(2)[0])


def test_replace_preserves_position():
    dg = build_misery_digraph(MiseryDigraphSpec(3, 2))
    pos = dg.position("app")
    replaced = dg.with_node_replaced("app", decoy_id(3, 0, 1))
    assert replaced.position("L3.s0.g1") == pos
    assert replaced.role_of("L3.s0.g1") == ROLE_REQUESTS_SERVER
    assert "app" not in replaced.all_nodes()
    with pytest.raises(TopologyError):
        dg.with_node_replaced("web", "other")
    with pytest.raises(TopologyError):
        dg.with_node_replaced("app", dg.layer(2)[0])


def test_random_transform_sequences_preserve_invariants():
    rng = random.Random(42)
    dg = build_misery_digraph(MiseryDigraphSpec(4, 2))
    gen = 0
    for _ in range(200):
        layer = rng.choice([2, 3, 4])
        row = dg.layer(layer)
        if rng.random() < 0.5 and len(row) >= 2:
            u, v = rng.sample(list(row), 2)
            dg = dg.with_positions_swapped(u, v)
        else:
            gen += 1
            old = rng.choice(list(row))
            _, slot = dg.position(old)
            dg = dg.with_node_replaced(old, f"fresh.g{gen}.{slot}")
        dg.validate()
        assert set(dg.edges()) == oracle_expand_edges(dg)
        assert len(derive_firewall_rules(dg)) == oracle_rule_count(2, 4)


# --- incremental transforms against full rebuilds -------------------------------

def rebuilt(dg: MiseryDigraph) -> MiseryDigraph:
    """The same layers through the full constructor: index every id, check
    for duplicates, validate."""
    return MiseryDigraph(dg.spec, dg.layers, dg.target)


@pytest.mark.parametrize("start", [
    lambda: build_misery_digraph(MiseryDigraphSpec(3, 2)),
    lambda: build_misery_digraph(MiseryDigraphSpec(4, 2)),
    lambda: build_misery_digraph(MiseryDigraphSpec(5, 3)),
], ids=["d3k2", "d4k2", "d5k3"])
def test_incremental_transforms_equal_full_rebuilds(start):
    rng = random.Random(7)
    dg = start()
    generations: dict = {}
    for _ in range(150):
        parent_slots = dict(dg._slots)
        layer = rng.randrange(2, dg.d + 1)
        if rng.random() < 0.5:
            gone = placed = tuple(rng.sample(dg.layer(layer), 2))
            dg_next = dg.with_positions_swapped(*gone)
        else:
            old = rng.choice(dg.layer(layer))
            gone, placed = (old,), (next_replacement_id(dg, old, generations),)
            dg_next = dg.with_node_replaced(old, placed[0])
        assert dg._slots == parent_slots
        full = rebuilt(dg_next)
        assert dg_next._slots == full._slots
        for node in full.all_nodes()[:-1]:
            assert dg_next.position(node) == full.position(node)
        assert dg_next.edges() == full.edges()
        before, after = derive_firewall_rules(dg), derive_firewall_rules(full)
        assert derive_firewall_rules(dg_next) == after
        assert rule_delta(dg, dg_next, gone, placed) == (
            sorted(before - after), sorted(after - before))
        dg = dg_next


@pytest.mark.parametrize("case", [
    ("swap", "nowhere", "L2.s0.g0", TopologyError, "unknown node 'nowhere'"),
    ("swap", "L2.s0.g0", "L2.s0.g0", TopologyError, "with itself"),
    ("swap", "L2.s0.g0", "L3.s1.g0", TopologyError, "at layer 2"),
    ("replace", "nowhere", "fresh", TopologyError, "unknown node 'nowhere'"),
    ("replace", "web", "fresh", TopologyError, "never replaced"),
    ("replace", "app", "L2.s1.g0", TopologyError, "already present"),
    ("replace", "app", "db", TopologyError, "already present"),
    ("replace", "L2.s1.g0", PUBLIC_INTERNET, TopologyError, "reserved"),
    ("replace", "L2.s1.g0", "pool-m-1", TopologyError, "reserved"),
], ids=["swap-unknown", "swap-self", "swap-cross-layer",
        "replace-unknown", "replace-layer-1", "replace-id-present",
        "replace-id-is-target", "replace-id-is-the-internet",
        "replace-id-is-a-pool-standby"])
def test_transforms_still_reject_invalid_requests(case):
    op, a, b, error, message = case
    dg = build_misery_digraph(MiseryDigraphSpec(3, 2))
    before = dict(dg._slots)
    transform = dg.with_positions_swapped if op == "swap" else dg.with_node_replaced
    with pytest.raises(error, match=message):
        transform(a, b)
    assert dg._slots == before


@pytest.mark.parametrize("name, change, message", [
    ("layers", lambda ls: ((),) + ls[1:], "layer 1 has 0 nodes"),
    ("layers", lambda ls: (ls[0] + ("web2",),) + ls[1:], "layer 1 has 2 nodes"),
    ("layers", lambda ls: ls[:-1], "expected 3 layers"),
    ("layers", lambda ls: ls[:2] + (ls[2][:-1],), "layer 3 has 3 nodes"),
    ("layers", lambda ls: ls[:2] + (("app", ls[1][0]) + ls[2][2:],),
     "duplicate node id"),
    ("layers", lambda ls: ls[:2] + (("app", "db") + ls[2][2:],),
     "target also occurs"),
    # the firewall reads this id as the Internet
    ("layers", lambda ls: (ls[0], (ls[1][0], PUBLIC_INTERNET), ls[2]), "reserved"),
    ("target", lambda target: PUBLIC_INTERNET, "reserved"),
    # the instance pool names its standbys so
    ("layers", lambda ls: (ls[0], (ls[1][0], "pool-m-1"), ls[2]), "reserved"),
    ("target", lambda target: "pool-t-1", "reserved"),
], ids=["no-roots", "two-roots", "layer-count", "layer-size", "duplicate-id",
        "target-in-layer", "node-is-the-internet", "target-is-the-internet",
        "node-is-a-pool-standby", "target-is-a-pool-standby"])
def test_constructor_still_rejects_invalid_shapes(name, change, message):
    dg = build_misery_digraph(MiseryDigraphSpec(3, 2))
    fields = {f: getattr(dg, f) for f in ("spec", "layers", "target")}
    fields[name] = change(fields[name])
    with pytest.raises(TopologyError, match=message):
        MiseryDigraph(**fields)


# --- serialization ------------------------------------------------------------

def test_json_round_trip():
    dg = build_misery_digraph(MiseryDigraphSpec(3, 2))
    doc = json.loads(json.dumps(dg.to_json_dict()))
    back = MiseryDigraph.from_json_dict(doc)
    assert back.to_json_dict() == dg.to_json_dict()
    assert back.layers == dg.layers
    assert back.spec == dg.spec
    assert back.target == dg.target
    # the services are derived: written, never read
    del doc["transport_services"], doc["poll_services"]
    assert MiseryDigraph.from_json_dict(doc).to_json_dict() == dg.to_json_dict()
    other = [{"name": "https", "port": 443}]
    doc.update(transport_services=other, poll_services=other)
    for edge in doc["edges"]:
        edge["services"] = other
    assert MiseryDigraph.from_json_dict(doc).to_json_dict() == dg.to_json_dict()


def test_json_with_two_roots_is_rejected():
    doc = build_misery_digraph(MiseryDigraphSpec(3, 2)).to_json_dict()
    doc["layers"][0].append("web2")
    with pytest.raises(TopologyError, match="layer 1 has 2 nodes"):
        MiseryDigraph.from_json_dict(doc)


@pytest.mark.parametrize("change", [
    # each of the three keys that are read, and a key inside spec
    lambda doc: doc.pop("layers"),
    lambda doc: doc.pop("spec"),
    lambda doc: doc.pop("target"),
    lambda doc: doc["spec"].pop("k"),
    lambda doc: doc.update(spec=[3, 2]),
    lambda doc: doc.update(spec={"d": "three", "k": 2}),
    lambda doc: doc.update(layers=3),
    # a wrongly typed value is rejected, not coerced
    lambda doc: doc["spec"].update(d=3.9),
    lambda doc: doc["spec"].update(k="2"),
    lambda doc: doc.update(target=7),
    lambda doc: doc["layers"][2].__setitem__(1, 5),
])
def test_json_with_missing_or_mistyped_keys_is_rejected(change):
    doc = build_misery_digraph(MiseryDigraphSpec(3, 2)).to_json_dict()
    change(doc)
    with pytest.raises(TopologyError, match="malformed digraph document"):
        MiseryDigraph.from_json_dict(doc)
    with pytest.raises(TopologyError, match="malformed digraph document"):
        MiseryDigraph.from_json_dict([doc])
