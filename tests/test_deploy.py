"""Deployment wiring: provisioning, rule application, runtime attachment."""

from __future__ import annotations

from types import SimpleNamespace

from miserysim.addresses import AddressRecord, AddressServer
from miserysim.cloud import CloudProvider, ImageKind, InstanceState
from miserysim.deploy import (
    deploy_misery,
    deploy_normal,
    image_for_layer,
    swappable_image_counts,
)
from miserysim.eventlog import EventLog
from miserysim.sim import Simulation
from miserysim.topology import (
    PUBLIC_INTERNET,
    FirewallRule,
    MiseryDigraphSpec,
    build_misery_digraph,
    derive_firewall_rules,
)


def make_digraph(d=3, k=2):
    return build_misery_digraph(MiseryDigraphSpec(d, k))


def deploy(d=3, k=2, s=8, seed=0):
    sim = Simulation(seed)
    log = EventLog()
    provider = CloudProvider(sim, log)
    addresses = AddressServer(sim, log)
    task = sim.spawn(deploy_misery(provider, addresses, make_digraph(d, k),
                                   u=1.0, m=0.1, s=s))
    deployment = sim.run_until(task.future)
    return SimpleNamespace(sim=sim, log=log, provider=provider,
                           addresses=addresses, deployment=deployment)


def test_deploy_waits_out_provisioning():
    env = deploy()
    assert env.sim.now == 300.0
    assert env.log.of_kind("deploy.complete")[0]["detail"] == {
        "nodes": 8, "pool": 8}


def test_deploy_is_immediately_consistent():
    env = deploy()
    assert env.deployment.consistency_check() == []


def test_deploy_tags_instances_with_roles():
    env = deploy()
    digraph = env.deployment.digraph
    for node in digraph.all_nodes():
        inst = env.provider.instances[node]
        assert inst.state is InstanceState.RUNNING
        assert inst.tags["instance_type"] == "mdg"
        assert inst.tags["role"] == digraph.role_of(node)
    assert env.provider.instances["web"].tags["role"] == "entry-point"
    assert env.provider.instances[digraph.target].tags["role"] == "target"


def test_deploy_applies_derived_rules():
    env = deploy()
    assert env.provider.rules == derive_firewall_rules(env.deployment.digraph)


def test_deploy_fills_pool_to_minimums():
    env = deploy(s=8)
    pool = env.provider.pool
    assert pool.s == 8
    # swappable counts d3k2: 2 multicasters, 4 requests servers
    assert pool.ready_count(ImageKind.MULTICASTER) == 3
    assert pool.ready_count(ImageKind.REQUESTS_SERVER) == 5
    assert pool.ready_count(ImageKind.POLLING_TARGET) == 0


def test_deploy_exposes_entry_addresses():
    env = deploy()
    web = env.provider.instances["web"]
    assert env.deployment.entry_address == web.address


def test_detach_node_forgets_runtime_and_instance():
    env = deploy()
    leaves = env.deployment.digraph.layer(3)
    env.deployment.detach_node(leaves[0])
    assert leaves[0] not in env.deployment.runtimes
    # the provider still holds the instance until movement terminates it
    assert env.provider.instance(leaves[0]).state is InstanceState.RUNNING


def test_consistency_check_flags_poisoned_table():
    env = deploy()
    runtime = env.deployment.runtimes["web"]
    runtime.table = AddressRecord("web", 9, (("ghost", "10.9.9.9"),))
    problems = env.deployment.consistency_check()
    assert len(problems) == 1
    assert problems[0].startswith("web: table")


def test_swappable_image_counts_by_shape():
    assert swappable_image_counts(make_digraph(3, 2)) == {
        ImageKind.MULTICASTER: 2, ImageKind.REQUESTS_SERVER: 4}
    assert swappable_image_counts(make_digraph(2, 3)) == {
        ImageKind.REQUESTS_SERVER: 3}
    assert swappable_image_counts(make_digraph(4, 2)) == {
        ImageKind.MULTICASTER: 6, ImageKind.REQUESTS_SERVER: 8}


def test_image_for_layer_maps_roles():
    digraph = make_digraph(3, 2)
    assert image_for_layer(digraph, 1) is ImageKind.MULTICASTER
    assert image_for_layer(digraph, 2) is ImageKind.MULTICASTER
    assert image_for_layer(digraph, 3) is ImageKind.REQUESTS_SERVER
    assert image_for_layer(digraph, 4) is ImageKind.POLLING_TARGET


def test_normal_chain_deploys():
    sim = Simulation(0)
    log = EventLog()
    provider = CloudProvider(sim, log)
    addresses = AddressServer(sim, log)
    task = sim.spawn(deploy_normal(provider, addresses, u=1.0))
    deployment = sim.run_until(task.future)
    assert sim.now == 300.0
    assert set(deployment.runtimes) == {"web", "app", "db"}
    web = provider.instances["web"]
    app = provider.instances["app"]
    db = provider.instances["db"]
    assert provider.rules == {
        FirewallRule(PUBLIC_INTERNET, "web", 80), FirewallRule("web", "app", 80),
        FirewallRule("app", "db", 3306)}
    assert deployment.entry_address == web.address
    assert web.tags == {"instance_type": "normal", "role": "entry-point"}
    assert app.tags["role"] == "intermediate"
    assert db.tags["role"] == "target"
    assert log.of_kind("deploy.complete")[0]["detail"] == {"nodes": 3, "pool": 0}
