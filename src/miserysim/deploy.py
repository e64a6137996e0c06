"""Deployment: from a digraph to a running set of instances and runtimes.

deploy_misery provisions one instance per digraph node (plus the warm pool),
applies the derived firewall rules, wires up node runtimes with their
endpoint bindings and Address Server records, and starts the Polling Server.
deploy_normal builds the three-node baseline chain the misery digraph is a
drop-in replacement for.  Both are generator tasks for Simulation.spawn; the
task future resolves to a Deployment.

Every node is a cloud instance that acts only through the provider's API, so
the deployment and each runtime take the CloudProvider alone and read the
run's clock, event log and counters from it (provider.sim, provider.log,
provider.counters).

The Deployment object is also the mutation surface for the Movement Manager:
a plain digraph attribute plus attach/detach of node runtimes, and a global
consistency sweep comparing the records the runtimes route on against the
digraph.
"""

from __future__ import annotations

from .addresses import AddressServer
from .cloud import CloudProvider, ImageKind, min_pool_requirements
from .errors import TopologyError
from .multicaster import MulticasterNode
from .target import (
    AppServerNode,
    BackendStore,
    DatabaseServerNode,
    PollingServerNode,
    RequestsServerNode,
)
from .topology import (
    CHAIN,
    DATABASE,
    HTTP,
    PUBLIC_INTERNET,
    FirewallRule,
    MiseryDigraph,
    derive_firewall_rules,
)

# tags on every instance of each deployment kind, next to its "role"
MDG_TAGS = {"instance_type": "mdg"}
NORMAL_TAGS = {"instance_type": "normal"}


def swappable_image_counts(digraph: MiseryDigraph) -> dict[ImageKind, int]:
    """Running instance counts over the layers movement may reset (2..d)."""
    counts: dict[ImageKind, int] = {}
    for layer_no in range(2, digraph.d + 1):
        kind = image_for_layer(digraph, layer_no)
        counts[kind] = counts.get(kind, 0) + len(digraph.layer(layer_no))
    return counts


def image_for_layer(digraph: MiseryDigraph, layer: int) -> ImageKind:
    if layer == digraph.d + 1:
        return ImageKind.POLLING_TARGET
    if layer == digraph.d:
        return ImageKind.REQUESTS_SERVER
    return ImageKind.MULTICASTER


class Deployment:
    """Live view of one deployed topology: instances, runtimes, store."""

    def __init__(self, provider: CloudProvider, addresses: AddressServer, *,
                 u: float):
        self.provider = provider
        self.addresses = addresses
        self.u = u
        self.digraph: MiseryDigraph | None = None
        self.runtimes: dict[str, object] = {}
        self.store = BackendStore()
        self.entry_address: str | None = None

    # -- runtime construction ------------------------------------------------

    def child_entries(self, owner: str) -> tuple[tuple[str, str], ...]:
        """(id, address) of every node `owner` routes to: its children, or
        for the target every layer-d node it polls."""
        digraph = self.digraph
        children = (digraph.layer(digraph.d) if owner == digraph.target
                    else digraph.children_of(owner))
        return tuple((child, self.provider.instance(child).address)
                     for child in children)

    def attach_node(self, node: str) -> None:
        """Build and wire the runtime for one digraph node (initial deploy
        and movement replacements go through the same path)."""
        digraph = self.digraph
        layer = digraph.layer_of(node)
        if layer < digraph.d:
            record = self.addresses.register(node, self.child_entries(node))
            runtime = MulticasterNode(self.provider, node, self.u,
                                      is_entry=(layer == 1), table=record)
            handler = runtime.on_http if layer == 1 else runtime.on_request
            self.provider.bind(node, HTTP.port, on_request=handler)
            self.addresses.subscribe(node, runtime.apply_update)
        elif layer == digraph.d:
            runtime = RequestsServerNode(self.provider, node, self.u)
            self.provider.bind(node, HTTP.port, on_request=runtime.on_request)
            self.provider.bind(node, DATABASE.port,
                               on_channel=runtime.on_poll_channel)
        else:
            raise TopologyError(f"cannot attach {node!r} at layer {layer}")
        self.runtimes[node] = runtime

    def detach_node(self, node: str) -> None:
        self.runtimes.pop(node, None)

    def attach_target(self, m: float) -> None:
        digraph = self.digraph
        target = digraph.target
        record = self.addresses.register(target, self.child_entries(target))
        ps = PollingServerNode(self.provider, target, self.store, m, table=record)
        self.addresses.subscribe(target, ps.apply_update)
        self.runtimes[target] = ps
        ps.start()

    # -- global consistency sweep ---------------------------------------------

    def consistency_check(self) -> list[str]:
        """Compare every routing runtime's record, and the Address Server's,
        against the digraph; returns human-readable mismatches (empty when
        globally consistent)."""
        digraph = self.digraph
        problems: list[str] = []
        if digraph is None:
            return problems
        multicasters = [node for layer in digraph.layers[:-1] for node in layer]
        for owner in multicasters + [digraph.target]:
            expected = self.child_entries(owner)
            runtime = self.runtimes.get(owner)
            if runtime is None:
                problems.append(f"{owner}: no runtime attached")
                continue
            for view, record in (("table", runtime.table),
                                 ("address record", self.addresses.lookup(owner))):
                if record.children != expected:
                    problems.append(f"{owner}: {view} {record.children} != {expected}")
        return problems


def deploy_misery(provider: CloudProvider, addresses: AddressServer,
                  digraph: MiseryDigraph, *, u: float, m: float, s: int):
    """Generator task: provision, rule, wire and start a misery digraph."""
    deployment = Deployment(provider, addresses, u=u)
    deployment.digraph = digraph

    ready = []
    for node in digraph.all_nodes():
        layer = digraph.layer_of(node)
        inst = provider.create_instance(
            image_for_layer(digraph, layer), instance_id=node,
            tags={**MDG_TAGS, "role": digraph.role_of(node)})
        ready.append(inst.ready)

    pool = provider.configure_pool(s)
    standbys = pool.fill(min_pool_requirements(swappable_image_counts(digraph), s))

    # spares provision in parallel with the topology, so waiting for them
    # costs nothing and completion means the pool holds its minimums
    for future in ready + [inst.ready for inst in standbys]:
        yield future

    provider.apply_rules(derive_firewall_rules(digraph))
    for layer_no in range(1, digraph.d + 1):
        for node in digraph.layer(layer_no):
            deployment.attach_node(node)
    deployment.attach_target(m)
    deployment.entry_address = provider.instance(digraph.root).address
    provider.log.emit(provider.sim.now, "deploy.complete", instance=None,
                      detail={"nodes": len(digraph.all_nodes()), "pool": s})
    return deployment


def deploy_normal(provider: CloudProvider, addresses: AddressServer, *,
                  u: float):
    """Generator task: the baseline entry -> app -> database chain (d=0)."""
    deployment = Deployment(provider, addresses, u=u)
    web, app, db = CHAIN
    roles = {web: "entry-point", app: "intermediate", db: "target"}
    images = {web: ImageKind.MULTICASTER, app: ImageKind.REQUESTS_SERVER,
              db: ImageKind.POLLING_TARGET}
    ready = []
    for node in CHAIN:
        inst = provider.create_instance(images[node], instance_id=node,
                                        tags={**NORMAL_TAGS, "role": roles[node]})
        ready.append(inst.ready)
    for future in ready:
        yield future

    provider.apply_rules(frozenset({
        FirewallRule(PUBLIC_INTERNET, web, HTTP.port),
        FirewallRule(web, app, HTTP.port),
        FirewallRule(app, db, DATABASE.port),
    }))

    web_node = MulticasterNode(
        provider, web, u, is_entry=True,
        table=addresses.register(web, [(app, provider.instance(app).address)]))
    app_node = AppServerNode(provider, app, provider.instance(db).address, u)
    db_node = DatabaseServerNode(provider, db, deployment.store)
    provider.bind(web, HTTP.port, on_request=web_node.on_http)
    provider.bind(app, HTTP.port, on_request=app_node.on_request)
    provider.bind(db, DATABASE.port, on_channel=db_node.on_channel)
    addresses.subscribe(web, web_node.apply_update)

    deployment.runtimes = {web: web_node, app: app_node, db: db_node}
    deployment.entry_address = provider.instance(web).address
    provider.log.emit(provider.sim.now, "deploy.complete", instance=None,
                      detail={"nodes": 3, "pool": 0})
    return deployment
