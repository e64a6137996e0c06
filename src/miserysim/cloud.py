"""Simulated cloud provider: instances, security groups, traffic, pool.

The provider is the single authority over instance lifecycles, pair rules and
every byte in flight.  Traffic comes in two shapes: a one-shot request/reply
Exchange (one frame each way, used on tree hops and for the public entry
surface) and a pipe of two Channel ends (ordered and bidirectional, used
for the handshake and poll dialogues): the opener holds one end, the
acceptor the other, and each end sends to its peer.  Both check the
firewall at the attempt instant; a later rule revocation or instance
termination severs them, which is how transformation windows surface as
failed requests.  The firewall holds topology.FirewallRule values.

The registries hold only what is in flight: an exchange is live while it is
a key of `_exchanges`, a pipe open while its opener end is a key of
`channels`.  Both dicts keep insertion order, which severance walks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import CloudError, ConnectionRefused, SessionSevered
from .eventlog import EventLog
from .sim import Future, Simulation
from .topology import POOL_ID_PREFIX, PUBLIC_INTERNET, FirewallRule


class ImageKind(Enum):
    MULTICASTER = "multicaster"
    REQUESTS_SERVER = "requests-server"
    POLLING_TARGET = "polling-target"


class InstanceState(Enum):
    PROVISIONING = "provisioning"
    RUNNING = "running"
    TERMINATED = "terminated"


@dataclass
class Instance:
    id: str
    image: ImageKind
    address: str
    state: InstanceState
    tags: dict[str, str]
    created_at: float
    ready: Future = field(repr=False, default_factory=Future)

    def to_dict(self) -> dict:
        return {"id": self.id, "image": self.image.value, "address": self.address,
                "state": self.state.value, "tags": dict(sorted(self.tags.items())),
                "created_at": self.created_at}


class Exchange:
    """One request frame and one reply frame between two endpoints."""

    __slots__ = ("src", "dst", "port", "future", "_pending")

    def __init__(self, src: str, dst: str, port: int, future: Future):
        self.src = src
        self.dst = dst
        self.port = port
        self.future = future
        self._pending = None  # handle of the in-flight delivery event


class Channel:
    """One end of an ordered bidirectional message pipe.

    The opener's end and the acceptor's end are each other's peer; send on
    one end arrives at the other.  The bus is message-framed: each send
    arrives as one whole message, never split or merged, so receivers decode
    one message at a time.  Messages arriving before the end installs an
    on_message callback are buffered.  The two ends share one state, open |
    closed | severed: a close by one end rejects the peer's on_error, and a
    severance rejects both ends' (this is the attacker-session audit surface
    for movement).
    """

    __slots__ = ("node", "port", "peer", "state", "server", "_provider",
                 "_on_message", "_on_error", "_inbox", "_last_at")

    def __init__(self, provider: "CloudProvider", node: str, port: int):
        self.node = node
        self.port = port
        self.peer: Channel | None = None
        self.state = "open"
        # the node serving this end's messages, if it says so; the poller
        # runs its round trips inline only to an end a requests server marked
        self.server = None
        self._provider = provider
        self._on_message: Callable[[bytes], None] | None = None
        self._on_error: Callable[[Exception], None] | None = None
        self._inbox: list[bytes] = []
        self._last_at = 0.0    # arrival time of the latest message to this end

    def on_message(self, fn: Callable[[bytes], None]) -> None:
        self._on_message = fn
        queued, self._inbox = self._inbox, []
        for data in queued:
            fn(data)

    def on_error(self, fn: Callable[[Exception], None]) -> None:
        self._on_error = fn

    def send(self, data: bytes) -> None:
        if self.state != "open":
            return
        peer, provider = self.peer, self._provider
        provider.sim.schedule_at(provider.channel_arrival(peer, provider.sim.now),
                                 peer._deliver, data)

    def close(self) -> None:
        """Close the pipe; the peer's on_error, if it installed one, hears
        SessionSevered at this instant."""
        if self.state != "open":
            return
        self.state = self.peer.state = "closed"
        channels = self._provider.channels
        del channels[self if self in channels else self.peer]
        fn = self.peer._on_error
        if fn is not None:
            self._provider.sim.schedule(
                0.0, fn, SessionSevered(f"channel closed by {self.node}"))

    def _deliver(self, data: bytes) -> None:
        if self.state != "open":
            return
        fn = self._on_message
        if fn is None:
            self._inbox.append(data)
        else:
            fn(data)

    def _sever(self, reason: Exception) -> None:
        """Sever the pipe from the opener's end: this end hears it first."""
        self.state = self.peer.state = "severed"
        del self._provider.channels[self]
        for end in (self, self.peer):
            if end._on_error is not None:
                self._provider.sim.schedule(
                    self._provider.hop_latency(), end._on_error, reason)


class InstancePool:
    """Warm standby instances by image kind, replenished on consumption."""

    def __init__(self, provider: "CloudProvider", s: int):
        self.provider = provider
        self.s = s
        self.available: dict[ImageKind, list[Instance]] = {kind: [] for kind in ImageKind}
        self._counter = itertools.count(1)

    def fill(self, requirements: dict[ImageKind, int]) -> list[Instance]:
        created = []
        for kind in ImageKind:
            for _ in range(requirements.get(kind, 0)):
                created.append(self._create(kind))
        return created

    def _create(self, image: ImageKind) -> Instance:
        short = {ImageKind.MULTICASTER: "m", ImageKind.REQUESTS_SERVER: "r",
                 ImageKind.POLLING_TARGET: "t"}[image]
        inst = self.provider.create_instance(
            image, instance_id=f"{POOL_ID_PREFIX}{short}-{next(self._counter)}",
            tags={"pool": "standby"})
        inst.ready.add_done_callback(lambda fut, i=inst: self._on_ready(i, fut))
        return inst

    def _on_ready(self, inst: Instance, fut: Future) -> None:
        if fut.failed or inst.state != InstanceState.RUNNING:
            return
        if inst.tags.get("pool") == "standby":
            self.available[inst.image].append(inst)

    def ready_count(self, image: ImageKind) -> int:
        return sum(1 for inst in self.available[image]
                   if inst.state == InstanceState.RUNNING)

    def allocate(self, image: ImageKind) -> Future:
        """The ready future of the instance handed out: already resolved on a
        pool hit, the on-demand instance's own on a miss."""
        stock = self.available[image]
        inst = None
        while stock:
            candidate = stock.pop(0)
            if candidate.state == InstanceState.RUNNING:
                inst = candidate
                break
        if inst is not None:
            self.provider.log.emit(self.provider.sim.now, "pool.allocate",
                                   instance=inst.id,
                                   detail={"image": image.value, "hit": True})
        else:
            self.provider.counters["pool_misses"] += 1
            self.provider.log.emit(self.provider.sim.now, "pool.allocate",
                                   instance=None,
                                   detail={"image": image.value, "hit": False})
            inst = self._create(image)
        inst.tags.pop("pool", None)
        # One replacement per consumed instance keeps the pool at its minimum;
        # an s=0 pool has no minimum to hold.
        if self.s > 0:
            self._create(image)
        return inst.ready


def min_pool_requirements(running: dict[ImageKind, int], s: int) -> dict[ImageKind, int]:
    """Split s across image kinds proportionally to running swappable counts,
    by largest remainder, guaranteeing each present kind >= 1 when s allows."""
    if s < 0:
        raise ValueError("s must be >= 0")
    kinds = [kind for kind in ImageKind if running.get(kind, 0) > 0]
    if not kinds or s == 0:
        return {kind: 0 for kind in kinds}
    total = sum(running[kind] for kind in kinds)
    quotas = {kind: s * running[kind] / total for kind in kinds}
    alloc = {kind: int(quotas[kind]) for kind in kinds}
    leftover = s - sum(alloc.values())
    by_remainder = sorted(kinds, key=lambda kind: (-(quotas[kind] - alloc[kind]),
                                                   kind.value))
    for kind in by_remainder[:leftover]:
        alloc[kind] += 1
    if s >= len(kinds):
        for kind in kinds:
            while alloc[kind] == 0:
                donor = max(kinds, key=lambda other: (alloc[other], other.value))
                alloc[donor] -= 1
                alloc[kind] += 1
    return alloc


class CloudProvider:
    """Single-authority simulated provider plus the traffic bus."""

    def __init__(self, sim: Simulation, log: EventLog, *,
                 provisioning_latency: float = 300.0,
                 hop_latency: tuple[float, float] = (0.001, 0.005),
                 api_latency: tuple[float, float] = (0.05, 0.2)):
        self.sim = sim
        self.log = log
        self.provisioning_latency = provisioning_latency
        self._hop = hop_latency
        # the longest hop_latency() can draw: random.uniform's expression
        # with random() at 1, so no draw rounds above it
        self.hop_max = hop_latency[0] + (hop_latency[1] - hop_latency[0])
        self._api = api_latency
        self.instances: dict[str, Instance] = {}
        self._by_address: dict[str, str] = {}
        self.rules: set[FirewallRule] = set()
        self._handlers: dict[tuple[str, int], dict] = {}
        self._exchanges: dict[Exchange, None] = {}
        self.channels: dict[Channel, None] = {}    # open pipes' opener ends
        self._addr_seq = itertools.count(1)
        self.counters: Counter[str] = Counter()
        self.pool: InstancePool | None = None
        self._net_rng = sim.rng("net")
        self._api_rng = sim.rng("cloud-api")

    # -- latencies ----------------------------------------------------------

    def hop_latency(self) -> float:
        lo, hi = self._hop
        return self._net_rng.uniform(lo, hi)

    def api_latency(self) -> float:
        lo, hi = self._api
        return self._api_rng.uniform(lo, hi)

    # -- instances ----------------------------------------------------------

    def configure_pool(self, s: int) -> InstancePool:
        self.pool = InstancePool(self, s)
        return self.pool

    def create_instance(self, image: ImageKind, *, instance_id: str,
                        tags: dict[str, str] | None = None) -> Instance:
        if instance_id in self.instances:
            raise CloudError(f"instance id {instance_id!r} already exists")
        # host n of 10.0.0.0/8; the last one (10.255.255.255) is broadcast
        n = next(self._addr_seq)
        if n >= 0xFFFFFF:
            raise CloudError("address space 10.0.0.0/8 exhausted")
        address = f"10.{n >> 16}.{(n >> 8) & 0xFF}.{n & 0xFF}"
        inst = Instance(instance_id, image, address, InstanceState.PROVISIONING,
                        dict(tags or {}), self.sim.now)
        self.instances[instance_id] = inst
        self._by_address[address] = instance_id
        self.log.emit(self.sim.now, "instance.provisioning", instance=instance_id,
                      detail={"image": image.value, "address": address})
        self.sim.schedule(self.provisioning_latency, self._finish_provisioning, inst)
        return inst

    def _finish_provisioning(self, inst: Instance) -> None:
        if inst.state != InstanceState.PROVISIONING:
            return
        inst.state = InstanceState.RUNNING
        self.log.emit(self.sim.now, "instance.running", instance=inst.id, detail={})
        inst.ready.resolve(inst)

    def adopt_instance(self, old_id: str, new_id: str,
                       tags: dict[str, str] | None = None) -> Instance:
        """Rename an unattached instance to its digraph node id at attach time."""
        inst = self.instance(old_id)
        if inst.state != InstanceState.RUNNING:
            raise CloudError(f"{old_id!r} is {inst.state.value}, not running")
        if new_id in self.instances:
            raise CloudError(f"node id {new_id!r} already exists")
        del self.instances[old_id]
        inst.id = new_id
        if tags:
            inst.tags.update(tags)
        self.instances[new_id] = inst
        self._by_address[inst.address] = new_id
        self.log.emit(self.sim.now, "instance.adopted", instance=new_id,
                      detail={"pool_id": old_id})
        return inst

    def terminate_instance(self, instance_id: str) -> None:
        inst = self.instance(instance_id)
        if inst.state == InstanceState.TERMINATED:
            raise CloudError(f"{instance_id!r} already terminated")
        inst.state = InstanceState.TERMINATED
        self._by_address.pop(inst.address, None)
        self.unbind(instance_id)
        # Garbage-collect every rule referencing the instance.
        dropped = [r for r in self.rules if instance_id in (r.src, r.dst)]
        for rule in dropped:
            self.rules.discard(rule)
        self._sever_matching(SessionSevered(f"instance {instance_id} terminated"),
                             lambda src, dst, port: instance_id in (src, dst))
        self.log.emit(self.sim.now, "instance.terminated", instance=instance_id,
                      detail={"rules_dropped": len(dropped)})
        if not inst.ready.done:
            inst.ready.reject(CloudError(f"{instance_id!r} terminated"))

    def instance(self, instance_id: str) -> Instance:
        try:
            return self.instances[instance_id]
        except KeyError:
            raise CloudError(instance_id) from None

    # -- rules ----------------------------------------------------------------

    def _check_endpoints(self, rules) -> None:
        for rule in rules:
            for node in (rule.src, rule.dst):
                if node != PUBLIC_INTERNET and node not in self.instances:
                    raise CloudError(node)

    def _revoke(self, rule: FirewallRule) -> None:
        self.rules.discard(rule)
        self._sever_matching(
            SessionSevered(f"rule {rule.src}->{rule.dst}:{rule.port} revoked"),
            lambda src, dst, port: (src, dst, port) == rule)

    def rewrite_rules(self, revoke: list[FirewallRule],
                      grant: list[FirewallRule]) -> None:
        """One atomic security-group transaction: revokes, in the given
        order, plus grants.  Every grant is checked before anything changes."""
        self._check_endpoints(grant)
        for rule in revoke:
            self._revoke(rule)
        self.rules.update(grant)
        self.log.emit(self.sim.now, "rules.rewrite", instance=None,
                      detail={"revoked": [[r.src, r.dst, r.port] for r in sorted(revoke)],
                              "granted": [[r.src, r.dst, r.port] for r in sorted(grant)]})

    def apply_rules(self, rules: frozenset[FirewallRule]) -> None:
        """Install a new deployment's rule table: there is no traffic to sever."""
        self._check_endpoints(rules)
        self.rules = set(rules)
        self.log.emit(self.sim.now, "rules.applied", instance=None,
                      detail={"count": len(self.rules)})

    def allows(self, src: str, dst: str, port: int) -> bool:
        return (src, dst, port) in self.rules

    # -- endpoints -------------------------------------------------------------

    def bind(self, node_id: str, port: int, *, on_request=None, on_channel=None) -> None:
        self.instance(node_id)
        self._handlers[(node_id, port)] = {"request": on_request, "channel": on_channel}

    def unbind(self, node_id: str) -> None:
        for key in [k for k in self._handlers if k[0] == node_id]:
            del self._handlers[key]

    def resolve_address(self, address: str) -> Instance | None:
        node = self._by_address.get(address)
        if node is None:
            return None
        inst = self.instances[node]
        return inst if inst.state == InstanceState.RUNNING else None

    # -- one-shot exchanges ------------------------------------------------------

    def _admit(self, src: str, dst_address: str, port: int, kind: str,
               future: Future) -> tuple[Instance | None, float]:
        """Draw the hop latency, then check that a live instance sits at
        dst_address, a rule lets src reach it on port, and it has a `kind`
        ("request" or "channel") endpoint there.  On a refusal, count it and
        reject `future` one hop later; the instance comes back as None."""
        latency = self.hop_latency()
        inst = self.resolve_address(dst_address)
        if inst is None:
            reason = f"no live instance at {dst_address}"
        elif not self.allows(src, inst.id, port):
            reason = f"{src}->{inst.id}:{port} not permitted"
        elif self._handlers.get((inst.id, port), {}).get(kind) is None:
            reason = f"{inst.id}:{port} has no {kind} endpoint"
        else:
            return inst, latency
        self.counters["refused"] += 1
        self.sim.schedule(latency, future.reject, ConnectionRefused(reason))
        return None, latency

    def request(self, src: str, dst_address: str, port: int, data: bytes) -> Future:
        future = Future()
        inst, latency = self._admit(src, dst_address, port, "request", future)
        if inst is None:
            return future
        ex = Exchange(src, inst.id, port, future)
        self._exchanges[ex] = None
        ex._pending = self.sim.schedule(latency, self._deliver_request, ex, data)
        return future

    def _deliver_request(self, ex: Exchange, data: bytes) -> None:
        # terminate_instance, the only unbind, cancels this delivery
        ex._pending = None
        self._handlers[(ex.dst, ex.port)]["request"](ex, data)

    def respond(self, ex: Exchange, data: bytes) -> None:
        """Called by the destination node to answer an exchange."""
        if ex not in self._exchanges:
            return
        ex._pending = self.sim.schedule(self.hop_latency(), self._deliver_reply, ex, data)

    def _deliver_reply(self, ex: Exchange, data: bytes) -> None:
        # the pending handle is this delivery, which has run: nothing to cancel
        ex._pending = None
        self._finish_exchange(ex)
        ex.future.resolve(data)

    def _finish_exchange(self, ex: Exchange) -> None:
        if ex._pending is not None:
            ex._pending.cancel()
            ex._pending = None
        del self._exchanges[ex]

    # -- channels ------------------------------------------------------------------

    def open_channel(self, src: str, dst_address: str, port: int) -> Future:
        """Future resolving to src's end of a new channel; the on_channel
        handler bound at the destination receives the other end."""
        future = Future()
        inst, latency = self._admit(src, dst_address, port, "channel", future)
        if inst is None:
            return future
        channel = Channel(self, src, port)
        channel.peer = Channel(self, inst.id, port)
        channel.peer.peer = channel
        self.channels[channel] = None
        self.sim.schedule(latency, self._accept_channel, channel, future)
        return future

    def _accept_channel(self, channel: Channel, future: Future) -> None:
        if channel.state != "open":
            future.reject(SessionSevered("channel severed during open"))
            return
        # terminate_instance, the only unbind, severs the channel
        accepted = channel.peer
        self._handlers[(accepted.node, channel.port)]["channel"](accepted)
        self.sim.schedule(self.hop_latency(), self._channel_ready, channel, future)

    def _channel_ready(self, channel: Channel, future: Future) -> None:
        if channel.state != "open":
            future.reject(SessionSevered("channel severed during open"))
        else:
            future.resolve(channel)

    def channel_arrival(self, to: Channel, sent: float) -> float:
        """The time a frame sent at `sent` reaches the end `to`.

        FIFO per direction: a frame must not overtake an earlier one even
        when it draws a shorter hop latency.  The draw is hop_latency()
        inline: random.uniform's own expression, so bit-identical.  The
        poller's inline round trips draw their arrivals here too.
        """
        lo, hi = self._hop
        at = sent + (lo + (hi - lo) * self._net_rng.random())
        if at < to._last_at:
            at = to._last_at
        to._last_at = at
        return at

    # -- severance ---------------------------------------------------------------

    def _sever_matching(self, reason: SessionSevered,
                        hit: Callable[[str, str, int], bool]) -> None:
        """Cut every in-flight exchange, in insertion order, and then every
        open channel, in open order, whose (src, dst, port) is a hit.  Each
        cut draws a hop latency, so this order is part of the run."""
        for ex in [e for e in self._exchanges if hit(e.src, e.dst, e.port)]:
            self._kill_exchange(ex, reason)
        for ch in [c for c in self.channels if hit(c.node, c.peer.node, c.port)]:
            ch._sever(reason)

    def _kill_exchange(self, ex: Exchange, reason: Exception) -> None:
        self._finish_exchange(ex)
        self.counters["severed"] += 1
        self.sim.schedule(self.hop_latency(), ex.future.reject, reason)

    # -- inspection ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """The instances and rules, sorted, as a JSON document."""
        return {
            "t": self.sim.now,
            "instances": [i.to_dict() for i in
                          sorted(self.instances.values(), key=lambda i: i.id)],
            "rules": [{"src": r.src, "dst": r.dst, "port": r.port}
                      for r in sorted(self.rules)],
        }
