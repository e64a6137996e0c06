"""Simulated cloud provider: instances, security groups, traffic, pool.

The provider is the single authority over instance lifecycles, pair rules and
every byte in flight.  Traffic comes in two shapes: a one-shot request/reply
Exchange (one frame each way, used on tree hops and for the public entry
surface) and a Channel (an ordered bidirectional pipe, used for the
handshake and poll dialogues).  Both check the firewall at the attempt
instant; a later rule revocation or instance termination severs them, which
is how transformation windows surface as failed requests.
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import (
    CapacityExceeded,
    ConnectionRefused,
    InvalidState,
    SessionSevered,
    UnknownInstance,
)
from .eventlog import EventLog
from .sim import Future, PRIO_NETWORK, PRIO_PROVIDER, Simulation
from .topology import PUBLIC_INTERNET, FirewallRuleSet

logger = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class RuleKey:
    src: str
    dst: str
    port: int


@dataclass(frozen=True)
class CloudSnapshot:
    t: float
    instances: tuple[Instance, ...]
    rules: tuple[RuleKey, ...]

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "instances": [i.to_dict() for i in self.instances],
            "rules": [{"src": r.src, "dst": r.dst, "port": r.port} for r in self.rules],
        }


class Exchange:
    """One request frame and one reply frame between two endpoints."""

    __slots__ = ("seq", "src", "dst", "port", "future", "dead", "_pending")

    def __init__(self, seq: int, src: str, dst: str, port: int, future: Future):
        self.seq = seq
        self.src = src
        self.dst = dst
        self.port = port
        self.future = future
        self.dead = False
        self._pending = None  # handle of the in-flight delivery event


class Channel:
    """Ordered bidirectional message pipe; sides are "a" (opener) and "b".

    The bus is message-framed: each send arrives at the peer as one whole
    message, never split or merged, so receivers decode one message at a
    time.  Incoming messages are buffered until the side installs an
    on_message callback.  state is open | closed | severed; severance
    rejects both sides via their on_error callbacks (this is the
    attacker-session audit surface for movement), and a close by one side
    rejects the other's.
    """

    __slots__ = ("seq", "a", "b", "port", "state", "_provider",
                 "_on_message", "_on_error", "_inbox", "_last_at")

    def __init__(self, provider: "CloudProvider", seq: int, a: str, b: str, port: int):
        self.seq = seq
        self.a = a
        self.b = b
        self.port = port
        self.state = "open"
        self._provider = provider
        self._on_message: dict[str, Callable[[bytes], None] | None] = {"a": None, "b": None}
        self._on_error: dict[str, Callable[[Exception], None] | None] = {"a": None, "b": None}
        self._inbox: dict[str, list[bytes]] = {"a": [], "b": []}
        self._last_at: dict[str, float] = {"a": 0.0, "b": 0.0}

    def endpoint(self, side: str) -> str:
        return self.a if side == "a" else self.b

    def peer(self, side: str) -> str:
        return self.b if side == "a" else self.a

    def on_message(self, side: str, fn: Callable[[bytes], None]) -> None:
        self._on_message[side] = fn
        queued, self._inbox[side] = self._inbox[side], []
        for data in queued:
            fn(data)

    def on_error(self, side: str, fn: Callable[[Exception], None]) -> None:
        self._on_error[side] = fn

    def send(self, side: str, data: bytes) -> None:
        if self.state != "open":
            return
        self._provider._channel_send(self, "b" if side == "a" else "a", data)

    def close(self, side: str) -> None:
        """Close from `side`; the peer's on_error, if it installed one,
        hears SessionSevered at this instant."""
        if self.state != "open":
            return
        self.state = "closed"
        fn = self._on_error["b" if side == "a" else "a"]
        if fn is not None:
            self._provider.sim.schedule(
                0.0, fn, SessionSevered(f"channel closed by {self.endpoint(side)}"),
                priority=PRIO_NETWORK)

    def _deliver(self, side: str, data: bytes) -> None:
        if self.state != "open":
            return
        fn = self._on_message[side]
        if fn is None:
            self._inbox[side].append(data)
        else:
            fn(data)

    def _sever(self, reason: Exception) -> None:
        if self.state != "open":
            return
        self.state = "severed"
        for side in ("a", "b"):
            fn = self._on_error[side]
            if fn is not None:
                self._provider.sim.schedule(
                    self._provider.hop_latency(), fn, reason, priority=PRIO_NETWORK)


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
            image, instance_id=f"pool-{short}-{next(self._counter)}",
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
        """Future resolving to a Running instance; instant on a pool hit."""
        out = Future()
        stock = self.available[image]
        ready = None
        while stock:
            candidate = stock.pop(0)
            if candidate.state == InstanceState.RUNNING:
                ready = candidate
                break
        if ready is not None:
            ready.tags.pop("pool", None)
            self.provider.log.emit(self.provider.sim.now, "pool.allocate",
                                   instance=ready.id,
                                   detail={"image": image.value, "hit": True})
            out.resolve(ready)
        else:
            self.provider.counters["pool_misses"] += 1
            self.provider.log.emit(self.provider.sim.now, "pool.allocate",
                                   instance=None,
                                   detail={"image": image.value, "hit": False})
            on_demand = self._create(image)
            on_demand.tags.pop("pool", None)

            def _done(fut: Future, inst: Instance = on_demand) -> None:
                if fut.failed:
                    out.reject(fut.exception())
                else:
                    out.resolve(inst)

            on_demand.ready.add_done_callback(_done)
        # One replacement per consumed instance keeps the pool at its minimum;
        # an s=0 pool has no minimum to hold.
        if self.s > 0:
            self._create(image)
        return out


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
                 api_latency: tuple[float, float] = (0.05, 0.2),
                 instance_cap: int | None = None):
        self.sim = sim
        self.log = log
        self.provisioning_latency = provisioning_latency
        self._hop = hop_latency
        self._api = api_latency
        self.instance_cap = instance_cap
        self.instances: dict[str, Instance] = {}
        self._by_address: dict[str, str] = {}
        self.rules: set[RuleKey] = set()
        self._handlers: dict[tuple[str, int], dict] = {}
        self._exchanges: dict[int, Exchange] = {}
        self.channels: list[Channel] = []
        self._seq = itertools.count(1)
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

    def _live_count(self) -> int:
        return sum(1 for i in self.instances.values()
                   if i.state != InstanceState.TERMINATED)

    def create_instance(self, image: ImageKind, *, instance_id: str | None = None,
                        tags: dict[str, str] | None = None) -> Instance:
        if self.instance_cap is not None and self._live_count() >= self.instance_cap:
            raise CapacityExceeded(f"instance cap {self.instance_cap} reached")
        if instance_id is None:
            instance_id = f"i-{next(self._addr_seq):06d}"
        if instance_id in self.instances:
            raise InvalidState(f"instance id {instance_id!r} already exists")
        n = next(self._addr_seq)
        address = f"10.0.{(n >> 8) & 0xFF}.{n & 0xFF}"
        inst = Instance(instance_id, image, address, InstanceState.PROVISIONING,
                        dict(tags or {}), self.sim.now)
        self.instances[instance_id] = inst
        self._by_address[address] = instance_id
        self.log.emit(self.sim.now, "instance.provisioning", instance=instance_id,
                      detail={"image": image.value, "address": address})
        self.sim.schedule(self.provisioning_latency, self._finish_provisioning,
                          inst, priority=PRIO_PROVIDER)
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
        inst = self._get(old_id)
        if inst.state != InstanceState.RUNNING:
            raise InvalidState(f"{old_id!r} is {inst.state.value}, not running")
        if new_id in self.instances:
            raise InvalidState(f"node id {new_id!r} already exists")
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
        inst = self._get(instance_id)
        if inst.state == InstanceState.TERMINATED:
            raise UnknownInstance(f"{instance_id!r} already terminated")
        inst.state = InstanceState.TERMINATED
        self._by_address.pop(inst.address, None)
        self.unbind(instance_id)
        # Garbage-collect every rule referencing the instance.
        dropped = [r for r in self.rules if instance_id in (r.src, r.dst)]
        for rule in dropped:
            self.rules.discard(rule)
        self._sever_instance(instance_id)
        self.log.emit(self.sim.now, "instance.terminated", instance=instance_id,
                      detail={"rules_dropped": len(dropped)})
        if not inst.ready.done:
            inst.ready.reject(InvalidState(f"{instance_id!r} terminated"))

    def _get(self, instance_id: str) -> Instance:
        try:
            return self.instances[instance_id]
        except KeyError:
            raise UnknownInstance(instance_id) from None

    def instance(self, instance_id: str) -> Instance:
        return self._get(instance_id)

    # -- rules ----------------------------------------------------------------

    def _check_endpoint(self, node: str) -> None:
        if node != PUBLIC_INTERNET and node not in self.instances:
            raise UnknownInstance(node)

    def grant(self, src: str, dst: str, port: int) -> None:
        self._check_endpoint(src)
        self._check_endpoint(dst)
        self.rules.add(RuleKey(src, dst, port))

    def revoke(self, src: str, dst: str, port: int) -> None:
        key = RuleKey(src, dst, port)
        self.rules.discard(key)
        self._sever_edge(key)

    def rewrite_rules(self, revoke: list[tuple[str, str, int]],
                      grant: list[tuple[str, str, int]]) -> None:
        """One atomic security-group transaction: revokes plus grants."""
        for src, dst, port in grant:
            self._check_endpoint(src)
            self._check_endpoint(dst)
        for src, dst, port in revoke:
            key = RuleKey(src, dst, port)
            self.rules.discard(key)
            self._sever_edge(key)
        for src, dst, port in grant:
            self.rules.add(RuleKey(src, dst, port))
        self.log.emit(self.sim.now, "rules.rewrite", instance=None,
                      detail={"revoked": sorted([list(r) for r in revoke]),
                              "granted": sorted([list(g) for g in grant])})

    def apply_rules(self, ruleset: FirewallRuleSet) -> None:
        """Wholesale replacement of the rule table (initial deployment)."""
        for rule in ruleset:
            self._check_endpoint(rule.src)
            self._check_endpoint(rule.dst)
        target = {RuleKey(r.src, r.dst, r.port) for r in ruleset}
        for gone in sorted(self.rules - target, key=lambda r: (r.src, r.dst, r.port)):
            self.rules.discard(gone)
            self._sever_edge(gone)
        self.rules |= target
        self.log.emit(self.sim.now, "rules.applied", instance=None,
                      detail={"count": len(self.rules)})

    def allows(self, src: str, dst: str, port: int) -> bool:
        return RuleKey(src, dst, port) in self.rules

    # -- endpoints -------------------------------------------------------------

    def bind(self, node_id: str, port: int, *, on_request=None, on_channel=None) -> None:
        self._get(node_id)
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
        self.sim.schedule(latency, future.reject, ConnectionRefused(reason),
                          priority=PRIO_NETWORK)
        return None, latency

    def request(self, src: str, dst_address: str, port: int, data: bytes) -> Future:
        future = Future()
        inst, latency = self._admit(src, dst_address, port, "request", future)
        if inst is None:
            return future
        ex = Exchange(next(self._seq), src, inst.id, port, future)
        self._exchanges[ex.seq] = ex
        ex._pending = self.sim.schedule(latency, self._deliver_request, ex, data,
                                        priority=PRIO_NETWORK)
        return future

    def _deliver_request(self, ex: Exchange, data: bytes) -> None:
        if ex.dead:
            return
        ex._pending = None
        handler = self._handlers.get((ex.dst, ex.port))
        if handler is None or handler["request"] is None:
            self._finish_exchange(ex)
            ex.future.reject(ConnectionRefused(f"{ex.dst}:{ex.port} endpoint gone"))
            return
        handler["request"](ex, data)

    def respond(self, ex: Exchange, data: bytes) -> None:
        """Called by the destination node to answer an exchange."""
        if ex.dead:
            return
        ex._pending = self.sim.schedule(self.hop_latency(), self._deliver_reply,
                                        ex, data, priority=PRIO_NETWORK)

    def _deliver_reply(self, ex: Exchange, data: bytes) -> None:
        if ex.dead:
            return
        self._finish_exchange(ex)
        ex.future.resolve(data)

    def _finish_exchange(self, ex: Exchange) -> None:
        ex.dead = True
        if ex._pending is not None:
            ex._pending.cancel()
            ex._pending = None
        self._exchanges.pop(ex.seq, None)

    # -- channels ------------------------------------------------------------------

    def open_channel(self, src: str, dst_address: str, port: int) -> Future:
        future = Future()
        inst, latency = self._admit(src, dst_address, port, "channel", future)
        if inst is None:
            return future
        if len(self.channels) > 64:
            self.channels = [c for c in self.channels if c.state == "open"]
        channel = Channel(self, next(self._seq), src, inst.id, port)
        self.channels.append(channel)
        self.sim.schedule(latency, self._accept_channel, channel, future,
                          priority=PRIO_NETWORK)
        return future

    def _accept_channel(self, channel: Channel, future: Future) -> None:
        if channel.state != "open":
            future.reject(SessionSevered("channel severed during open"))
            return
        handler = self._handlers.get((channel.b, channel.port))
        if handler is None or handler["channel"] is None:
            channel.close("b")
            future.reject(ConnectionRefused(f"{channel.b}:{channel.port} endpoint gone"))
            return
        handler["channel"](channel)
        self.sim.schedule(self.hop_latency(), self._channel_ready, channel, future,
                          priority=PRIO_NETWORK)

    def _channel_ready(self, channel: Channel, future: Future) -> None:
        if channel.state != "open":
            future.reject(SessionSevered("channel severed during open"))
        else:
            future.resolve(channel)

    def _channel_send(self, channel: Channel, to_side: str, data: bytes) -> None:
        # FIFO per direction: a frame must not overtake an earlier one even
        # when it draws a shorter hop latency
        at = max(self.sim.now + self.hop_latency(), channel._last_at[to_side])
        channel._last_at[to_side] = at
        self.sim.schedule_at(at, channel._deliver, to_side, data,
                             priority=PRIO_NETWORK)

    # -- severance ---------------------------------------------------------------

    def _sever_edge(self, key: RuleKey) -> None:
        reason = SessionSevered(f"rule {key.src}->{key.dst}:{key.port} revoked")
        for ex in [e for e in self._exchanges.values()
                   if (e.src, e.dst, e.port) == (key.src, key.dst, key.port)]:
            self._kill_exchange(ex, reason)
        for ch in self.channels:
            if ch.state == "open" and (ch.a, ch.b, ch.port) == (key.src, key.dst, key.port):
                ch._sever(reason)

    def _sever_instance(self, node: str) -> None:
        reason = SessionSevered(f"instance {node} terminated")
        for ex in [e for e in self._exchanges.values() if node in (e.src, e.dst)]:
            self._kill_exchange(ex, reason)
        for ch in self.channels:
            if ch.state == "open" and node in (ch.a, ch.b):
                ch._sever(reason)

    def _kill_exchange(self, ex: Exchange, reason: Exception) -> None:
        self._finish_exchange(ex)
        self.counters["severed"] += 1
        self.sim.schedule(self.hop_latency(), ex.future.reject, reason,
                          priority=PRIO_NETWORK)

    # -- inspection ----------------------------------------------------------------

    def snapshot(self) -> CloudSnapshot:
        instances = tuple(sorted(self.instances.values(), key=lambda i: i.id))
        rules = tuple(sorted(self.rules, key=lambda r: (r.src, r.dst, r.port)))
        return CloudSnapshot(self.sim.now, instances, rules)
