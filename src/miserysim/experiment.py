"""Experiment runner: config, load generation, and the full pipeline.

run_experiment builds the topology (misery digraph, or the three-node chain
when d=0), deploys it into a fresh simulated cloud, starts the movement
process (d>0), and drives a closed-loop client: issue a request, wait for the
response up to u, think for request_interval, repeat.  The closed loop makes
depth visible in throughput the way a sequential benchmark tool sees it:
deeper digraphs answer slower, so fewer requests fit in the experiment
window, independent of failures.

The workload is a key-value command stream with causal feedback: reads and
deletes only ever reference keys whose writes this run confirmed, at least
ten requests back, and a key is never rewritten.  Replies are therefore a
pure function of the command itself, which is what makes the baseline-chain
differential comparison exact, and any key touched by a failed command is
quarantined because its server-side state is unknowable.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field, fields, replace

from . import reporting, wire
from .addresses import AddressServer
from .cloud import CloudProvider
from .deploy import deploy_misery, deploy_normal
from .errors import ConfigError, ConnectionRefused, MiserySimError
from .eventlog import EventLog
from .movement import MovementManager
from .reporting import is_int, is_number
from .sim import Future, Simulation
from .topology import (
    HTTP,
    MAX_INSTANCES,
    PUBLIC_INTERNET,
    MiseryDigraphSpec,
    build_misery_digraph,
    node_count,
)

DRAIN = 2.0    # the run goes on u + DRAIN seconds after the client stops

# caps on the work a valid config implies, so that every run ends in bounded
# host time; each is over 100x what any shipped shape or test needs
MAX_POLL_CYCLES = 10_000_000
MAX_MOVEMENT_CYCLES = 100_000


@dataclass(frozen=True)
class LatencyModel:
    """Uniform ranges (seconds) for the simulated physical world."""

    hop: tuple[float, float] = (0.001, 0.005)
    api: tuple[float, float] = (0.05, 0.2)
    notify: tuple[float, float] = (0.5, 1.5)
    provisioning: float = 300.0

    def validate(self) -> None:
        # a file or a caller can hand in any type: check it before comparing
        for name in ("hop", "api", "notify"):
            pair = getattr(self, name)
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(map(is_number, pair))
                    and 0 <= pair[0] <= pair[1] and math.isfinite(pair[1])):
                raise ConfigError(f"latency range {name} must be a (lo, hi) pair "
                                  f"of finite numbers with 0 <= lo <= hi")
        provisioning = self.provisioning
        if not (is_number(provisioning) and provisioning >= 0
                and math.isfinite(provisioning)):
            raise ConfigError("provisioning latency must be a finite number >= 0")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LatencyModel":
        if not isinstance(doc, dict):
            raise ConfigError("latency must be an object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown latency keys: {sorted(unknown)}")
        # a JSON [lo, hi] list is the model's (lo, hi) tuple
        model = cls(**{name: tuple(value) if isinstance(value, list) else value
                       for name, value in doc.items()})
        model.validate()
        return model


@dataclass(frozen=True)
class ExperimentConfig:
    d: int = 3
    k: int = 2
    j: float = 600.0
    r: float = 100.0
    u: float = 1.0
    m: float = 0.1
    s: int = 8
    request_interval: float = 0.8
    compress: float = 0.0
    rng_seed: int = 0
    n_requests: int | None = None
    latency: LatencyModel = field(default_factory=LatencyModel)

    def validate(self) -> None:
        # a config file can carry any JSON type; check them before comparing
        for name in ("d", "k", "s", "rng_seed"):
            if not is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
        if self.n_requests is not None and not is_int(self.n_requests):
            raise ConfigError("n_requests must be an integer when set")
        for name in ("j", "r", "u", "m", "request_interval", "compress"):
            if not is_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a number")
        if self.d == 0:
            if self.k != 0:
                raise ConfigError("d=0 (normal cloud) requires k=0")
        elif self.d < 2:
            raise ConfigError(f"d must be 0 or >= 2, got {self.d}")
        elif self.k < 1:
            raise ConfigError(f"k must be >= 1 when d > 0, got {self.k}")
        # a NaN compares false both ways and an infinite duration never
        # ends, so either one would stall the run or silently disable a part
        for name in ("j", "r", "u", "m", "request_interval"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"duration {name} must be finite and > 0")
        if self.s < 0:
            raise ConfigError("pool size s must be >= 0")
        if not (self.compress >= 0 and math.isfinite(self.compress)):
            raise ConfigError("compress must be finite and >= 0")
        if self.n_requests is not None and self.n_requests < 1:
            raise ConfigError("n_requests must be >= 1 when set")
        if not isinstance(self.latency, LatencyModel):
            raise ConfigError("latency must be a LatencyModel")
        self.latency.validate()
        # with zero hop latency a poller sleeping m <= ulp(t) / 2 wakes at t
        # forever, and so does a movement loop of skipped cycles (they take
        # no time) at r <= ulp(t) / 2; a run ends by provisioning + j + u +
        # think, then u + DRAIN
        last = (self.latency.provisioning + self.j + 2 * self.u
                + self.request_interval + DRAIN)
        for name, what in (("m", "poll interval"), ("r", "movement period")):
            value = getattr(self, name)
            if not value > math.ulp(last) / 2:
                raise ConfigError(f"{what} {name}={value} stalls the clock at t={last}")
        # a value just above those floors still runs for as long as its work
        # takes: count the instances, the digraph's and the s standbys
        # (without building the digraph), then the poll and movement cycles
        instances = self.s + node_count(self.d, self.k, MAX_INSTANCES - self.s)
        if instances > MAX_INSTANCES:
            raise ConfigError(
                f"d={self.d}, k={self.k}, s={self.s} makes over {MAX_INSTANCES} "
                f"instances (the sum of k**(i-1) for i = 1..d, plus s), above "
                f"the cap")
        span = self.j + 2 * self.u + self.request_interval + DRAIN
        terms = f"j + 2u + request_interval + {DRAIN}"
        if self.s == 0 and self.d > 0:
            # each reset of the last movement cycle, which may start at j,
            # waits out provisioning, and the run waits for its tables
            span += (2 * self.latency.provisioning + 6 * self.latency.api[1]
                     + self.latency.notify[1])
            terms += " + 2 provisioning + 6 api_hi + notify_hi"
        polls = span / (self.m + 2 * self.latency.hop[0])
        if polls > MAX_POLL_CYCLES:
            raise ConfigError(
                f"({terms}) / (m + 2 hop_lo) = {polls:.4g} poll cycles, above "
                f"the cap of {MAX_POLL_CYCLES}")
        if self.j / self.r > MAX_MOVEMENT_CYCLES:
            raise ConfigError(
                f"j / r = {self.j / self.r:.4g} movement cycles, above the cap "
                f"of {MAX_MOVEMENT_CYCLES}")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be an object")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(doc)
        if "latency" in kwargs:
            kwargs["latency"] = LatencyModel.from_json_dict(kwargs["latency"])
        return cls(**kwargs)

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})


class WorkloadGenerator:
    """Causally-safe key-value command stream with per-run feedback.

    Roughly 60% writes of fresh unique keys, 30% reads, 10% deletes.  Reads
    and deletes draw only from keys confirmed at least MIN_AGE requests ago;
    deletes are terminal for a key; keys whose write or delete failed are
    quarantined forever.  The stream is deterministic given the seed and the
    outcome sequence reported back via record_outcome.
    """

    MIN_AGE = 10

    def __init__(self, seed: int):
        self._rng = random.Random(f"{seed}/workload")
        self._live: dict[str, int] = {}      # confirmed key -> last touch index
        self._outstanding: dict[int, tuple[str, str]] = {}   # index -> (op, key)
        self._touched: dict[int, str] = {}   # recent index -> the key it touched

    def _eligible(self, i: int) -> list[str]:
        """The live keys last touched MIN_AGE or more requests before i, in
        insertion order.  Indices rise and each touches one key, so only the
        keys of the last MIN_AGE - 1 indices can be too recent: copy the
        live keys and drop those few instead of testing every key's age."""
        eligible = dict(self._live)
        for j in range(i - self.MIN_AGE + 1, i):
            key = self._touched.get(j)
            if key is not None and eligible.get(key) == j:
                del eligible[key]
        return list(eligible)

    def next(self, i: int) -> str:
        self._touched.pop(i - self.MIN_AGE, None)
        roll = self._rng.random()
        # only a read or a delete needs the eligible keys, so a write skips
        # building them
        if roll >= 0.6:
            eligible = self._eligible(i)
            if eligible:
                op = "GET" if roll < 0.9 else "DEL"
                key = self._rng.choice(eligible)
                self._outstanding[i] = (op, key)
                return f"{op} {key}"
        key = f"k{i:05d}"
        self._outstanding[i] = ("PUT", key)
        return f"PUT {key} v{i:05d}"

    def _touch(self, key: str, i: int) -> None:
        self._live[key] = i
        self._touched[i] = key

    def record_outcome(self, i: int, processed: bool) -> None:
        op_key = self._outstanding.pop(i, None)
        if op_key is None:
            return
        op, key = op_key
        if op == "PUT":
            if processed:
                self._touch(key, i)
            # a failed write leaves the key unknown server-side: never reuse it
        elif op == "GET":
            if processed and key in self._live:
                self._touch(key, i)
        elif op == "DEL":
            # delete is terminal whether it landed or not
            self._live.pop(key, None)


class LoadGenerator:
    """Closed-loop client on the public side of the entry point."""

    def __init__(self, provider: CloudProvider, entry_address: str,
                 cfg: ExperimentConfig,
                 workload: WorkloadGenerator | None = None,
                 replay: list[str] | None = None):
        if (workload is None) == (replay is None):
            raise ValueError("exactly one of workload or replay required")
        self.sim = provider.sim
        self.provider = provider
        self.entry_address = entry_address
        self.cfg = cfg
        self.log = provider.log
        self.workload = workload
        self.replay = replay

    def run(self):
        cfg = self.cfg
        epoch = self.sim.now
        deadline = epoch + cfg.j
        i = 0
        while self.sim.now < deadline:
            if cfg.n_requests is not None and i >= cfg.n_requests:
                break
            if self.replay is not None:
                if i >= len(self.replay):
                    break
                command = self.replay[i]
            else:
                command = self.workload.next(i)
            issued_at = self.sim.now
            self.log.emit(issued_at, "request.issued", i=i, command=command)
            future = self.provider.request(
                PUBLIC_INTERNET, self.entry_address, HTTP.port,
                wire.encode_http_request("POST", "/", command.encode("utf-8")))
            kind, status, headers, body = yield from self._await(future)
            latency = self.sim.now - issued_at
            processed = kind == "reply" and status == 200
            detail = "ok" if processed else (
                kind if kind != "reply" else f"http-{status}")
            self.log.emit(self.sim.now, "request.done", i=i,
                          corr=headers.get("x-request-id", ""),
                          issued_at=issued_at, latency=latency,
                          outcome="processed" if processed else "failed",
                          status=status or 0, detail=detail,
                          response=body.decode("utf-8", "replace"))
            if self.workload is not None:
                self.workload.record_outcome(i, processed)
            i += 1
            yield cfg.request_interval
        return i

    def _await(self, future: Future):
        """Race the reply against the client timeout u."""
        done = Future()
        timer = self.sim.schedule(self.cfg.u, done.resolve, None)

        def on_reply(fut: Future) -> None:
            timer.cancel()
            done.resolve(fut)

        future.add_done_callback(on_reply)
        raced = yield done
        if raced is None:
            return "timeout", None, {}, b""
        if raced.failed:
            refused = isinstance(raced.exception(), ConnectionRefused)
            kind = "refused" if refused else "severed"
            return kind, None, {}, b""
        try:
            status, headers, body = wire.parse_http_response(raced.result())
        except MiserySimError:
            return "bad-reply", None, {}, b""
        return "reply", status, headers, body


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    report: "reporting.MetricsReport"
    log: EventLog
    deployment: object
    sim: Simulation
    consistency: list[str]

    @property
    def records(self) -> list[dict]:
        return self.log.records

    @property
    def store(self):
        return self.deployment.store


def build_experiment_digraph(cfg: ExperimentConfig):
    """The digraph a `run` deploys: the protected chain expanded to (d, k)."""
    return build_misery_digraph(MiseryDigraphSpec(cfg.d, cfg.k))


def build_cloud(cfg: ExperimentConfig,
                log: EventLog) -> tuple[CloudProvider, AddressServer]:
    """A fresh virtual clock seeded with the run's seed, and the cloud and
    Address Server on it, with the run's latencies."""
    sim, latency = Simulation(cfg.rng_seed), cfg.latency
    provider = CloudProvider(sim, log, provisioning_latency=latency.provisioning,
                             hop_latency=latency.hop, api_latency=latency.api)
    return provider, AddressServer(sim, log, notify_latency=latency.notify)


def run_experiment(cfg: ExperimentConfig, *,
                   replay: list[str] | None = None) -> ExperimentResult:
    """Run one full experiment on a fresh virtual clock; returns the report,
    the event log, and the live deployment for inspection."""
    cfg.validate()
    log = EventLog()
    log.emit(0.0, "experiment.config", config=asdict(cfg))
    provider, addresses = build_cloud(cfg, log)
    sim = provider.sim

    if cfg.d == 0:
        deploy_task = sim.spawn(deploy_normal(provider, addresses, u=cfg.u))
    else:
        deploy_task = sim.spawn(deploy_misery(
            provider, addresses, build_experiment_digraph(cfg),
            u=cfg.u, m=cfg.m, s=cfg.s))
    deployment = sim.run_until(deploy_task.future)
    epoch = sim.now

    movement = None
    if cfg.d != 0:
        movement = MovementManager(deployment, cfg.r)
        movement.start(epoch, cfg.j)

    workload = WorkloadGenerator(cfg.rng_seed) if replay is None else None
    load = LoadGenerator(provider, deployment.entry_address, cfg,
                         workload=workload, replay=replay)
    load_task = sim.spawn(load.run())

    sim.run_until(load_task.future, pace=cfg.compress)
    sim.run(until=sim.now + cfg.u + DRAIN)
    if movement is not None and not movement.settled.done:
        # a cycle still runs (with s=0 each reset waits out provisioning):
        # the sweep must not compare its switched digraph with tables it has
        # not pushed yet, so let it end and its updates land
        sim.run_until(movement.settled)
        sim.run(until=sim.now + addresses.notify_bound)

    consistency = deployment.consistency_check()
    report = reporting.metrics_from_records(log.records)
    log.emit(sim.now, "experiment.summary", metrics=asdict(report),
             consistency=list(consistency),
             counters=dict(sorted(provider.counters.items())))
    return ExperimentResult(cfg, report, log, deployment, sim, consistency)
