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
from dataclasses import dataclass, field, fields, replace

from . import reporting, wire
from .addresses import AddressServer
from .cloud import CloudProvider
from .deploy import deploy_misery, deploy_normal
from .errors import ConfigError, MiserySimError
from .eventlog import EventLog
from .movement import MovementManager
from .reporting import is_int, is_number
from .sim import Future, PRIO_LOAD, Simulation
from .topology import HTTP, PUBLIC_INTERNET, MiseryDigraphSpec, build_misery_digraph


@dataclass(frozen=True)
class LatencyModel:
    """Uniform ranges (seconds) for the simulated physical world."""

    hop: tuple[float, float] = (0.001, 0.005)
    api: tuple[float, float] = (0.05, 0.2)
    notify: tuple[float, float] = (0.5, 1.5)
    provisioning: float = 300.0

    def validate(self) -> None:
        for name in ("hop", "api", "notify"):
            lo, hi = getattr(self, name)
            if not (0 <= lo <= hi and math.isfinite(hi)):
                raise ConfigError(f"latency range {name} must be finite and "
                                  f"satisfy 0 <= lo <= hi")
        if not (self.provisioning >= 0 and math.isfinite(self.provisioning)):
            raise ConfigError("provisioning latency must be finite and >= 0")

    def to_json_dict(self) -> dict:
        return {"hop": list(self.hop), "api": list(self.api),
                "notify": list(self.notify), "provisioning": self.provisioning}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LatencyModel":
        if not isinstance(doc, dict):
            raise ConfigError("latency must be an object")
        unknown = set(doc) - {"hop", "api", "notify", "provisioning"}
        if unknown:
            raise ConfigError(f"unknown latency keys: {sorted(unknown)}")
        kwargs = {}
        for name in ("hop", "api", "notify"):
            if name in doc:
                pair = doc[name]
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                        and all(map(is_number, pair))):
                    raise ConfigError(f"latency range {name} must be a "
                                      f"[lo, hi] pair of numbers")
                kwargs[name] = tuple(pair)
        if "provisioning" in doc:
            if not is_number(doc["provisioning"]):
                raise ConfigError("provisioning latency must be a number")
            kwargs["provisioning"] = float(doc["provisioning"])
        return cls(**kwargs)


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
        self.latency.validate()

    def to_json_dict(self) -> dict:
        return {"d": self.d, "k": self.k, "j": self.j, "r": self.r,
                "u": self.u, "m": self.m, "s": self.s,
                "request_interval": self.request_interval,
                "compress": self.compress, "rng_seed": self.rng_seed,
                "n_requests": self.n_requests,
                "latency": self.latency.to_json_dict()}

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
        try:
            return cls(**kwargs)
        except TypeError as err:
            raise ConfigError(str(err)) from err

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

    def _eligible(self, i: int) -> list[str]:
        return [k for k, last in self._live.items() if i - last >= self.MIN_AGE]

    def next(self, i: int) -> str:
        roll = self._rng.random()
        # only a read or a delete needs the eligible keys: a scan of every
        # live key, so a write skips it
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

    def record_outcome(self, i: int, processed: bool) -> None:
        op_key = self._outstanding.pop(i, None)
        if op_key is None:
            return
        op, key = op_key
        if op == "PUT":
            if processed:
                self._live[key] = i
            # a failed write leaves the key unknown server-side: never reuse it
        elif op == "GET":
            if processed and key in self._live:
                self._live[key] = i
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
        self.issued = 0

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
            self.issued = i = i + 1
            yield cfg.request_interval
        return self.issued

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
            name = type(raced.exception()).__name__
            kind = "refused" if name == "ConnectionRefused" else "severed"
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


def run_experiment(cfg: ExperimentConfig, *,
                   replay: list[str] | None = None) -> ExperimentResult:
    """Run one full experiment on a fresh virtual clock; returns the report,
    the event log, and the live deployment for inspection."""
    cfg.validate()
    sim = Simulation(cfg.rng_seed)
    log = EventLog()
    log.emit(0.0, "experiment.config", config=cfg.to_json_dict())
    provider = CloudProvider(
        sim, log,
        provisioning_latency=cfg.latency.provisioning,
        hop_latency=cfg.latency.hop,
        api_latency=cfg.latency.api)
    addresses = AddressServer(sim, log, notify_latency=cfg.latency.notify)

    if cfg.d == 0:
        deploy_task = sim.spawn(deploy_normal(provider, addresses, u=cfg.u))
    else:
        deploy_task = sim.spawn(deploy_misery(
            provider, addresses, build_experiment_digraph(cfg),
            u=cfg.u, m=cfg.m, s=cfg.s))
    deployment = sim.run_until(deploy_task.future)
    epoch = sim.now

    if cfg.d != 0:
        MovementManager(deployment, cfg.r).start(epoch, cfg.j)

    workload = WorkloadGenerator(cfg.rng_seed) if replay is None else None
    load = LoadGenerator(provider, deployment.entry_address, cfg,
                         workload=workload, replay=replay)
    load_task = sim.spawn(load.run(), priority=PRIO_LOAD)

    sim.run_until(load_task.future, pace=cfg.compress)
    sim.run(until=sim.now + cfg.u + 2.0)

    consistency = deployment.consistency_check() if cfg.d != 0 else []
    report = reporting.metrics_from_records(log.records)
    log.emit(sim.now, "experiment.summary", metrics=report.to_json_dict(),
             consistency=list(consistency),
             counters=dict(sorted(provider.counters.items())))
    return ExperimentResult(cfg, report, log, deployment, sim, consistency)
