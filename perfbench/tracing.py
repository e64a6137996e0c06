"""Per-layer tracing for the benchmark, installed from outside the package.

Wrappers on public functions count the work done at each layer boundary and
stamp the simulated time at which a request crosses it; cProfile gives the
host self time of each module, including the bodies of generator tasks that
a wrapper around a call cannot time.  No wrapper draws from a simulation RNG
stream or schedules an event, so a traced run writes the same artifacts as
an untraced one; run.py checks that by digest.
"""

from __future__ import annotations

import cProfile
import math
import pstats
import sys
from collections import Counter
from pathlib import Path

import miserysim
from miserysim import addresses, cloud, multicaster, sim, target, topology

PACKAGE_DIR = Path(miserysim.__file__).resolve().parent
BENCH_DIR = Path(__file__).resolve().parent

# Modules on the research path; sockets (a demo) and cli (argparse) are left
# out on purpose.  attacker and topology's copy-on-transform path are timed
# in the attacker replay, which gets its own profile.
RUN_MODULES = ("sim", "cloud", "wire", "multicaster", "target", "movement",
               "topology", "addresses", "deploy", "experiment", "eventlog",
               "reporting")
ATTACK_MODULES = ("attacker", "topology", "movement")

# A processed request's client latency, cut at four stamps keyed by its
# correlation id: entry accept, first RS session, first listing that returns
# it, execution.  The first span starts at the client's issue time and the
# last ends at its reply.
STAGES = ("entry", "fanout", "rs_wait", "pickup", "return")
STAMPS = ("entry", "opened", "listed", "executed")


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    def __init__(self) -> None:
        self.run_counts: Counter = Counter()
        self.attack_counts: Counter = Counter()
        self.counts = self.run_counts
        self.run_profile = cProfile.Profile()
        self.attack_profile = cProfile.Profile()
        self.stamps: dict[str, dict[bytes, float]] = {}
        self.stage_samples: dict[str, list[float]] = {s: [] for s in STAGES}
        self.sim = None
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, name: str, make) -> None:
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def install(self) -> None:
        tracer = self

        def counted(key):
            def make(orig):
                def wrapper(*args, **kwargs):
                    tracer.counts[key] += 1
                    return orig(*args, **kwargs)
                return wrapper
            return make

        def sim_init(orig):
            def wrapper(simulation, *args, **kwargs):
                orig(simulation, *args, **kwargs)
                tracer.sim = simulation
            return wrapper

        def handle_request(orig):
            def wrapper(node, corr, *args, **kwargs):
                tracer.counts["multicaster.copies"] += len(node.table.children)
                if node.is_entry:
                    tracer.stamps["entry"].setdefault(corr, node.sim.now)
                return orig(node, corr, *args, **kwargs)
            return wrapper

        def open_session(orig):
            def wrapper(node, corr, *args, **kwargs):
                tracer.counts["target.rs_sessions"] += 1
                tracer.stamps["opened"].setdefault(corr, node.sim.now)
                return orig(node, corr, *args, **kwargs)
            return wrapper

        def list_pending(orig):
            def wrapper(registry, *args, **kwargs):
                listing = orig(registry, *args, **kwargs)
                tracer.counts["target.listings"] += 1
                if listing[0]:
                    tracer.counts["target.listing_hits"] += 1
                    listed, now = tracer.stamps["listed"], tracer.sim.now
                    for corr, _ in listing[0]:
                        listed.setdefault(corr, now)
                return listing
            return wrapper

        def execute(orig):
            def wrapper(store, corr, *args, **kwargs):
                tracer.counts["target.executions"] += 1
                tracer.stamps["executed"].setdefault(corr, tracer.sim.now)
                return orig(store, corr, *args, **kwargs)
            return wrapper

        self._patch(sim.Simulation, "__init__", sim_init)
        self._patch(sim.Simulation, "schedule_at", counted("sim.scheduled"))
        self._patch(sim.Handle, "cancel", counted("sim.cancels"))
        self._patch(cloud.CloudProvider, "request", counted("cloud.exchanges"))
        self._patch(cloud.Channel, "send", counted("cloud.channel_sends"))
        self._patch(addresses.AddressServer, "update", counted("addresses.updates"))
        self._patch(multicaster.MulticasterNode, "handle_request", handle_request)
        self._patch(target.RequestsServerNode, "open_session", open_session)
        self._patch(target.RequestRegistry, "list_pending", list_pending)
        self._patch(target.BackendStore, "execute", execute)
        for name in ("with_positions_swapped", "with_node_replaced"):
            self._patch(topology.MiseryDigraph, name, counted("topology.transforms"))
        # modules that imported the function by name hold their own reference
        derive = topology.derive_firewall_rules
        holders = [module for name, module in sorted(sys.modules.items())
                   if name.startswith("miserysim")
                   and getattr(module, "derive_firewall_rules", None) is derive]
        for module in holders:
            self._patch(module, "derive_firewall_rules",
                        counted("topology.rule_derivations"))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    # -- one closed-loop run ---------------------------------------------------

    def start_run(self) -> None:
        self.stamps = {name: {} for name in STAMPS}
        self.counts = self.run_counts
        self.install()
        self.run_profile.enable()

    def stop_run(self, result, events_bytes: int) -> list[str]:
        """Stop tracing one run; fold in its counts and stage split and
        return any request whose stage stamps are missing or out of order."""
        self.run_profile.disable()
        self.uninstall()
        counts = self.run_counts
        counts["sim.events"] += result.sim.events_processed
        counts["eventlog.records"] += len(result.records)
        counts["eventlog.bytes"] += events_bytes
        summary = result.log.of_kind("experiment.summary")[-1]["counters"]
        for key in ("refused", "severed", "late_deliveries", "discarded",
                    "transformations", "skipped_cycles", "skipped_pool_short",
                    "aborted_cycles"):
            counts["program." + key] += summary.get(key, 0)
        return self._stage_split(result.log.of_kind("request.done"))

    def _stage_split(self, done: list[dict]) -> list[str]:
        """The stages run from the client's issue time through the four
        stamps to its reply, so they sum to the latency by construction;
        what can fail is a missing stamp or stamps out of order."""
        problems = []
        for rec in done:
            if rec["outcome"] != "processed":
                continue
            corr = bytes.fromhex(rec["corr"])
            try:
                marks = [self.stamps[name][corr] for name in STAMPS]
            except KeyError:
                problems.append(f"request {rec['i']}: a stage stamp is missing")
                continue
            points = [rec["issued_at"], *marks, rec["t"]]
            if any(b < a for a, b in zip(points, points[1:])):
                problems.append(f"request {rec['i']}: stage stamps out of order")
                continue
            for stage, a, b in zip(STAGES, points, points[1:]):
                self.stage_samples[stage].append(b - a)
        return problems

    # -- the attacker replay -----------------------------------------------------

    def start_attack(self) -> None:
        self.counts = self.attack_counts
        self.install()
        self.attack_profile.enable()

    def stop_attack(self) -> None:
        self.attack_profile.disable()
        self.uninstall()

    # -- results ---------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c = self.run_counts
        out = {f"{m}.self_s": t for m, t in
               _self_times(self.run_profile, RUN_MODULES).items()}
        out.update({f"attack.{m}.self_s": t for m, t in
                    _self_times(self.attack_profile, ATTACK_MODULES).items()})
        out.update({
            "sim.events": c["sim.events"],
            "sim.scheduled": c["sim.scheduled"],
            "sim.cancel_share": _share(c["sim.cancels"], c["sim.scheduled"]),
            "cloud.exchanges": c["cloud.exchanges"],
            "cloud.channel_sends": c["cloud.channel_sends"],
            "cloud.refused": c["program.refused"],
            "cloud.severed": c["program.severed"],
            "target.listings": c["target.listings"],
            "target.listing_hit_share": _share(c["target.listing_hits"],
                                               c["target.listings"]),
            "target.rs_sessions": c["target.rs_sessions"],
            "target.late_share": _share(c["program.late_deliveries"],
                                        c["target.rs_sessions"]),
            "target.executions": c["target.executions"],
            "multicaster.copies": c["multicaster.copies"],
            "multicaster.discarded_share": _share(c["program.discarded"],
                                                  c["multicaster.copies"]),
            "movement.transformations": c["program.transformations"],
            "movement.skipped": (c["program.skipped_cycles"]
                                 + c["program.skipped_pool_short"]),
            "movement.aborted": c["program.aborted_cycles"],
            "addresses.updates": c["addresses.updates"],
            "topology.transforms": c["topology.transforms"],
            "topology.rule_derivations": c["topology.rule_derivations"],
            "eventlog.records": c["eventlog.records"],
            "eventlog.bytes": c["eventlog.bytes"],
            "attack.transforms": self.attack_counts["topology.transforms"],
        })
        for stage, samples in self.stage_samples.items():
            ordered = sorted(samples)
            for q in (50, 95):
                out[f"stage.{stage}_p{q}_ms"] = (
                    1000.0 * nearest_rank(ordered, q / 100) if ordered else 0.0)
        return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _self_times(profile: cProfile.Profile, modules: tuple[str, ...]) -> dict[str, float]:
    """cProfile tottime summed by source file.  Everything outside the repo,
    built-ins included, counts as stdlib; the benchmark's own wrappers and
    package modules off the list are left out."""
    out = dict.fromkeys(modules, 0.0)
    out["stdlib"] = 0.0
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        path = Path(filename)
        if path.is_absolute():
            path = path.resolve()
        if path.parent == PACKAGE_DIR:
            if path.stem in out:
                out[path.stem] += tottime
        elif path.is_relative_to(BENCH_DIR):
            continue
        else:
            out["stdlib"] += tottime
    return out
