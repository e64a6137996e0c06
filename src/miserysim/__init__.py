"""Simulated moving-target defense for cloud request paths.

The package deploys a protected service behind a misery digraph (layered
k-ary request fan-out with a hidden polling target), moves pairs of decoys
on a fixed period, and measures what the churn costs legitimate traffic and
what it costs an attacker walking the topology.
"""

from __future__ import annotations

from .errors import ConfigError, MiserySimError, TopologyError
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    LatencyModel,
    WorkloadGenerator,
    run_experiment,
)
from .movement import MovementManager
from .reporting import MetricsReport, emit_report, metrics_from_records
from .sim import Simulation
from .topology import (
    MiseryDigraph,
    MiseryDigraphSpec,
    build_misery_digraph,
    derive_firewall_rules,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "LatencyModel",
    "MetricsReport",
    "MiserySimError",
    "MiseryDigraph",
    "MiseryDigraphSpec",
    "MovementManager",
    "Simulation",
    "TopologyError",
    "WorkloadGenerator",
    "build_misery_digraph",
    "derive_firewall_rules",
    "emit_report",
    "metrics_from_records",
    "run_experiment",
    "__version__",
]
