"""Loss tomography for multi-source multicast networks."""

from .topology import Topology, TopologyError, UnsupportedTopologyError, parse_topology
from .decompose import DTreePlan, decompose
from .probes import PooledCounts, count_pass, gamma_hat, simulate, simulate_counts, simulate_runs
from .estimators import EstimateSet, estimate_network
from .harness import ExperimentConfig, emit, run_experiment

__all__ = [
    "Topology",
    "TopologyError",
    "UnsupportedTopologyError",
    "parse_topology",
    "DTreePlan",
    "decompose",
    "PooledCounts",
    "count_pass",
    "gamma_hat",
    "simulate",
    "simulate_counts",
    "simulate_runs",
    "EstimateSet",
    "estimate_network",
    "ExperimentConfig",
    "emit",
    "run_experiment",
]
