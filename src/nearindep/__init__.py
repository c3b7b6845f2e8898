"""Exact counting of independent and 1-nearly independent vertex subsets
of small graphs, and exhaustive verification of the sharp bounds on
their ratio Q = sigma1/sigma0 over trees, forests, connected graphs and
graphs of bounded maximum degree."""

from .graphs import (
    CanonicalCode,
    Graph,
    canonical_code,
    is_connected,
    make_graph,
    make_named,
    max_degree,
)
from .limits import CapabilityError, Limits
from .sigma import (
    SigmaDistribution,
    SigmaPair,
    q_ratio,
    sigma01,
    sigma01_recursive,
    sigma01_tree_dp,
    sigma_distribution_bruteforce,
    star_q,
)
from .graph6 import Graph6Error, emit_graph6, parse_graph6
from ._lazy import __getattr__  # the generation and verification names, on first access

__version__ = "0.1.0"

__all__ = [
    "CanonicalCode",
    "CapabilityError",
    "ClassSpec",
    "Graph",
    "Graph6Error",
    "Limits",
    "SigmaDistribution",
    "SigmaPair",
    "VerificationReport",
    "Violation",
    "canonical_code",
    "emit_graph6",
    "extremal_scan",
    "gen_class",
    "gen_forests",
    "gen_graphs",
    "gen_trees",
    "is_connected",
    "make_graph",
    "make_named",
    "max_degree",
    "parse_graph6",
    "q_ratio",
    "run_theorem",
    "sigma01",
    "sigma01_recursive",
    "sigma01_tree_dp",
    "sigma_distribution_bruteforce",
    "star_q",
]
