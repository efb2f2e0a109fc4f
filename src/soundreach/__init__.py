"""Certified reachability and expected-reward solving for Markov models.

The package answers quantitative queries — "what is the (maximal/minimal)
probability of reaching these states?", "what is the expected reward until
reaching them?" — on explicit-state Markov chains and Markov decision
processes, with solvers whose results carry certified error bounds.

Typical use::

    from soundreach import load_model, solve, SolverConfig

    bundle = load_model("model.tra", "model.lab")
    result = solve(bundle.model, "goal", SolverConfig(epsilon=1e-6))
    print(result.value, result.lower, result.upper)
"""

from .analysis import (
    Mec, MecDecomposition, QuotientMap, SccOrder, check_contracting, collapse_end_components,
    mec_decompose, prob0_max, prob0_min, reach_partition, reward_partition, scc_order,
)
from .cli import bench_run, compare_report, run_cli
from .errors import (
    ConfigError, DanglingTarget, EmptyRowGroup, HeaderMismatch, IterationLimit, MalformedCsv,
    MissingInit, MissingRewardBounds, ModelError, MultipleInitStates, NegativeProbability,
    NonContiguousChoices, NotContracting, ParseError, RewardOnMec, RowSumError, SolverError,
    UnknownLabelId,
)
from .explicit import ModelBundle, load_model, parse_labels, write_model
from .model import Direction, Partition, SparseModel, make_absorbing, validate_model
from .solvers import (
    IterationState, Method, Objective, SolveResult, SolverConfig, TraceRow, ii_solve, solve,
    svi_solve, vi_solve,
)
from .variants import topological_solve

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model core
    "SparseModel",
    "Partition",
    "Direction",
    "validate_model",
    "make_absorbing",
    # explicit-state formats
    "ModelBundle",
    "load_model",
    "parse_labels",
    "write_model",
    # graph analysis
    "SccOrder",
    "Mec",
    "MecDecomposition",
    "QuotientMap",
    "prob0_max",
    "prob0_min",
    "scc_order",
    "mec_decompose",
    "check_contracting",
    "collapse_end_components",
    "reach_partition",
    "reward_partition",
    # solvers
    "Method",
    "Objective",
    "SolverConfig",
    "SolveResult",
    "TraceRow",
    "IterationState",
    "svi_solve",
    "vi_solve",
    "ii_solve",
    "solve",
    # variants
    "topological_solve",
    # command line
    "run_cli",
    "bench_run",
    "compare_report",
    # errors
    "ModelError",
    "RowSumError",
    "DanglingTarget",
    "EmptyRowGroup",
    "NegativeProbability",
    "ParseError",
    "HeaderMismatch",
    "NonContiguousChoices",
    "UnknownLabelId",
    "MultipleInitStates",
    "MissingInit",
    "MalformedCsv",
    "ConfigError",
    "SolverError",
    "NotContracting",
    "RewardOnMec",
    "MissingRewardBounds",
    "IterationLimit",
]
