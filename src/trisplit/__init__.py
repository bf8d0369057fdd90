"""Recursive ternary tournaments and their subset degree bounds.

Construction of the cyclic blow-up family, its punctured
counterexample form and exact per-level gap tables, exhaustive and
branch-and-bound search for the maximum minimum out-degree over vertex
subsets, recursive bound certificates mirroring the inductive
argument, and random balanced split experiments.
"""

from .certify import (
    BoundCertificate,
    actual_min_out_degree,
    certify_bound,
    min_identity_check,
    partition_parts,
)
from .construction import (
    LevelParams,
    gap_table,
    level_params,
    punctured_tournament,
    ternary_tournament,
    trit_arc,
)
from .digraph import (
    Digraph,
    DigraphFormatError,
    DimensionError,
    VertexSet,
    read_digraph,
    write_digraph,
)
from .experiments import (
    SplitMix64,
    SplitSummary,
    SplitTrial,
    mix64,
    random_balanced_split,
    split_experiment,
    substream_seed,
)
from .search import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    SearchReport,
    VerifyOutcome,
    branch_bound_max,
    enumerate_max,
    verify_bound,
)

__version__ = "0.1.0"
