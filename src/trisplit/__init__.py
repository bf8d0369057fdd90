"""Recursive ternary tournaments and their subset degree bounds.

Construction of the cyclic blow-up family and its punctured
counterexample form, exhaustive and branch-and-bound search for the
maximum minimum out-degree over vertex subsets, recursive bound
certificates mirroring the inductive argument, and random balanced
split experiments with exact gap tables.
"""

from .certify import (
    BoundCertificate,
    actual_min_out_degree,
    certify_bound,
    min_identity_check,
    partition_parts,
)
from .construction import (
    DEFAULT_MAX_VERTICES,
    LevelParams,
    compose_cyclic,
    level_params,
    punctured_tournament,
    ternary_tournament,
    trit_arc,
    trits,
    vertex_from_trits,
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
    GapRow,
    SplitMix64,
    SplitSummary,
    SplitTrial,
    gap_table,
    mix64,
    random_balanced_split,
    reference_curves,
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
    fixed_popcount_masks,
    subset_count,
    verify_bound,
)

__version__ = "0.1.0"
