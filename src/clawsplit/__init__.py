"""Vertebrate interval graphs: recognition, compact representation, and
claw-bounded vertex 2-partition with witness."""

from clawsplit.intervals import (
    Interval,
    IntervalFamily,
    PartitionAssignment,
    Side,
    alpha_window,
    claw_number,
    dedup,
    expand_assignment,
    graph_claw_number,
    intersects,
    mid_relation,
)
from clawsplit.recognition import (
    CliqueArrangement,
    InvertebrateError,
    VertebrateRep,
    is_vertebrate,
    maximal_cliques,
    sweepline,
    vertebrate_representation,
)
from clawsplit.encoding import MonotonicSeq, alpha_seq, encode, extend, zero_seq
from clawsplit.solver import (
    DPState,
    GroupingInfo,
    SolveResult,
    compute_groups,
    crossing_family,
    solve,
    verify_partition,
)
from clawsplit.oracle import (
    GenerationError,
    GeneratorSpec,
    OracleReport,
    SizeGuardError,
    generate,
    oracle_alpha,
    oracle_claw,
    oracle_partition,
)

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "IntervalFamily",
    "PartitionAssignment",
    "Side",
    "alpha_window",
    "claw_number",
    "dedup",
    "expand_assignment",
    "graph_claw_number",
    "intersects",
    "mid_relation",
    "CliqueArrangement",
    "InvertebrateError",
    "VertebrateRep",
    "is_vertebrate",
    "maximal_cliques",
    "sweepline",
    "vertebrate_representation",
    "MonotonicSeq",
    "alpha_seq",
    "encode",
    "extend",
    "zero_seq",
    "DPState",
    "GroupingInfo",
    "SolveResult",
    "compute_groups",
    "crossing_family",
    "solve",
    "verify_partition",
    "GenerationError",
    "GeneratorSpec",
    "OracleReport",
    "SizeGuardError",
    "generate",
    "oracle_alpha",
    "oracle_claw",
    "oracle_partition",
    "__version__",
]
