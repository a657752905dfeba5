"""Exact Burnside-ring computations for small finite groups."""

from .artin import (
    ALL_CYCLIC,
    ExponentReport,
    Family,
    MethodDisagreement,
    artin_exponent_marks,
    compute_exponent_report,
    congruence_analysis,
    report_to_dict,
)
from .burnside import (
    MarkTable,
    NotIntegral,
    build_mark_table,
    conductor,
    mark_table_json,
    solve_membership,
)
from .groups import (
    GroupSpecError,
    GroupTable,
    OrderCapError,
    build_group,
    group_from_spec,
    parse_group_spec,
)
from .lattice import (
    ResourceCapError,
    SubgroupLattice,
    cached_lattice,
    enumerate_subgroups,
)
from .sweep import SweepConfig, run_sweep, summary_to_dict

__all__ = [
    "ALL_CYCLIC",
    "ExponentReport",
    "Family",
    "GroupSpecError",
    "GroupTable",
    "MarkTable",
    "MethodDisagreement",
    "NotIntegral",
    "OrderCapError",
    "ResourceCapError",
    "SubgroupLattice",
    "SweepConfig",
    "artin_exponent_marks",
    "build_group",
    "build_mark_table",
    "cached_lattice",
    "compute_exponent_report",
    "conductor",
    "congruence_analysis",
    "enumerate_subgroups",
    "group_from_spec",
    "mark_table_json",
    "parse_group_spec",
    "report_to_dict",
    "run_sweep",
    "solve_membership",
    "summary_to_dict",
]

__version__ = "0.1.0"
