# src/anumrad/__init__.py

"""Numerical gauges and executable inequality checks for Hilbert-space
operators measured by a positive semidefinite metric A.

Core objects: metric frames (``new_frame``), the A-adjoint calculus
(``sharp``, ``reduced``), rotation-sweep gauges (``a_numerical_radius``,
``a_crawford``, ``a_seminorm``, ...), 2x2 block constructions, a registry of
tolerance-aware inequality checks, and a seeded fuzzing harness with a CLI.
"""

from .adjoint import admits_a_adjoint, reduced, sharp
from .blocks import assemble, b_sharp_blockwise_check, block_gauge
from .catalog import (
    CheckDef,
    CheckResult,
    REGISTRY,
    registry_ids,
    resolve_ids,
    run_all,
    run_check,
)
from .errors import (
    AnumradError,
    BadRank,
    DimensionMismatch,
    EmptyRange,
    NoAdjoint,
    NotHermitian,
    NotPSD,
    UnknownCheckId,
)
from .frame import AFrame, direct_sum, new_frame
from .gauges import (
    GaugeSweep,
    a_crawford,
    a_crawford_C,
    a_min_modulus,
    a_numerical_radius,
    a_seminorm,
    crawford,
    crawford_C,
    numerical_radius,
    oracle_gauge,
    sweep_gauges,
)
from .harness import (
    FuzzConfig,
    Instance,
    Report,
    TOOL_VERSION,
    check_instance,
    fuzz,
    gen_compatible,
    gen_psd,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    make_instance,
    report_to_csv,
    report_to_json,
    repro_paper,
    save_instance,
)
from .matrixcore import as_cmatrix
from .seeding import splitmix64

__version__ = TOOL_VERSION

__all__ = [
    "AFrame",
    "AnumradError",
    "BadRank",
    "CheckDef",
    "CheckResult",
    "DimensionMismatch",
    "EmptyRange",
    "FuzzConfig",
    "GaugeSweep",
    "Instance",
    "NoAdjoint",
    "NotHermitian",
    "NotPSD",
    "REGISTRY",
    "Report",
    "TOOL_VERSION",
    "UnknownCheckId",
    "a_crawford",
    "a_crawford_C",
    "a_min_modulus",
    "a_numerical_radius",
    "a_seminorm",
    "admits_a_adjoint",
    "as_cmatrix",
    "assemble",
    "b_sharp_blockwise_check",
    "block_gauge",
    "check_instance",
    "crawford",
    "crawford_C",
    "direct_sum",
    "fuzz",
    "gen_compatible",
    "gen_psd",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "make_instance",
    "new_frame",
    "numerical_radius",
    "oracle_gauge",
    "reduced",
    "registry_ids",
    "report_to_csv",
    "report_to_json",
    "repro_paper",
    "resolve_ids",
    "run_all",
    "run_check",
    "save_instance",
    "sharp",
    "splitmix64",
    "sweep_gauges",
]
