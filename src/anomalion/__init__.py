"""Exact anomaly indices for circuit symmetries on qubit lattices."""

from .groups import (
    Cochain,
    FiniteGroup,
    GroupHom,
    classify,
    coboundary,
    coboundary_solve,
    cohomologous,
    cup_1cocycles,
    is_cocycle,
    pullback,
)
from .lattice import Region, Site, Window
from .symop import (
    SymOp,
    commutator,
    format_op,
    op_conj,
    op_inv,
    op_mul,
    scalar_phase,
    support,
)
from .circuits import (
    CircuitAction,
    GateRule,
    ProceduralCircuit,
    builtin_action,
    checked_layer,
    conj_by_circuit,
    product_collapse,
    truncate,
)
from .pairing import LocalizedAutomorphism, eta, eta_L, eta_R, run_identity_suite
from .anomaly import (
    anomaly_2d,
    build_truncation_1d,
    build_truncation_2d,
    expectation_product_state,
    nayak_else_1d,
    regauge_beta,
    regauge_rho,
    spt_relative_1d,
    spt_trivialize_2d,
    tau4,
    tau_cochain,
)
from .crossed import (
    CrossedModule,
    CrossedSquare,
    TwoCrossedModule,
    WeakMorphismData,
    check_weak_morphism,
    homotopy_groups,
    postnikov3,
    to_two_crossed_module,
    twist,
    validate_crossed_module,
    validate_crossed_square,
    validate_two_crossed_module,
    verify_lattice_square,
)

__all__ = [
    "Cochain", "FiniteGroup", "GroupHom",
    "classify", "coboundary", "coboundary_solve", "cohomologous", "cup_1cocycles",
    "is_cocycle", "pullback",
    "Region", "Site", "Window",
    "SymOp", "commutator", "format_op", "op_conj", "op_inv", "op_mul",
    "scalar_phase", "support",
    "CircuitAction", "GateRule", "ProceduralCircuit", "builtin_action",
    "checked_layer", "conj_by_circuit", "product_collapse", "truncate",
    "LocalizedAutomorphism", "eta", "eta_L", "eta_R", "run_identity_suite",
    "anomaly_2d", "build_truncation_1d", "build_truncation_2d",
    "expectation_product_state", "nayak_else_1d", "regauge_beta", "regauge_rho",
    "spt_relative_1d", "spt_trivialize_2d", "tau4", "tau_cochain",
    "CrossedModule", "CrossedSquare", "TwoCrossedModule", "WeakMorphismData",
    "check_weak_morphism", "homotopy_groups", "postnikov3",
    "to_two_crossed_module", "twist", "validate_crossed_module",
    "validate_crossed_square", "validate_two_crossed_module",
    "verify_lattice_square",
]
