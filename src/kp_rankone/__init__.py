"""Determinant tau functions built from rank-one-coupled matrix triples.

The library constructs tau functions of the form det(A exp(g(B)) C^T)
from triples (A, B, C) satisfying a rank-one coupling condition,
evaluates them under exact lattice shifts, extracts solution fields and
wave functions, and verifies the identities these objects satisfy
(bilinear lattice equation, differential hierarchy equations, closed
forms for the structured reductions, polynomiality of the shifted tau,
and the rational Bethe-type constraints).

Quick start::

    from kp_rankone import random_admissible, tau, TimeVector
    tr = random_admissible(2, 6, seed=0)
    value = tau(tr, TimeVector([0.3, 0.1]))
"""

from .baker import (
    BASample,
    SpectralSupport,
    grassmann_support,
    polynomiality_check,
    psi_dual,
    psi_stationary,
    psi_time,
)
from .cases import (
    CalogeroMoserData,
    IntertwiningData,
    KdVPairData,
    from_calogero_moser,
    from_intertwining,
    from_kdv_pair,
    random_calogero_moser,
    random_intertwining,
    random_kdv_pair,
    wilson_tau_closed_form,
)
from .errors import (
    DegenerateInputError,
    DegenerateSpectrumError,
    DimensionError,
    GenerationError,
    GeometryError,
    InadmissibleTripleError,
    IndeterminateScaleError,
    KPRankOneError,
    PoleError,
    RangeError,
    ScenarioError,
    SingularShiftError,
)
from .matkernel import (
    ScaledComplex,
    det_scaled,
    expm_centered,
    matexp,
    nullspace_rows,
    numerical_rank,
    rel_difference,
    residual_of_sum,
)
from .tau import (
    GridSample,
    MiwaShiftList,
    TauEvaluator,
    TimeVector,
    log_tau_derivative,
    tau,
    tau_discrete,
    tau_grid,
    tau_miwa,
    u_field,
)
from .triple import (
    RankOneTriple,
    TripleReport,
    conjugate_triple,
    make_triple,
    random_admissible,
    validate_triple,
)
from .verify import (
    VerificationReport,
    bethe_check,
    crosscheck_intertwining,
    crosscheck_wilson,
    draw_lattice_parameters,
    h3_residual,
    hbde_residual,
    kp_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BASample",
    "CalogeroMoserData",
    "DegenerateInputError",
    "DegenerateSpectrumError",
    "DimensionError",
    "GenerationError",
    "GeometryError",
    "GridSample",
    "InadmissibleTripleError",
    "IndeterminateScaleError",
    "IntertwiningData",
    "KPRankOneError",
    "KdVPairData",
    "MiwaShiftList",
    "PoleError",
    "RangeError",
    "RankOneTriple",
    "ScaledComplex",
    "ScenarioError",
    "SingularShiftError",
    "SpectralSupport",
    "TauEvaluator",
    "TimeVector",
    "TripleReport",
    "VerificationReport",
    "bethe_check",
    "conjugate_triple",
    "crosscheck_intertwining",
    "crosscheck_wilson",
    "det_scaled",
    "draw_lattice_parameters",
    "expm_centered",
    "from_calogero_moser",
    "from_intertwining",
    "from_kdv_pair",
    "grassmann_support",
    "h3_residual",
    "hbde_residual",
    "kp_residual",
    "log_tau_derivative",
    "make_triple",
    "matexp",
    "nullspace_rows",
    "numerical_rank",
    "polynomiality_check",
    "psi_dual",
    "psi_stationary",
    "psi_time",
    "random_admissible",
    "random_calogero_moser",
    "random_intertwining",
    "random_kdv_pair",
    "rel_difference",
    "residual_of_sum",
    "tau",
    "tau_discrete",
    "tau_grid",
    "tau_miwa",
    "u_field",
    "validate_triple",
    "wilson_tau_closed_form",
]
