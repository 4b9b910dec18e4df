"""Two-interval sine-kernel determinant asymptotics with a numerical oracle."""

import os as _os

# BLAS reads its thread limits at load time, so the cap must be in place
# before the first numpy import anywhere in the package
_cap = _os.environ.get("TWIN_GAP_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)

from .asymptotics import (ExpansionBreakdown, Regime, WIDOM_DYSON_C0,
                          barnes_g_int, expand, expansion_merging,
                          expansion_merging_limit, expansion_one_gap,
                          expansion_two_gap, legendre_kappa, nearest_frac,
                          select_regime)
from .elliptic import EllipticData, GapPair, elliptic_data, tail_integral
from .errors import (AmbiguousRegimeError, DomainError,
                     IllConditionedGeometryError, SeriesTruncationError,
                     TwinGapError)
from .identities import (ResidualReport, derivative_identity_residuals, g1hat,
                         period_relation_residual, run_suite,
                         theta_identity_residual, theta_integral_residuals)
from .oracle import OracleResult, fredholm_logdet
from .theta import ThetaContext, theta_eval
from .two_gap import DerivedGeometry, abel_map, derive_geometry

__version__ = "0.1.0"

__all__ = [
    "AmbiguousRegimeError", "DerivedGeometry", "DomainError", "EllipticData",
    "ExpansionBreakdown", "GapPair", "IllConditionedGeometryError",
    "OracleResult", "Regime", "ResidualReport", "SeriesTruncationError",
    "ThetaContext", "TwinGapError", "WIDOM_DYSON_C0", "abel_map",
    "barnes_g_int", "derivative_identity_residuals", "derive_geometry",
    "elliptic_data", "expand", "expansion_merging", "expansion_merging_limit",
    "expansion_one_gap", "expansion_two_gap", "fredholm_logdet", "g1hat",
    "legendre_kappa", "nearest_frac", "period_relation_residual", "run_suite",
    "select_regime", "tail_integral", "theta_eval", "theta_identity_residual",
    "theta_integral_residuals",
]
