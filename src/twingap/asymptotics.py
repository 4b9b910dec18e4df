"""Large-s expansions of the two-interval sine-kernel log-determinant.

Four expansions are provided, each returned as a term-by-term
ExpansionBreakdown:

* one gap (-1, 1):            -s^2/2 - (1/4) log s + c0
* fixed two gaps:             -s^2 G0 - (1/2) log s
                              + log(theta3(s Omega)/theta3(0))
                              + (1/4) log((1-v1)(1+v2))
                              - (1/8) sum_y log|q(y)| + 2 c0
* slowly merging gaps:        the transition formula built from the
                              Barnes G-function at integer arguments and
                              the orthonormal-Legendre leading
                              coefficients kappa_j
* merging limit:              the expansion of the two-gap formula for
                              nu = (v2-v1)/2 -> 0 with s nu -> 0

expand(s, gap, regime) dispatches to the formula of a regime, or of
the one select_regime picks.

c0 is the Widom-Dyson constant (1/12) log 2 + 3 zeta'(-1).  zeta'(-1)
is not evaluable by this package's own kernels; the frozen value below
was derived independently at 50-digit precision from the Glaisher
constant (zeta'(-1) = 1/12 - log A); see scripts/derive_constants.py.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .elliptic import GapPair
from .errors import AmbiguousRegimeError, DomainError
from .theta import theta_eval
from .two_gap import derive_geometry

__all__ = ["Regime", "ExpansionBreakdown", "WIDOM_DYSON_C0",
           "ZETA_PRIME_AT_MINUS_ONE", "expand", "expansion_one_gap",
           "expansion_two_gap", "expansion_merging", "expansion_merging_limit",
           "legendre_kappa", "barnes_g_int",
           "nearest_frac", "select_regime"]

# zeta'(-1) = 1/12 - log(Glaisher A); frozen from a 50-digit derivation
# (scripts/derive_constants.py)
ZETA_PRIME_AT_MINUS_ONE = -0.16542114370045094

#: Widom-Dyson constant c0 = (1/12) log 2 + 3 zeta'(-1) ~ -0.43850117
WIDOM_DYSON_C0 = math.log(2.0) / 12.0 + 3.0 * ZETA_PRIME_AT_MINUS_ONE


class Regime(str, enum.Enum):
    FIXED_TWO_GAP = "FixedTwoGap"
    ONE_GAP = "OneGap"
    MERGING = "Merging"
    MERGING_LIMIT = "MergingLimit"
    SEPARATING = "Separating"


@dataclass(frozen=True)
class ExpansionBreakdown:
    """One asymptotic prediction split into its structural terms.

    total is the sum of the four terms by construction.  error_order is
    a qualitative tag copied from the governing statement (the error
    constants are not computable at desk scale).
    """

    leading_s2: float
    log_s_term: float
    theta_term: float
    constant_term: float
    regime: Regime
    error_order: str = ""
    warnings: tuple[str, ...] = ()

    @property
    def total(self) -> float:
        return (self.leading_s2 + self.log_s_term
                + self.theta_term + self.constant_term)

    def as_dict(self) -> dict:
        return {
            "leading_s2": self.leading_s2,
            "log_s_term": self.log_s_term,
            "theta_term": self.theta_term,
            "constant_term": self.constant_term,
            "total": self.total,
            "regime": self.regime.value,
            "error_order": self.error_order,
            "warnings": list(self.warnings),
        }


def _require_positive_s(s: float):
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"s must be positive and finite, got {s}")


def expansion_one_gap(s: float) -> ExpansionBreakdown:
    """log det(I - K_s) on a single gap (-1, 1): -s^2/2 - log(s)/4 + c0."""
    _require_positive_s(s)
    return ExpansionBreakdown(
        leading_s2=-0.5 * s * s,
        log_s_term=-0.25 * math.log(s),
        theta_term=0.0,
        constant_term=WIDOM_DYSON_C0,
        regime=Regime.ONE_GAP,
        error_order="O(1/s)",
    )


def expansion_two_gap(s: float, gap: GapPair) -> ExpansionBreakdown:
    """Fixed-geometry two-gap expansion of log det(I - K_s).

    The oscillation is carried as log(theta3(s Omega)/theta3(0)), with
    the constant (1/4) log((1-v1)(1+v2)) - (1/8) sum log|q(y)| + 2 c0.
    """
    _require_positive_s(s)
    geom = derive_geometry(gap)
    ctx = geom.theta_context()
    th_s = theta_eval(3, s * geom.Omega, ctx).real
    th_0 = theta_eval(3, 0.0, ctx).real
    return ExpansionBreakdown(
        leading_s2=-s * s * geom.G0,
        log_s_term=-0.5 * math.log(s),
        theta_term=math.log(th_s / th_0),
        constant_term=(0.25 * math.log((1.0 - gap.v1) * (1.0 + gap.v2))
                       - 0.125 * sum(math.log(q) for q in geom.q_at)
                       + 2.0 * WIDOM_DYSON_C0),
        regime=Regime.FIXED_TWO_GAP,
        error_order="O(1/s)",
    )


def nearest_frac(x: float) -> float:
    """<x> in (-1/2, 1/2]: the signed distance to the nearest integer.

    Ties x = m + 1/2 resolve to +1/2 (half-open interval on the left).
    """
    if not math.isfinite(x):
        raise DomainError(f"nearest_frac requires finite x, got {x}")
    return x - math.ceil(x - 0.5)


def legendre_kappa(j: int) -> float:
    """Leading coefficient of the degree-j Legendre polynomial
    orthonormal on [-2, 2]: kappa_j = 4^(-j-1/2) sqrt(2j+1) (2j)!/(j!)^2,
    with kappa_0 = 1/2 and kappa_{-1} = 0.  Evaluated in log space.
    """
    if j < -1:
        raise DomainError(f"legendre_kappa requires j >= -1, got {j}")
    if j == -1:
        return 0.0
    return math.exp(-(j + 0.5) * math.log(4.0) + 0.5 * math.log(2 * j + 1)
                    + math.lgamma(2 * j + 1) - 2.0 * math.lgamma(j + 1))


def barnes_g_int(n: int) -> float:
    """log G(n) at a positive integer: log G(n) = sum_{i=1}^{n-2} log i!."""
    if n < 1:
        raise DomainError(f"Barnes G needs a positive integer, got {n}")
    return sum(math.lgamma(i + 1) for i in range(1, n - 1))


def _merging_scales(s: float, gap: GapPair):
    """(nu, gamma, |alpha beta|, L, omega0, <omega0>) of the merging regime.

    nu = (v2-v1)/2 is the half-width of the closing band; after centering
    the band the outer gap runs over (alpha, -nu) u (nu, beta) with
    alpha = -(1 + (v1+v2)/2) < 0 < beta = 1 - (v1+v2)/2, and
    gamma = (1/beta + 1/|alpha|)/8 sets the logarithmic scale
    L = log(1/(gamma nu)); omega0 = s sqrt|alpha beta| / L.  A valid gap
    has nu < beta and nu < |alpha|, so gamma nu < 1/4 and L > log 4.
    """
    nu = gap.nu
    m = gap.midpoint
    alpha = -(1.0 + m)
    beta = 1.0 - m
    gamma = (1.0 / beta + 1.0 / abs(alpha)) / 8.0
    L = math.log(1.0 / (gamma * nu))
    ab = abs(alpha * beta)
    omega0 = s * math.sqrt(ab) / L
    return nu, gamma, ab, L, omega0, nearest_frac(omega0)


def expansion_merging(s: float, gap: GapPair) -> ExpansionBreakdown:
    """Transition formula for two gaps separated by a narrow band.

    With L = log(1/(gamma nu)), omega0 = s sqrt|alpha beta| / L,
    k = omega0 - <omega0> (a nonnegative integer) and G the Barnes
    function:

        -s^2/2 + s sqrt|alpha beta| (omega0 - <omega0>^2/omega0)
        - (1/4) log s + c0
        + log(2^(2k^2-k) pi^-k G(k+1)^4 / G(2k+1))
        + log(1 + 2 pi kappa_{k-1}^2 (gamma nu)^(1+2<omega0>))
        + log(1 + (2 pi kappa_k^2)^-1 (gamma nu)^(1-2<omega0>)).

    The two log(1 + ...) terms are grouped with the oscillatory part
    (they carry the <omega0> dependence), the Barnes block with the
    constant.
    """
    _require_positive_s(s)
    nu, gamma, ab, _, omega0, fr = _merging_scales(s, gap)
    root = math.sqrt(ab)
    # omega0 - <omega0> is exact (Sterbenz), a whole number >= 0
    k = round(omega0 - fr)
    gn = gamma * nu
    barnes_block = ((2 * k * k - k) * math.log(2.0) - k * math.log(math.pi)
                    + 4.0 * barnes_g_int(k + 1) - barnes_g_int(2 * k + 1))
    osc = (math.log1p(2.0 * math.pi * legendre_kappa(k - 1) ** 2
                      * gn ** (1.0 + 2.0 * fr))
           + math.log1p(gn ** (1.0 - 2.0 * fr)
                        / (2.0 * math.pi * legendre_kappa(k) ** 2)))
    warnings = ()
    prod = s * nu * math.log(1.0 / nu)
    if prod > 0.5:
        warnings = (f"s*nu*log(1/nu) = {prod:.3g} is not small; "
                    "the transition formula degrades here",)
    return ExpansionBreakdown(
        leading_s2=-0.5 * s * s + s * root * (omega0 - fr * fr / omega0),
        log_s_term=-0.25 * math.log(s),
        theta_term=osc,
        constant_term=WIDOM_DYSON_C0 + barnes_block,
        regime=Regime.MERGING,
        error_order="O(max{s*nu0*log(1/nu0), 1/log(1/nu0), 1/s})",
        warnings=warnings,
    )


def expansion_merging_limit(s: float, gap: GapPair) -> ExpansionBreakdown:
    """Merging limit of the fixed-geometry expansion (s nu -> 0 window).

    s^2 (-1/2 + |alpha beta|/L) - (1/2) log s + (1/4) log L
    - <omega0>^2 L + log(1 + (gamma nu)^(1-2|<omega0>|))
    - (1/8) log|alpha beta| + 2 c0,   L = log(1/(gamma nu)).
    """
    _require_positive_s(s)
    nu, gamma, ab, L, _, fr = _merging_scales(s, gap)
    warnings = []
    if 2.0 * nu <= s ** (-1.25):
        warnings.append(
            f"2*nu = {2 * nu:.3g} <= s^(-5/4) = {s ** -1.25:.3g}: "
            "outside the validity regime")
    if s * nu > 0.5:
        warnings.append(f"s*nu = {s * nu:.3g} is not small; the expansion "
                        "of the theta term degrades here")
    theta_term = (0.25 * math.log(L) - fr * fr * L
                  + math.log1p((gamma * nu) ** (1.0 - 2.0 * abs(fr))))
    return ExpansionBreakdown(
        leading_s2=s * s * (-0.5 + ab / L),
        log_s_term=-0.5 * math.log(s),
        theta_term=theta_term,
        constant_term=-0.125 * math.log(ab) + 2.0 * WIDOM_DYSON_C0,
        regime=Regime.MERGING_LIMIT,
        error_order="o(1) in the overlap window",
        warnings=tuple(warnings),
    )


# Crossover constants of select_regime.  The governing theorems give only
# asymptotic regimes; these desk-scale thresholds are engineering choices.
_MERGING_PRODUCT = 0.1       # s*nu*log(1/nu) below this -> Merging
_MERGING_SNU = 0.1           # s*nu below this -> MergingLimit
_SEPARATING_SCALE = 10.0     # (1 -+ v)*s below this -> Separating
_SEPARATING_NU_FLOOR = 0.05  # nu above this keeps the band "open"


def select_regime(s: float, gap: GapPair) -> tuple[Regime, str]:
    """Pick the natural expansion for (s, gap) and explain the choice."""
    _require_positive_s(s)
    nu = gap.nu
    edge = min((1.0 - gap.v2) * s, (1.0 + gap.v1) * s)
    merging_like = s * nu * math.log(1.0 / nu) < _MERGING_PRODUCT
    limit_like = (s ** (-1.25) < 2.0 * nu) and (s * nu < _MERGING_SNU)
    separating_like = edge < _SEPARATING_SCALE and nu > _SEPARATING_NU_FLOOR
    if (merging_like or limit_like) and separating_like:
        raise AmbiguousRegimeError(
            f"gap pair {gap} at s={s} looks both merging and separating")
    if merging_like:
        return Regime.MERGING, (
            f"s*nu*log(1/nu) = {s * nu * math.log(1.0 / nu):.3g} "
            f"< {_MERGING_PRODUCT}")
    if limit_like:
        return Regime.MERGING_LIMIT, (
            f"s^(-5/4) < 2*nu = {2 * nu:.3g} and s*nu = {s * nu:.3g} "
            f"< {_MERGING_SNU}")
    if separating_like:
        return Regime.SEPARATING, (
            f"min edge scale (1 -+ v)*s = {edge:.3g} < {_SEPARATING_SCALE}")
    return Regime.FIXED_TWO_GAP, "all scales are O(1)"


def expand(s: float, gap: GapPair, regime: str = "auto") -> ExpansionBreakdown:
    """The expansion of log det(I - K_s) in the given regime.

    regime is a Regime or its value; "auto" takes the one select_regime
    picks.  Separating uses the fixed two-gap closed form: only the
    regime tag and the error order of the extension theorem differ.
    """
    if regime == "auto":
        regime = select_regime(s, gap)[0]
    try:
        regime = Regime(regime)
    except ValueError:
        raise DomainError(f"unknown regime {regime!r}") from None
    if regime is Regime.FIXED_TWO_GAP:
        return expansion_two_gap(s, gap)
    if regime is Regime.SEPARATING:
        return replace(
            expansion_two_gap(s, gap), regime=Regime.SEPARATING,
            error_order="O(max{1/((1-v2)s), 1/((1+v1)s)})")
    if regime is Regime.MERGING:
        return expansion_merging(s, gap)
    if regime is Regime.MERGING_LIMIT:
        return expansion_merging_limit(s, gap)
    return expansion_one_gap(s)
