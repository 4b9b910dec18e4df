"""Complete and incomplete elliptic integrals on the two-cut geometry.

The quartic ``p(z) = (z^2 - 1)(z - v1)(z - v2)`` has square-root branch
points at -1, v1, v2, 1.  Everything downstream is driven by the six
moment integrals

    I_j = int_{v2}^{1} x^j / sqrt(|p(x)|) dx      (A-cycle)
    J_j = int_{v1}^{v2} x^j / sqrt(|p(x)|) dx     (B-cycle)

for j = 0, 1, 2, together with the tail integral over (-inf, -1).  The
1/sqrt endpoint singularities are removed by trigonometric substitution
before Gauss-Legendre quadrature, so plain fixed-order rules converge
spectrally; node counts are doubled until two successive values agree to
~1e-13.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, IllConditionedGeometryError

# Endpoints closer than this are hopeless in double precision.
MIN_ENDPOINT_GAP = 1e-12
# Narrowest band half-width a GapPair accepts.  The merging scale
# 1/(gamma nu), gamma >= 1/4, overflows once nu is below about 4/DBL_MAX
# (2.2e-308); narrower bands would reach every expansion as inf or 0.
MIN_BAND_HALF_WIDTH = 1e-300

_DEFAULT_NODES = 200
_MAX_NODES = 6400
_QUAD_TOL = 1e-13
# Largest Gauss rule taken from numpy's dense eigen-solve (see _leggauss):
# every moment that converges by 800 nodes keeps numpy's bits, and the
# traced perfbench asymp run needs a numpy rule built in its warm-up.
_DENSE_RULE_MAX = 800

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GapPair:
    """Two gap endpoints v1 < v2 inside (-1, 1).

    The eigenvalue-free set is A = (-1, v1) u (v2, 1); the complementary
    band (v1, v2) separates the two gaps.  A band whose half-width nu is
    below MIN_BAND_HALF_WIDTH is refused with DomainError.
    """

    v1: float
    v2: float

    def __post_init__(self):
        if not (math.isfinite(self.v1) and math.isfinite(self.v2)):
            raise DomainError("gap endpoints must be finite")
        if not (-1.0 < self.v1 < self.v2 < 1.0):
            raise DomainError(
                f"need -1 < v1 < v2 < 1, got v1={self.v1}, v2={self.v2}"
            )
        if self.nu < MIN_BAND_HALF_WIDTH:
            raise DomainError(
                f"band half-width {self.nu:.3g} is below {MIN_BAND_HALF_WIDTH:g}")

    @property
    def nu(self) -> float:
        """Half-width of the band between the gaps."""
        return 0.5 * (self.v2 - self.v1)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.v1 + self.v2)

    def reflected(self) -> "GapPair":
        """The x -> -x image (-v2, -v1); the determinant is invariant."""
        return GapPair(-self.v2, -self.v1)


@dataclass(frozen=True)
class EllipticData:
    """A- and B-cycle moment integrals of 1/sqrt|p|.

    The even moments I0, I2, J0, J2 are strictly positive; the first
    moments carry the sign of the x-weight and go negative when their
    interval straddles 0.  Cauchy-Schwarz ties them: I0 I2 >= I1^2.
    """

    I0: float
    I1: float
    I2: float
    J0: float
    J1: float
    J2: float

    def __post_init__(self):
        for name in ("I0", "I2", "J0", "J2"):
            if getattr(self, name) <= 0.0:
                raise IllConditionedGeometryError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )


@lru_cache(maxsize=64)
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], ascending.

    Up to _DENSE_RULE_MAX nodes: numpy's rule, a dense O(n^3) eigen-solve.
    Above it: scipy's Golub-Welsch rule (eigenvalues of the tridiagonal
    Jacobi matrix, one Newton step, symmetrized, weights summing to 2),
    O(n^2) in time and O(n) in memory.
    """
    if n <= _DENSE_RULE_MAX:
        return np.polynomial.legendre.leggauss(n)
    from scipy.special import roots_legendre
    return roots_legendre(n)


def _refine(value_at: Callable[[int], float]) -> float:
    """Double the node count from _DEFAULT_NODES until two successive
    values agree to _QUAD_TOL.

    At the _MAX_NODES budget the last value is returned unconverged, and a
    DEBUG record on the ``twingap.elliptic`` logger says so.
    """
    n = _DEFAULT_NODES
    prev = value_at(n)
    delta = math.inf
    while n < _MAX_NODES:
        n *= 2
        cur = value_at(n)
        delta = abs(cur - prev)
        if delta <= _QUAD_TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
    _log.debug("quadrature not converged at %d nodes: |delta| = %.3g, tol = %.3g",
               n, delta, _QUAD_TOL)
    return prev


# Mapped rules, cached per n.  Each array is formed in the order the sums
# associate, e.g. (w * (pi/4)) * 2 before the product with f(x), so a sum
# over a cached rule has the bits of the same sum written inline.
@lru_cache(maxsize=64)
def _sin2_rule(n: int):
    """(sin^2(theta_i), 2 (pi/4) w_i) for theta = (t + 1) pi/4 on [0, pi/2]."""
    t, w = _leggauss(n)
    theta = (t + 1.0) * (math.pi / 4.0)
    return np.sin(theta) ** 2, w * (math.pi / 4.0) * 2.0


@lru_cache(maxsize=64)
def _half_rule(n: int):
    """(u_i, w_i / 2) for u = (t + 1)/2 on [0, 1]."""
    t, w = _leggauss(n)
    return (t + 1.0) / 2.0, w * 0.5


def integrate_both_sqrt(f, a: float, b: float, n: int) -> float:
    """int_a^b f(x)/sqrt((x-a)(b-x)) dx via x = a + (b-a) sin^2(theta).

    f must be smooth on [a, b]; the substitution absorbs both inverse
    square-root endpoint factors exactly (the Jacobian is 2 dtheta).
    """
    sin2, wq = _sin2_rule(n)
    x = a + (b - a) * sin2
    return float(np.sum(wq * f(x)))


def integrate_left_sqrt(f, a: float, b: float, n: int) -> float:
    """int_a^b f(x)/sqrt(b-x) dx via x = b - (b-a) u^2 (singular at b)."""
    u, wh = _half_rule(n)
    # ((b - a) u) u, not (b - a) u^2: the rounding of x depends on the order
    x = b - (b - a) * u * u
    return 2.0 * math.sqrt(b - a) * float(np.sum(wh * f(x)))


def integrate_right_sqrt(f, a: float, b: float, n: int) -> float:
    """int_a^b f(x)/sqrt(x-a) dx via x = a + (b-a) u^2 (singular at a)."""
    u, wh = _half_rule(n)
    x = a + (b - a) * u * u
    return 2.0 * math.sqrt(b - a) * float(np.sum(wh * f(x)))


def _check_endpoints(gap: GapPair) -> None:
    """IllConditionedGeometryError when two of -1, v1, v2, 1 are closer
    than MIN_ENDPOINT_GAP."""
    if min(gap.v1 + 1.0, gap.v2 - gap.v1, 1.0 - gap.v2) < MIN_ENDPOINT_GAP:
        raise IllConditionedGeometryError(
            f"endpoints too close for reliable quadrature: {gap}"
        )


def elliptic_data(gap: GapPair) -> EllipticData:
    """The six moment integrals I_j, J_j for a valid gap pair.

    On (v2, 1):  |p| = (x - v2)(1 - x) * (1 + x)(x - v1), and the first
    two factors are absorbed by the sin^2 substitution; likewise on
    (v1, v2) with the roles swapped.  Absolute accuracy ~1e-13.
    """
    _check_endpoints(gap)
    v1, v2 = gap.v1, gap.v2

    def I_j(j: int) -> float:
        f = lambda x: x ** j / np.sqrt((1.0 + x) * (x - v1))
        return _refine(lambda n: integrate_both_sqrt(f, v2, 1.0, n))

    def J_j(j: int) -> float:
        f = lambda x: x ** j / np.sqrt((1.0 - x) * (1.0 + x))
        return _refine(lambda n: integrate_both_sqrt(f, v1, v2, n))

    return EllipticData(I0=I_j(0), I1=I_j(1), I2=I_j(2),
                        J0=J_j(0), J1=J_j(1), J2=J_j(2))


def tail_integral(gap: GapPair) -> float:
    """int_{-inf}^{-1} dx / sqrt(p(x)), real and positive.

    The substitution x = -1/t maps onto t in (0, 1]:

        int_0^1 dt / sqrt((1 - t^2)(1 + v1 t)(1 + v2 t)),

    and t = sin^2(theta) then removes the t = 1 endpoint singularity.
    Endpoints closer than MIN_ENDPOINT_GAP raise
    IllConditionedGeometryError, as in elliptic_data.
    """
    _check_endpoints(gap)
    v1, v2 = gap.v1, gap.v2

    def f(t):
        return 1.0 / np.sqrt((1.0 + t) * (1.0 + v1 * t) * (1.0 + v2 * t))

    return _refine(lambda n: integrate_left_sqrt(f, 0.0, 1.0, n))
