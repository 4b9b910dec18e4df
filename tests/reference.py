"""Independent reference formulas the tests compare the package against.

None of these has a caller in the package: the complete elliptic
integrals by the AGM, the closed-form v2-derivatives of the moments, the
v2 -> 1 limits of the geometry, the theta constants at z = 0, g1hat
with the elliptic closed form of theta3''(0)/theta3(0), the theta
quasi-period and modular residuals, the Toeplitz determinant that
cross-checks the Nystrom oracle, and the factorization gap of two
separated intervals.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from twingap import (DomainError, GapPair, OracleResult, derive_geometry,
                     elliptic_data, fredholm_logdet, theta_eval)
from twingap import theta
from twingap.identities import _h


def complete_elliptic(v: float) -> tuple[float, float]:
    """Complete elliptic integrals (K(v), E(v)) of modulus v in [0, 1).

    K by the arithmetic-geometric mean, E by the companion sum
    E/K = 1 - sum 2^(n-1) c_n^2 with c_0 = v.  Quadratic convergence
    terminates in at most ~8 iterations at double precision.
    """
    if not (0.0 <= v < 1.0):
        raise DomainError(f"complete_elliptic requires 0 <= v < 1, got {v}")
    a, b = 1.0, math.sqrt(1.0 - v * v)
    c = v
    csum = 0.5 * c * c  # 2^{n-1} c_n^2 starting at n = 0
    pow2 = 0.5
    for _ in range(40):
        if abs(a - b) < 1e-16 * a:
            break
        a, b, c = (a + b) / 2.0, math.sqrt(a * b), (a - b) / 2.0
        pow2 *= 2.0
        csum += pow2 * c * c
    K = math.pi / (2.0 * a)
    E = K * (1.0 - csum)
    return K, E


def elliptic_v2_derivatives(gap: GapPair) -> tuple[float, float, float, float]:
    """Closed-form (dI0, dI1, dI2, dJ0) with respect to the edge v2.

    dI0 = (-I2 + (v1+v2)/2 I1 + v2 (v2-v1)/2 I0) / ((1-v2^2)(v2-v1)),
    dI1 = I0/2 + v2 dI0,
    dI2 = v2^2 dI0 + I1/2 + v2 I0/2,
    and dJ0 takes the same rational form as dI0 with J's in place of I's.
    """
    v1, v2 = gap.v1, gap.v2
    e = elliptic_data(gap)
    denom = (1.0 - v2 * v2) * (v2 - v1)
    mid = 0.5 * (v1 + v2)
    dI0 = (-e.I2 + mid * e.I1 + 0.5 * v2 * (v2 - v1) * e.I0) / denom
    dI1 = 0.5 * e.I0 + v2 * dI0
    dI2 = v2 * v2 * dI0 + 0.5 * e.I1 + 0.5 * v2 * e.I0
    dJ0 = (-e.J2 + mid * e.J1 + 0.5 * v2 * (v2 - v1) * e.J0) / denom
    return dI0, dI1, dI2, dJ0


def geometry_v2_limit_checks(gap: GapPair) -> dict[str, float]:
    """Residuals of the v2 -> 1 asymptotics of x1, x2 and tau.

    x1 -> (v1-1)/2 and x2 -> (1+v2)/2 with O((1-v2)^2) error, and

        tau ~ (i/pi) [5 log 2 + log(1/(1-v2)) + log((1-v1)/(1+v1))]

    up to a relative O(sqrt(1-v2)) correction.
    """
    geom = derive_geometry(gap)
    v1, v2 = gap.v1, gap.v2
    tau_pred = (5.0 * math.log(2.0) + math.log(1.0 / (1.0 - v2))
                + math.log((1.0 - v1) / (1.0 + v1))) / math.pi
    return {
        "x1_abs_residual": abs(geom.x1 - (v1 - 1.0) / 2.0),
        "x2_abs_residual": abs(geom.x2 - (1.0 + v2) / 2.0),
        "tau_rel_residual": abs(geom.tau.imag - tau_pred) / abs(tau_pred),
    }


@dataclass(frozen=True)
class ThetaConstants:
    """Values and z-derivatives at z = 0 (theta_1(0) = 0 is omitted)."""

    theta2: float
    theta3: float
    theta4: float
    theta1_prime: float
    theta1_ppp: float
    theta3_pp: float


def theta_constants(ctx) -> ThetaConstants:
    """Series values/derivatives at z = 0.

    For purely imaginary tau all six numbers are real; tiny imaginary
    round-off is discarded.
    """
    t2 = theta_eval(2, 0.0, ctx).real
    t3 = theta_eval(3, 0.0, ctx).real
    t4 = theta_eval(4, 0.0, ctx).real
    t1p = theta_eval(1, 0.0, ctx, order=1).real
    t1ppp = theta_eval(1, 0.0, ctx, order=3).real
    t3pp = theta_eval(3, 0.0, ctx, order=2).real
    return ThetaConstants(theta2=t2, theta3=t3, theta4=t4,
                          theta1_prime=t1p, theta1_ppp=t1ppp, theta3_pp=t3pp)


def g1hat_closed_form(gap: GapPair, geom) -> float:
    """g1hat with theta3''(0)/theta3(0) replaced by its elliptic closed
    form 2 I0^2 (x1 x2 + (v2-v1)/2) instead of the series value."""
    v1, v2 = gap.v1, gap.v2
    I0 = geom.elliptic.I0
    ratio = 2.0 * I0 ** 2 * (geom.x1 * geom.x2 + (v2 - v1) / 2.0)
    total = 0.0
    for y in (-1.0, v1, v2, 1.0):
        qy = (y - geom.x1) * (y - geom.x2)
        total += (_h(y, v1, v2) + ratio / I0 ** 2) / qy
    return -total / 16.0


# quasi-period factors under z -> z + tau, as multiples of
# exp(-2 pi i z - pi i tau); theta_1 and theta_4 pick up an extra sign.
_QP_SIGN = {1: -1.0, 2: 1.0, 3: 1.0, 4: -1.0}


def theta_quasi_period_residual(j: int, z: complex, ctx) -> float:
    """|theta_j(z + tau) - factor * theta_j(z)| / max(1, |theta_j(z)|)."""
    z = complex(z)
    base = theta_eval(j, z, ctx)
    shifted = theta_eval(j, z + ctx.tau, ctx)
    # exp(-2 pi i z) has exact period 1; dropping the integer part of
    # Re z avoids rounding a large phase
    zr = z - round(z.real)
    factor = _QP_SIGN[j] * cmath.exp(-2j * math.pi * zr - 1j * math.pi * ctx.tau)
    return abs(shifted - factor * base) / max(1.0, abs(base))


def theta3_modular_residual(z: complex, ctx) -> float:
    """Disagreement between the defining series and the tau -> -1/tau form.

    Both sums run at the same reduced point, whatever the nome (no regime
    switching), so this measures the internal consistency of the two
    evaluation branches; the quasi-period factor of the reduction scales
    both alike.
    """
    z0, n = theta._reduce(complex(z), ctx.tau)
    direct = theta._series_direct(z0, ctx, 0)[0]
    transf = theta._series_transform(z0, ctx, 0)[0]
    if n != 0:
        fac = cmath.exp(-2j * math.pi * n * z0 - 1j * math.pi * n * n * ctx.tau)
        direct, transf = fac * direct, fac * transf
    return abs(direct - transf)


def _arc_fourier(arcs, n: int) -> np.ndarray:
    """Fourier coefficients f_j, |j| <= n-1, of the indicator of arcs.

    For the arc theta in (a, b): f_0 = (b-a)/(2 pi) and
    f_j = (exp(-i j b) - exp(-i j a)) / (-2 pi i j) otherwise.
    """
    j = np.arange(-(n - 1), n)
    f = np.zeros(2 * n - 1, dtype=complex)
    nz = j != 0
    for a, b in arcs:
        f[nz] += (np.exp(-1j * j[nz] * b) - np.exp(-1j * j[nz] * a)) \
            / (-2j * math.pi * j[nz])
        f[~nz] += (b - a) / (2.0 * math.pi)
    return f


def toeplitz_logdet(s: float, v1: float, v2: float, n: int) -> OracleResult:
    """log of the n x n Toeplitz determinant converging to the gap
    probability on (-1, v1) u (v2, 1).

    The determinant is the n -> infinity limit of the Toeplitz
    determinant whose symbol is the indicator of the two arcs
    (2 v1 s/n, 2 v2 s/n) and (2 s/n, 2 pi - 2 s/n); a degenerate band
    v1 = v2 leaves a single arc (the one-interval determinant).  The
    convergence in n is only algebraic, so this is a cross-check of the
    Nystrom oracle at small s, not a second oracle.  Requires n >= 8 s so
    the arc endpoints stay well inside the circle parametrization.
    Determinant via LU with partial pivoting; smallest_one_minus_lambda
    holds the relative smallest pivot, and error_estimate the change from
    n/2 to n.
    """
    if n < 8 * s:
        raise DomainError(f"need n >= 8*s, got n={n}, s={s}")
    if not (-1.0 < v1 <= v2 < 1.0):
        raise DomainError(f"need -1 < v1 <= v2 < 1, got ({v1}, {v2})")
    phi0 = 2.0 * s / n
    p1, p2 = 2.0 * v1 * s / n, 2.0 * v2 * s / n
    arcs = [(phi0, 2.0 * math.pi - phi0)]
    if v2 > v1:
        arcs.append((p1, p2))
    f = _arc_fourier(arcs, n)

    def run(size: int) -> tuple[float, float]:
        center = n - 1
        col = f[center:center + size]
        row = f[center::-1][:size]
        lu, _ = scipy.linalg.lu_factor(scipy.linalg.toeplitz(col, row))
        diag = np.abs(np.diag(lu))
        if np.any(diag == 0.0):
            return -math.inf, 0.0
        return float(np.sum(np.log(diag))), float(diag.min() / diag.max())

    value, pivot = run(n)
    if not math.isfinite(value):
        raise DomainError(f"Toeplitz matrix is singular at n={n}, s={s}")
    half, _ = run(n // 2)
    return OracleResult(
        log_det=value,
        nodes_per_interval=n,
        smallest_one_minus_lambda=pivot,
        error_estimate=abs(value - half),
        unreliable=pivot < 1e-300,
    )


def separation_geometry(w: float) -> list[tuple[float, float]]:
    """The standard separated pair (-w, -w+1) u (w-1, w), w > 2."""
    if not w > 2.0:
        raise DomainError(f"separation geometry needs w > 2, got {w}")
    return [(-w, -w + 1.0), (w - 1.0, w)]


def separation_factorization_gap(u: float, w: float) -> float:
    """|det(I-K_u) on both intervals - product of single-interval dets|.

    Measures how fast the determinant on (-w, -w+1) u (w-1, w)
    factorizes as the separation w grows (the gap decays like 1/w for
    fixed u).
    """
    if not (u > 2.0 and w > 2.0):
        raise DomainError(f"need u, w > 2, got u={u}, w={w}")
    pair = separation_geometry(w)
    both = fredholm_logdet(u, pair, max_nodes=400)
    left = fredholm_logdet(u, pair[:1], max_nodes=400)
    right = fredholm_logdet(u, pair[1:], max_nodes=400)
    return abs(math.exp(both.log_det)
               - math.exp(left.log_det) * math.exp(right.log_det))
