"""Independent reference formulas the tests compare the package against.

None of these has a caller in the package: the complete elliptic
integrals by the AGM, the closed-form v2-derivatives of the moments, the
v2 -> 1 limits of the geometry, the theta constants at z = 0, and g1hat
with the elliptic closed form of theta3''(0)/theta3(0).
"""

import math
from dataclasses import dataclass

from twingap import DomainError, GapPair, derive_geometry, elliptic_data, theta_eval
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
