"""Residual evaluators for the closed-form identities.

Every checkable identity is expressed as a nonnegative residual
(relative where the identity has a natural scale, absolute otherwise)
packed into a ResidualReport, so both pytest and the CLI validate
command can drive the same evaluators over parameter grids.

Covered here:

* the seven theta-constant identities tying theta values at the Abel
  constant d to the elliptic integrals (labels "a".."g");
* Riemann's period relation between the A- and B-cycle integrals;
* the log s prefactor functional: g1hat == -1/2 identically in (v1,v2);
* derivative identities (d tau/d v2, d Omega/d v2, the band-edge
  expansion coefficient zeta0, the oscillation functional T1, and the
  v2-derivative of the primitive G of the full differential identity),
  finite-difference sides computed with Richardson extrapolation;
* period-integral lemmas for (theta3'/theta3)^2, the two-point theta
  ratio integral, and the elliptic-average rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .elliptic import GapPair, elliptic_data
from .errors import DomainError
from .theta import ThetaContext, theta_eval
from .two_gap import DerivedGeometry, abel_map, branch_point_u, derive_geometry

__all__ = ["ResidualReport", "theta_identity_residual",
           "period_relation_residual", "g1hat",
           "derivative_identity_residuals", "theta_integral_residuals",
           "edge_expansion_coefficients", "oscillation_functional",
           "run_suite", "SUITE_NAMES", "DEFAULT_GRID"]

#: default per-identity tolerances
TOLERANCES = {
    "theta_id": 1e-9,
    "period_relation": 1e-9,
    "g1hat": 1e-8,
    "fd_derivative": 1e-6,
    "t1": 1e-8,
    "gfun_dv2": 1e-5,
    "theta_integral": 1e-9,
    "abel_const": 1e-10,
}

DEFAULT_GRID = (GapPair(-0.8, -0.1), GapPair(-0.5, 0.3),
                GapPair(-0.2, 0.6), GapPair(-0.6, 0.6))

FINE_GRID = DEFAULT_GRID + (GapPair(-0.9, 0.7), GapPair(-0.3, -0.1),
                            GapPair(-0.7, 0.05), GapPair(-0.05, 0.85))


@dataclass(frozen=True)
class ResidualReport:
    identity_id: str
    residual: float
    inputs: dict
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.residual):
            raise DomainError(f"non-finite residual for {self.identity_id}")
        object.__setattr__(self, "passed", self.residual < self.tolerance)


def _h(z: float, v1: float, v2: float) -> float:
    """h(z) = (z-1)(z-v1) + (z-v2)(z+1), the symmetrized edge product."""
    return (z - 1.0) * (z - v1) + (z - v2) * (z + 1.0)


def _report(identity_id: str, residual: float, inputs: dict,
            tol_key: str) -> ResidualReport:
    return ResidualReport(identity_id=identity_id, residual=float(residual),
                          inputs=inputs, tolerance=TOLERANCES[tol_key])


def _theta_ratio_derivs(z: complex, ctx: ThetaContext) -> tuple[complex, ...]:
    """(g, g', g'', g''') of g = theta1/theta3 at z, by the quotient rule."""
    a = [theta_eval(1, z, ctx, k) for k in range(4)]
    b = [theta_eval(3, z, ctx, k) for k in range(4)]
    g0 = a[0] / b[0]
    g1 = a[1] / b[0] - a[0] * b[1] / b[0] ** 2
    g2 = (a[2] / b[0] - 2 * a[1] * b[1] / b[0] ** 2 - a[0] * b[2] / b[0] ** 2
          + 2 * a[0] * b[1] ** 2 / b[0] ** 3)
    g3 = (a[3] / b[0] - 3 * a[2] * b[1] / b[0] ** 2 - 3 * a[1] * b[2] / b[0] ** 2
          + 6 * a[1] * b[1] ** 2 / b[0] ** 3 - a[0] * b[3] / b[0] ** 2
          + 6 * a[0] * b[1] * b[2] / b[0] ** 3 - 6 * a[0] * b[1] ** 3 / b[0] ** 4)
    return g0, g1, g2, g3


def edge_expansion_coefficients(geom: DerivedGeometry) -> tuple[float, float]:
    """(gamma1, u1): subleading expansion coefficients at z = v2.

    u1 = -(1/6) d/dv2 log((v2^2-1)(v2-v1)); gamma1 follows from the
    Taylor expansion of the quartic ratio defining gamma^4:
    4 gamma1 = 1/(v2-1) + 1/(v2-v1) - 1/(v2+1).
    """
    v1, v2 = geom.v1, geom.v2
    dlog = 2.0 * v2 / (v2 * v2 - 1.0) + 1.0 / (v2 - v1)
    u1 = -dlog / 6.0
    gamma1 = 0.25 * (1.0 / (v2 - 1.0) + 1.0 / (v2 - v1) - 1.0 / (v2 + 1.0))
    return gamma1, u1


def theta_identity_residual(which: str, gap: GapPair, omega: float,
                            geom: DerivedGeometry | None = None) -> ResidualReport:
    """Relative residual of one of the theta-constant identities a..g.

    omega enters (a) only.  Identity (a) is evaluated in the
    multiplied-through form so potential zeros of theta3(d +- omega)
    never appear in a denominator.
    """
    if geom is None:
        geom = derive_geometry(gap)
    ctx = geom.theta_context()
    v1, v2 = gap.v1, gap.v2
    I0 = geom.elliptic.I0
    d = geom.d
    inputs = {"v1": v1, "v2": v2, "omega": omega}

    if which == "a":
        t3_0 = theta_eval(3, 0.0, ctx)
        t3_d = theta_eval(3, d, ctx)
        t3_o = theta_eval(3, omega, ctx)
        tp, tm = theta_eval(3, d + omega, ctx), theta_eval(3, d - omega, ctx)
        tp1, tm1 = theta_eval(3, d + omega, ctx, 1), theta_eval(3, d - omega, ctx, 1)
        ld = theta_eval(3, d, ctx, 1) / t3_d
        value = (t3_0 ** 2 / (t3_d ** 2 * t3_o ** 2)) * (
            tp * tm - (geom.gamma0_sq * geom.u0 / 2.0)
            * (tp1 * tm + tm1 * tp - 2.0 * ld * tp * tm))
        res = abs(value - 1.0)
    elif which == "b":
        lhs = (theta_eval(1, d, ctx, 1) / theta_eval(1, d, ctx)
               - theta_eval(3, d, ctx, 1) / theta_eval(3, d, ctx))
        rhs = -1j * I0 * (1.0 + v2)
        res = abs(lhs - rhs) / abs(rhs)
    elif which == "c":
        g0, _, g2, g3 = _theta_ratio_derivs(d, ctx)
        gamma1, u1 = edge_expansion_coefficients(geom)
        gu = geom.gamma0_sq * geom.u0
        rhs = (3.0 / gu) * g2 - (6.0 * (2.0 * gamma1 + u1)
                                 / (gu * geom.u0 ** 2)) * g0
        res = abs(g3 - rhs) / max(1.0, abs(rhs))
    elif which == "d":
        t3_0 = theta_eval(3, 0.0, ctx)
        t1p = theta_eval(1, 0.0, ctx, 1)
        rhs = -1.0 / I0 ** 2
        res = 0.0
        for z0, uval in branch_point_u(geom).items():
            arg = uval + d
            val = ((theta_eval(1, arg, ctx) / theta_eval(3, arg, ctx)) ** 2
                   * (t3_0 / t1p) ** 2 * _h(z0, v1, v2))
            res = max(res, abs(val - rhs) / abs(rhs))
    elif which in ("e", "f", "g"):
        j = {"e": 4, "f": 2, "g": 3}[which]
        target = {"e": 2.0 * (v2 - v1),
                  "f": (1.0 + v1) * (1.0 - v2),
                  "g": (1.0 - v1) * (1.0 + v2)}[which]
        lhs = theta_eval(j, 0.0, ctx) ** 4
        rhs = (I0 / math.pi) ** 2 * target
        res = abs(lhs - rhs) / abs(rhs)
    else:
        raise DomainError(f"unknown identity {which!r}; expected one of a..g")
    return _report(f"theta_id_{which}", res, inputs, "theta_id")


def period_relation_residual(gap: GapPair) -> ResidualReport:
    """|(I2 - m I1) J0 - I0 (J2 - m J1) - pi| with m = (v1+v2)/2."""
    e = elliptic_data(gap)
    m = 0.5 * (gap.v1 + gap.v2)
    res = abs((e.I2 - m * e.I1) * e.J0 - e.I0 * (e.J2 - m * e.J1) - math.pi)
    return _report("period_relation", res,
                   {"v1": gap.v1, "v2": gap.v2}, "period_relation")


def g1hat(gap: GapPair, geom: DerivedGeometry | None = None) -> float:
    """The log s prefactor functional; equals -1/2 for every gap pair.

    g1hat = -(1/16) sum_y (1/q(y)) (h(y) + theta3''/(theta3 I0^2)) over
    the branch points y, with signed q.
    """
    if geom is None:
        geom = derive_geometry(gap)
    v1, v2 = gap.v1, gap.v2
    I0 = geom.elliptic.I0
    ctx = geom.theta_context()
    ratio = (theta_eval(3, 0.0, ctx, 2) / theta_eval(3, 0.0, ctx)).real
    total = 0.0
    for y in (-1.0, v1, v2, 1.0):
        qy = (y - geom.x1) * (y - geom.x2)
        total += (_h(y, v1, v2) + ratio / I0 ** 2) / qy
    return -total / 16.0


def oscillation_functional(omega: float, geom: DerivedGeometry) -> complex:
    """T1(omega), the subleading functional of the differential identity.

    Assembled from the edge expansion of the outer model solution:
    with l_k(x) = theta3^(k)(x)/theta3(x) and m0(+-) =
    theta3(0) theta3(d +- omega) / (theta3(omega) theta3(d)),

        Gamma1 = -u0 [l1(d+omega) - l1(d-omega)],
        Gamma2 = (u0^2/2) [l2(d+omega) - l2(d-omega)
                           - 2 l1(d) (l1(d+omega) - l1(d-omega))],
        T1 = -(m0(+) m0(-) / u0) (gamma0^2 Gamma2 + Gamma1),

    and the identity states T1(omega) = 2 theta3'(omega)/theta3(omega).
    """
    ctx = geom.theta_context()
    d = geom.d
    u0 = geom.u0
    t3_0 = theta_eval(3, 0.0, ctx)
    t3_o = theta_eval(3, omega, ctx)
    t3_d = theta_eval(3, d, ctx)
    ld = theta_eval(3, d, ctx, 1) / t3_d
    lp1 = theta_eval(3, d + omega, ctx, 1) / theta_eval(3, d + omega, ctx)
    lm1 = theta_eval(3, d - omega, ctx, 1) / theta_eval(3, d - omega, ctx)
    lp2 = theta_eval(3, d + omega, ctx, 2) / theta_eval(3, d + omega, ctx)
    lm2 = theta_eval(3, d - omega, ctx, 2) / theta_eval(3, d - omega, ctx)
    m0p = t3_0 * theta_eval(3, d + omega, ctx) / (t3_o * t3_d)
    m0m = t3_0 * theta_eval(3, d - omega, ctx) / (t3_o * t3_d)
    gamma1_ = -u0 * (lp1 - lm1)
    gamma2_ = (u0 ** 2 / 2.0) * (lp2 - lm2 - 2.0 * ld * (lp1 - lm1))
    return -(m0p * m0m / u0) * (geom.gamma0_sq * gamma2_ + gamma1_)


def _fd_richardson(f: Callable[[float], float], x: float,
                   h: float = 1e-5) -> float:
    """Central difference with one Richardson step over {h, h/2}."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2.0) - f(x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def _band_energy(geom: DerivedGeometry) -> float:
    """-x1 x2 - (v2-v1)^2/8, whose v2-derivative is zeta0^2/4."""
    return -geom.x1 * geom.x2 - (geom.v2 - geom.v1) ** 2 / 8.0


def _domega_dv2(geom: DerivedGeometry) -> float:
    """dOmega/dv2 = (v2-x1)(x2-v2) / (I0 (1-v2^2)(v2-v1))."""
    v1, v2 = geom.v1, geom.v2
    return ((v2 - geom.x1) * (geom.x2 - v2)
            / (geom.elliptic.I0 * (1.0 - v2 * v2) * (v2 - v1)))


def _g_primitive(s: float, v1: float, v2: float) -> float:
    """The primitive whose v2-derivative the differential identity gives.

    G = s^2 [ -x1 x2 - (v2-v1)^2/8 ] + log theta3(s Omega; tau)
        - (1/2) log I0 - (1/8) sum_y log|q(y)|.
    """
    geom = derive_geometry(GapPair(v1, v2))
    ctx = geom.theta_context()
    th = theta_eval(3, s * geom.Omega, ctx).real
    return (s * s * _band_energy(geom)
            + math.log(th) - 0.5 * math.log(geom.elliptic.I0)
            - 0.125 * sum(math.log(q) for q in geom.q_at))


def _g_primitive_rate(s: float, geom: DerivedGeometry) -> float:
    """Closed-form d/dv2 of _g_primitive from the derivative identities."""
    v1, v2 = geom.v1, geom.v2
    ctx = geom.theta_context()
    om = s * geom.Omega
    th = theta_eval(3, om, ctx).real
    th1 = theta_eval(3, om, ctx, 1).real
    th2 = theta_eval(3, om, ctx, 2).real
    qv2 = geom.q_at[2]
    denom = (1.0 - v2 * v2) * (v2 - v1)
    q2 = qv2 * qv2 / denom
    dlog_qm1 = (0.5 - (v2 - v1) / 4.0 - q2) / geom.q_at[0]
    dlog_qv1 = (v1 / 2.0 + (v2 - v1) / 4.0 + q2) / geom.q_at[1]
    dlog_qv2 = (-0.75 * v2 + v1 / 4.0 + q2) / qv2
    dlog_qp1 = (-0.5 - (v2 - v1) / 4.0 - q2) / geom.q_at[3]
    dlog_i0 = -qv2 / denom
    return (s * s * geom.zeta0 ** 2 / 4.0
            + s * _domega_dv2(geom) * th1 / th
            + (geom.u0 ** 2 / 4.0) * th2 / th
            - 0.5 * dlog_i0
            - 0.125 * (dlog_qm1 + dlog_qv1 + dlog_qv2 + dlog_qp1))


# the s at which the v2-derivative of the primitive G is checked
_GFUN_S = 3.7


def derivative_identity_residuals(gap: GapPair,
                                  omega: float) -> list[ResidualReport]:
    """Finite-difference checks of the closed-form v2-derivatives.

    Returns reports for d|tau|/dv2 vs pi u0^2, dOmega/dv2 vs its rational
    form, the band-edge coefficient zeta0^2/4 vs the derivative of
    -x1 x2 - (v2-v1)^2/8, the oscillation functional T1 vs
    2 theta3'/theta3 (pointwise in omega), and the primitive rate
    _g_primitive_rate vs a finite difference of _g_primitive, both at
    s = _GFUN_S.
    """
    geom = derive_geometry(gap)
    v1, v2 = gap.v1, gap.v2
    inputs = {"v1": v1, "v2": v2, "omega": omega}
    out = []

    def abs_tau(x: float) -> float:
        e = derive_geometry(GapPair(v1, x)).elliptic
        return e.J0 / e.I0

    fd = _fd_richardson(abs_tau, v2)
    rhs = math.pi * geom.u0 ** 2
    out.append(_report("dtau_dv2", abs(fd - rhs) / abs(rhs), inputs,
                       "fd_derivative"))

    def omega_of(x: float) -> float:
        return 1.0 / derive_geometry(GapPair(v1, x)).elliptic.I0

    fd = _fd_richardson(omega_of, v2)
    rhs = _domega_dv2(geom)
    out.append(_report("domega_dv2", abs(fd - rhs) / abs(rhs), inputs,
                       "fd_derivative"))

    fd = _fd_richardson(lambda x: _band_energy(derive_geometry(GapPair(v1, x))),
                        v2)
    rhs = geom.zeta0 ** 2 / 4.0
    out.append(_report("zeta0_sq", abs(fd - rhs) / abs(rhs), inputs,
                       "fd_derivative"))

    ctx = geom.theta_context()
    t1 = oscillation_functional(omega, geom)
    rhs_t1 = 2.0 * theta_eval(3, omega, ctx, 1) / theta_eval(3, omega, ctx)
    out.append(_report("t1_functional", abs(t1 - rhs_t1) / max(1.0, abs(rhs_t1)),
                       inputs, "t1"))

    fd = _fd_richardson(lambda x: _g_primitive(_GFUN_S, v1, x), v2, h=1e-4)
    rhs = _g_primitive_rate(_GFUN_S, geom)
    out.append(_report("gfun_dv2", abs(fd - rhs) / max(1.0, abs(rhs)),
                       {**inputs, "s": _GFUN_S}, "gfun_dv2"))
    return out


# the composite Gauss-Legendre rule of the period integrals: _PANELS
# equal panels of _NODES nodes each
_PANELS = 8
_NODES = 32


def _composite_gauss_01(f: Callable[[np.ndarray], np.ndarray]):
    """int_0^1 f(z) dz by a composite Gauss-Legendre rule.

    f takes the array of all nodes and returns its values there, or a
    stack of several integrands (one per row), each integrated by the
    same rule.
    """
    t, w = np.polynomial.legendre.leggauss(_NODES)
    a = np.arange(_PANELS)[:, None] / _PANELS
    b = (np.arange(_PANELS)[:, None] + 1) / _PANELS
    z = (t + 1.0) * (b - a) / 2.0 + a
    return (f(z.ravel()) * (w * (b - a) / 2.0).ravel()).sum(axis=-1)


def theta_integral_residuals(ctx: ThetaContext, d: complex,
                             u: float) -> list[ResidualReport]:
    """Quadrature checks of the three period-integral lemmas.

    (i)   int_0^1 (theta3'/theta3)^2 = pi^2/3 + theta1'''/(3 theta1');
    (ii)  int_0^1 theta3(z-d) theta3(z+u+d) / theta3(z)^2 dz
          = pi [theta1'(d) theta1(u+d) - theta1(d) theta1'(u+d)]
            / (theta1'(0)^2 sin(pi u)),  u not an integer;
    (iii) the elliptic-average rule on the witness
          (theta1'(0)/theta3(0))^2 (theta1/theta3)^2, whose double-pole
          coefficient is exactly -1, so its period average must equal
          -theta3''(0)/theta3(0).
    """
    if abs(u - round(u)) < 1e-12:
        raise DomainError(f"integral (ii) is singular at integer u, got {u}")
    inputs = {"tau": str(ctx.tau), "d": str(d), "u": u}
    t1p = theta_eval(1, 0.0, ctx, 1)
    t3_0 = theta_eval(3, 0.0, ctx)

    def integrands(z: np.ndarray) -> np.ndarray:
        t3 = theta_eval(3, z, ctx)
        return np.array([
            (theta_eval(3, z, ctx, 1) / t3) ** 2,
            theta_eval(3, z - d, ctx) * theta_eval(3, z + u + d, ctx) / t3 ** 2,
            (t1p / t3_0) ** 2 * (theta_eval(1, z, ctx) / t3) ** 2])

    # one rule and one vector pass over its nodes for all three lemmas
    val_i, val_ii, val_iii = _composite_gauss_01(integrands)
    out = []

    rhs = math.pi ** 2 / 3.0 + theta_eval(1, 0.0, ctx, 3) / (3.0 * t1p)
    out.append(_report("int_logderiv_sq", abs(val_i - rhs) / max(1.0, abs(rhs)),
                       inputs, "theta_integral"))

    rhs = (math.pi * (theta_eval(1, d, ctx, 1) * theta_eval(1, u + d, ctx)
                      - theta_eval(1, d, ctx) * theta_eval(1, u + d, ctx, 1))
           / (t1p ** 2 * cmath.sin(math.pi * u)))
    out.append(_report("int_two_point", abs(val_ii - rhs) / max(1.0, abs(rhs)),
                       inputs, "theta_integral"))

    rhs = -theta_eval(3, 0.0, ctx, 2) / t3_0
    out.append(_report("int_average_rule", abs(val_iii - rhs) / max(1.0, abs(rhs)),
                       inputs, "theta_integral"))
    return out


# ---------------------------------------------------------------------------
# validation suites (shared by the CLI and the acceptance tests)

SUITE_NAMES = ("theta", "geometry", "derivatives", "integrals", "g1hat", "all")

_G1HAT_GRID = tuple(GapPair(v1, v2)
                    for v1 in (-0.85, -0.6, -0.35, -0.1, 0.15)
                    for v2 in (-0.75, -0.45, 0.0, 0.45, 0.75)
                    if v1 < v2)


def run_suite(name: str, fine: bool = False) -> list[ResidualReport]:
    """Evaluate one named residual suite over its parameter grid."""
    grid = FINE_GRID if fine else DEFAULT_GRID
    omegas = (0.0, 0.37, 0.5)
    reports: list[ResidualReport] = []
    if name == "all":
        for sub in SUITE_NAMES[:-1]:
            reports.extend(run_suite(sub, fine=fine))
        return reports
    if name == "theta":
        for gap in grid:
            geom = derive_geometry(gap)
            for which in "abcdefg":
                for om in (omegas if which == "a" else omegas[:1]):
                    reports.append(theta_identity_residual(which, gap, om, geom))
    elif name == "geometry":
        for gap in grid:
            reports.append(period_relation_residual(gap))
            geom = derive_geometry(gap)
            u_inf = abel_map(math.inf, gap, geom)
            frac = u_inf + geom.d
            res = abs(frac - round(frac.real))
            reports.append(_report("abel_infinity", res,
                                   {"v1": gap.v1, "v2": gap.v2}, "abel_const"))
    elif name == "derivatives":
        for gap in grid:
            reports.extend(derivative_identity_residuals(gap, omega=0.37))
    elif name == "integrals":
        for t in (0.8, 1.5, 3.0):
            ctx = ThetaContext.from_tau(1j * t)
            reports.extend(theta_integral_residuals(
                ctx, d=0.2 + 0.3j * t, u=0.37))
    elif name == "g1hat":
        for gap in _G1HAT_GRID:
            val = g1hat(gap)
            reports.append(_report("g1hat", abs(val + 0.5),
                                   {"v1": gap.v1, "v2": gap.v2}, "g1hat"))
    else:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return reports
