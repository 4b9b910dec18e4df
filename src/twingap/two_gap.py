"""Derived geometry of the two-cut Riemann surface.

From a gap pair (v1, v2) this module produces everything the asymptotic
expansions and identity checks consume: the zeros x1, x2 of the monic
quadratic q(z) that normalizes q/sqrt(p) to have vanishing A-cycle
integrals, the quadratic growth coefficient G0, the oscillation
frequency Omega = 1/I0, the modulus tau = i J0/I0, the Abel-map values
at the branch points, the Abel constant d, and the local expansion
coefficients (zeta0, gamma0^2, u0) at the edge v2.

Branch conventions.  sqrt(p) is positive for x > 1 on the first sheet
and continued through the upper half-plane, which makes it

    +i sqrt|p|  on (v2, 1)+,   -sqrt|p|  on (v1, v2),
    -i sqrt|p|  on (-1, v1)+,  +sqrt|p|  on (-inf, -1).

With these phases the normalized holomorphic differential is
omega = i dz / (2 I0 sqrt(p)), u(z) = -int_{v2}^{z} omega, and the
branch-point values are u(-1) = -tau/2 - 1/2, u(v1) = -tau/2,
u(v2) = 0, u(1) = -1/2 (upper boundary values; other paths differ by
lattice shifts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elliptic import (EllipticData, GapPair, elliptic_data,
                       integrate_both_sqrt, integrate_left_sqrt,
                       integrate_right_sqrt, tail_integral, _refine)
from .errors import DomainError
from .theta import ThetaContext

__all__ = ["DerivedGeometry", "derive_geometry", "abel_map", "branch_point_u"]


@dataclass(frozen=True)
class DerivedGeometry:
    """All quantities derived from one gap pair.

    q_at holds |q(y)| at y = -1, v1, v2, 1 in that order (q itself is
    positive at +-1 and negative at v1, v2).
    """

    gap: GapPair
    elliptic: EllipticData
    x1: float
    x2: float
    G0: float
    Omega: float
    tau: complex
    d: complex
    zeta0: float
    gamma0_sq: complex
    u0: float
    q_at: tuple[float, float, float, float]

    @property
    def v1(self) -> float:
        return self.gap.v1

    @property
    def v2(self) -> float:
        return self.gap.v2

    def theta_context(self) -> ThetaContext:
        return ThetaContext.from_tau(self.tau)


def _reduce_to_cell(d: complex, tau: complex) -> complex:
    """Lattice-shift d so that Re d in (-1/2, 1/2] and Im d in (0, Im tau]."""
    t = tau.imag
    n = math.ceil(d.imag / t) - 1
    d = d - n * tau
    k = math.floor(d.real + 0.5)
    if d.real - k <= -0.5:  # floor(x + 1/2) sends the tie to -1/2; pull back
        k -= 1
    return complex(d.real - k, d.imag)


# Everything but s in an expansion depends on the gap alone, so an s-sweep
# over one pair reuses its geometry; the bound keeps a long run's memory flat.
@lru_cache(maxsize=32)
def derive_geometry(gap: GapPair) -> DerivedGeometry:
    """Compute the full derived geometry for one gap pair.

    Memoized on the (frozen, hashable) gap for the last 32 pairs; the
    result is immutable, so every caller may share it.

    x1 x2 = (-I2 + (v1+v2)/2 I1)/I0 and x1 + x2 = (v1+v2)/2 pin the
    zeros of q; G0 = x1 x2 + 1/2 + (v2-v1)^2/8; Omega = 1/I0 and
    tau = i J0/I0.  The Abel constant is

        d = -1/2 + tau/2 - (i / (2 I0)) int_{-inf}^{-1} dx/sqrt(p),

    reduced into the fundamental cell.  (Equivalently d = u(z*)
    - (1 - tau)/2 with z* = (v1+v2)/(2 + v1 - v2) the zero of
    gamma - 1/gamma; both forms agree mod 1, and the theta identities
    pin the overall sign.)
    """
    e = elliptic_data(gap)
    v1, v2 = gap.v1, gap.v2
    ssum = 0.5 * (v1 + v2)
    prod = (-e.I2 + ssum * e.I1) / e.I0
    disc = math.sqrt(ssum * ssum - 4.0 * prod)
    x1 = 0.5 * (ssum - disc)
    x2 = 0.5 * (ssum + disc)
    if not (-1.0 < x1 < v1 and v2 < x2 < 1.0):
        raise DomainError(
            f"quadratic zeros escaped their brackets: x1={x1}, x2={x2}")
    G0 = prod + 0.5 + (v2 - v1) ** 2 / 8.0
    Omega = 1.0 / e.I0
    tau = 1j * e.J0 / e.I0
    c = tail_integral(gap) / (2.0 * e.I0)
    d = _reduce_to_cell(complex(-0.5, tau.imag / 2.0 - c), tau)
    zeta0 = 2.0 * (v2 - x1) * (x2 - v2) / math.sqrt((1.0 - v2 * v2) * (v2 - v1))
    u0 = 1.0 / (e.I0 * math.sqrt((v2 - v1) * (1.0 - v2 * v2)))
    gamma0_sq = 1j * math.sqrt((1.0 - v2) * (v2 - v1) / (1.0 + v2))
    q_at = tuple(abs((y - x1) * (y - x2)) for y in (-1.0, v1, v2, 1.0))
    return DerivedGeometry(gap=gap, elliptic=e, x1=x1, x2=x2, G0=G0,
                           Omega=Omega, tau=tau, d=d, zeta0=zeta0,
                           gamma0_sq=gamma0_sq, u0=u0, q_at=q_at)


def branch_point_u(geom: DerivedGeometry) -> dict[float, complex]:
    """Exact Abel-map representatives at the four branch points."""
    tau = geom.tau
    return {-1.0: -tau / 2.0 - 0.5, geom.v1: -tau / 2.0,
            geom.v2: 0j, 1.0: -0.5 + 0j}


def abel_map(z: float, gap: GapPair, geom: DerivedGeometry | None = None) -> complex:
    """u(z) = -int_{v2}^{z} omega along the upper side of the real axis.

    Defined for real z with z <= -1, v1 <= z <= v2, or z >= 1, and for
    z = +inf (the convergent improper integral over (-inf, -1), which
    satisfies u(inf) + d = 0 mod 1).  Points strictly inside either gap
    sit on a branch cut and are rejected.
    """
    if geom is None:
        geom = derive_geometry(gap)
    v1, v2 = gap.v1, gap.v2
    e = geom.elliptic
    branch = branch_point_u(geom)

    if math.isinf(z):
        c = tail_integral(gap) / (2.0 * e.I0)
        return branch[-1.0] + 1j * c
    if z in branch:
        return branch[z]
    if v1 < z < v2:
        f = lambda x: 1.0 / np.sqrt((1.0 - x * x) * (x - v1))
        val = _refine(lambda n: integrate_left_sqrt(f, z, v2, n))
        return -1j * val / (2.0 * e.I0)
    if z > 1.0:
        f = lambda x: 1.0 / np.sqrt((x + 1.0) * (x - v1) * (x - v2))
        val = _refine(lambda n: integrate_right_sqrt(f, 1.0, z, n))
        return -0.5 - 1j * val / (2.0 * e.I0)
    if z < -1.0:
        # |p| = (1-x)(-1-x)(v1-x)(v2-x) here; (-1-x) is the weight
        f = lambda x: 1.0 / np.sqrt((1.0 - x) * (v1 - x) * (v2 - x))
        val = _refine(lambda n: integrate_left_sqrt(f, z, -1.0, n))
        return branch[-1.0] + 1j * val / (2.0 * e.I0)
    raise DomainError(
        f"abel_map is undefined on the open gaps (-1,v1) and (v2,1); got z={z}")
