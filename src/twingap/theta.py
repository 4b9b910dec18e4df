"""Jacobi theta functions with purely imaginary modulus.

theta_3 is evaluated from its lattice series

    theta_3(z; tau) = sum_m exp(2 pi i z m + pi i tau m^2),

theta_1, theta_2, theta_4 from the half-period shift relations

    theta_1(z) = i exp(-pi i z + pi i tau/4) theta_3(z - (tau+1)/2),
    theta_2(z) =   exp(-pi i z + pi i tau/4) theta_3(z - tau/2),
    theta_4(z) = theta_3(z + 1/2).

All z-derivatives (orders 0..3) are obtained by term-wise analytic
differentiation, never by finite differences.  tau must be purely
imaginary, tau = i t; anything else is refused with DomainError.  Two
numerical regimes:

* nome |q| <= 0.5: the defining series, after reducing Re z mod 1 and
  Im z mod t (tracking the quasi-period factor) so the exponentials
  stay O(1);
* nome |q| > 0.5 (small t, the merging regime): the imaginary modular
  transform theta_3(z; tau) = (-i tau)^{-1/2} sum_k
  exp(-(i pi / tau)(k - z)^2), whose terms decay like a Gaussian in k.

On tau = i t both series have closed-form tail bounds at a reduced
point, so the number of terms is fixed by t (and the derivative order)
before summing: the defining series stops where its terms fall below
1e-17 of the m = 0 term, the transform where its Gaussians fall below
1e-22 of the one nearest the point.  A non-finite tau or point is
refused with DomainError, and so is a point whose reduction count or
quasi-period factor overflows double (|Im z| / t very large), and any
value that overflows double.  Below t = 1e-90, where the powers of pi/t
can overflow, the transform's entries that do are recomputed in the
scaled variable sqrt(pi/t) (k - z), skipping Gaussians that underflow.

theta_eval also takes a numpy array of points, such as quadrature nodes
on the real line.  The argument reduction, the half-period shifts, the
two series sums and the binomial steps act on arrays as they are.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError

_TRUNC_REL = 1e-17
# direct series beyond this nome converges too slowly; switch to the
# modular transform (|q| = 0.5 at Im tau = log 2 / pi ~ 0.2206)
_NOME_SWITCH = 0.5

_BINOM = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1))
# below this t the powers of pi/t in the transform and its prefactor
# t^(-1/2) can overflow double; above it no term can
_TINY_T = 1e-90
# exp(w) overflows double once Re w exceeds this
_LOG_MAX = math.log(sys.float_info.max)
# past its checks, a value that is not finite overflows double
_OVERFLOW = "theta overflows double at this tau and order"


@dataclass(frozen=True)
class ThetaContext:
    """Immutable modulus data: a finite, purely imaginary tau = i t with
    t > 0, and its nome q = exp(i pi tau), which is computed from tau."""

    tau: complex
    nome: complex = field(init=False)

    def __post_init__(self):
        if not (cmath.isfinite(self.tau) and self.tau.real == 0.0
                and self.tau.imag > 0.0):
            raise DomainError(
                f"tau must be i t with finite t > 0, got tau={self.tau}")
        object.__setattr__(self, "nome", cmath.exp(1j * math.pi * self.tau))

    @classmethod
    def from_tau(cls, tau: complex) -> "ThetaContext":
        return cls(complex(tau))


def _exp(w):
    """cmath.exp of a number, np.exp of an array."""
    return np.exp(w) if isinstance(w, np.ndarray) else cmath.exp(w)


def _quasi_factor(w):
    """exp(w) for the exponent w of a quasi-period factor (a number or an
    array); DomainError where exp(w) is not a finite double."""
    if isinstance(w, np.ndarray):
        ok = np.isfinite(w).all() and w.real.max(initial=0.0) <= _LOG_MAX
    else:
        ok = cmath.isfinite(w) and w.real <= _LOG_MAX
    if not ok:
        raise DomainError("the quasi-period factor of theta overflows double")
    return _exp(w)


def _reduce(z, tau: complex):
    """Shift z by n*tau + m so that |Im z| <= Im tau / 2, |Re z| <= 1/2.

    Returns the reduced point and the tau-shift count n (an array of
    counts for an array of points); the integer shift m needs no
    bookkeeping (period 1).  A count that is not finite, where Im z / t
    overflows, raises DomainError.
    """
    if isinstance(z, np.ndarray):
        if not float(np.abs(z.imag).max(initial=0.0)) / tau.imag < math.inf:
            raise DomainError(f"Im z / Im tau overflows at tau={tau}")
        n = np.round(z.imag / tau.imag)
        z0 = z - n * tau
        return z0 - np.round(z0.real), n
    if not abs(z.imag) / tau.imag < math.inf:
        raise DomainError(f"Im z / Im tau overflows at z={z}, tau={tau}")
    n = round(z.imag / tau.imag)
    z0 = z - n * tau
    return z0 - round(z0.real), n


@lru_cache(maxsize=256)
def _direct_terms(t: float, order: int) -> int:
    """Last m of the defining series at tau = i t, for derivatives up to
    order.  At a reduced point |Im z0| <= t/2, so the +-m pair of the
    order-th derivative is at most 2 (2 pi m)^order exp(-pi t (m^2 - m)),
    against 1 for the m = 0 term."""
    m = 1
    while (2.0 * (2.0 * math.pi * m) ** order
           * math.exp(-math.pi * t * (m * m - m))) >= _TRUNC_REL:
        m += 1
    return m


@lru_cache(maxsize=256)
def _transform_terms(t: float) -> int:
    """Last shift k of the transformed series at tau = i t.  At a reduced
    point |Re z0| <= 1/2, so the Gaussians at +-k are at most
    exp(-(pi/t)(k^2 - k)) times the one at k = 0, nearest the point; the
    extra 1e-5 margin covers the Hermite factors of the derivatives."""
    a = math.pi / t
    k = 1
    while math.exp(-a * (k * k - k)) >= 1e-5 * _TRUNC_REL:
        k += 1
    return k


def _series_direct(z0, ctx: ThetaContext, kmax: int) -> list:
    """theta_3 derivatives 0..kmax at a reduced point (a number or an
    array of points), defining series over |m| <= _direct_terms."""
    tau = ctx.tau
    vals = [1.0 + 0j] + [0j] * kmax
    for m in range(1, _direct_terms(tau.imag, kmax) + 1):
        qm = cmath.exp(1j * math.pi * tau * m * m)
        ep = _exp(2j * math.pi * z0 * m) * qm
        em = _exp(-2j * math.pi * z0 * m) * qm
        for k in range(kmax + 1):
            c = (2j * math.pi * m) ** k
            vals[k] += c * ep + (-1) ** k * c * em
    return vals


def _series_transform(z0, ctx: ThetaContext, kmax: int) -> list:
    """theta_3 derivatives 0..kmax at a reduced point (a number or an
    array of points), modular transform over shifts |k| <= _transform_terms.

    Each term is a Gaussian exp(-(pi/t)(k - z)^2) whose z-derivatives
    are Hermite-type polynomials in u = k - z.  Below _TINY_T, where the
    powers of pi/t can overflow, every entry that comes out NaN or
    infinite is recomputed by _scaled_transform.
    """
    t = ctx.tau.imag
    a = math.pi / t
    pref = 1.0 / cmath.sqrt(-1j * ctx.tau)
    try:
        a3 = a ** 3
    except OverflowError:  # then 8 a^3 u^3 is not finite either
        a3 = math.inf
    vals = [0j] * (kmax + 1)
    for k in range(_transform_terms(t) + 1):
        for kk in ((0,) if k == 0 else (-k, k)):
            u = kk - z0
            e = _exp(-a * u * u)
            vals[0] += e
            if kmax > 0:
                vals[1] += 2.0 * a * u * e
            if kmax > 1:
                vals[2] += (4.0 * a * a * u * u - 2.0 * a) * e
            if kmax > 2:
                vals[3] += (8.0 * a3 * u ** 3 - 12.0 * a * a * u) * e
    vals = [pref * v for v in vals]
    if t < _TINY_T:
        vals = [np.where(np.isfinite(v), v, w) if isinstance(v, np.ndarray)
                else v if cmath.isfinite(v) else w
                for v, w in zip(vals, _scaled_transform(z0, t, kmax))]
    return vals


def _scaled_transform(z0, t: float, kmax: int) -> list:
    """_series_transform in y = sqrt(a) u, a = pi/t, for tiny t.

    The order-i term is t^(-1/2) a^(i/2) H_i(y) exp(-y^2), H_i the
    Hermite polynomials, so each sum of H_i(y) exp(-y^2) is O(1), and the
    scale, applied last in factors >= 1, overflows only where the value
    does.  A shift whose Gaussian underflows to 0 is skipped: y^2 > 745
    there, so |H_i(y)| exp(-y^2) < 1e-317.
    """
    r = math.sqrt(math.pi) / math.sqrt(t)  # sqrt(a), finite for any t > 0
    sums = [0j] * (kmax + 1)
    for k in range(_transform_terms(t) + 1):
        for kk in ((0,) if k == 0 else (-k, k)):
            y = r * (kk - z0)
            e = _exp(-y * y)
            y = y * (e != 0.0)  # a Gaussian that underflowed adds 0
            hermite = (1.0, 2.0 * y, 4.0 * y * y - 2.0, 8.0 * y ** 3 - 12.0 * y)
            for i in range(kmax + 1):
                sums[i] += hermite[i] * e
    out = []
    for i, v in enumerate(sums):
        v = v * (1.0 / math.sqrt(t))
        for _ in range(i):
            v = v * r
        out.append(v)
    return out


def theta_eval(j: int, z, ctx: ThetaContext, order: int = 0):
    """theta_j^{(order)}(z; tau) for j in 1..4 and order in 0..3.

    z is a finite number, or a numpy array of finite points, which gives
    the array of values at those points.  A value that overflows double
    (at tiny t or far from the real axis) raises DomainError; no value
    is NaN or infinite.

    Every theta_j is const * exp(pref z) * theta_3(z + shift).  Reducing
    z + shift = z0 + n tau (mod 1) brings in the quasi-period factor
    theta_3(z0 + n tau) = exp(-2 pi i n z0 - pi i n^2 tau) theta_3(z0).
    Both factors are exponentials linear in z, so they combine into a
    single exp and a single binomial pass with the summed rate.
    """
    if j not in (1, 2, 3, 4):
        raise DomainError(f"theta index must be 1..4, got {j}")
    if order not in (0, 1, 2, 3):
        raise DomainError(f"derivative order must be 0..3, got {order}")
    if isinstance(z, np.ndarray):
        z = z.astype(complex)
        if not np.isfinite(z).all():
            raise DomainError("theta_eval requires finite points")
        # an overflow or NaN is refused below, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            value = _theta(j, z, ctx, order)
        if not np.isfinite(value).all():
            raise DomainError(_OVERFLOW)
        return value
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"theta_eval requires a finite point, got {z}")
    if j == 1 and order % 2 == 0 and z == 0.0:
        return 0j  # theta_1 is odd
    value = _theta(j, z, ctx, order)
    if not cmath.isfinite(value):
        raise DomainError(_OVERFLOW)
    return value


def _theta(j: int, z, ctx: ThetaContext, order: int):
    """theta_eval past its checks, at a finite complex point or array."""
    tau = ctx.tau
    if j == 3:
        z0, n = _reduce(z, tau)
    elif j == 4:
        z0, n = _reduce(z + 0.5, tau)
    elif j == 1:
        z0, n = _reduce(z + -(tau + 1.0) / 2.0, tau)
    else:
        z0, n = _reduce(z + -tau / 2.0, tau)
    series = _series_transform if abs(ctx.nome) > _NOME_SWITCH else _series_direct
    raw = series(z0, ctx, order)
    moved = n.any() if isinstance(n, np.ndarray) else n != 0
    if moved:
        # an array count n near 1e154 overflows n*n; _quasi_factor refuses
        # the result
        logfac = -2j * math.pi * n * z0 - 1j * math.pi * n * n * tau
        rate = -2j * math.pi * n
    elif j > 2:
        return raw[order]
    else:
        logfac = rate = 0j
    if j > 2:
        fac = _quasi_factor(logfac)
    else:
        # theta_1 = i exp(-pi i z + pi i tau/4) theta_3(z - (tau+1)/2) and
        # theta_2 = exp(-pi i z + pi i tau/4) theta_3(z - tau/2)
        quarter = cmath.exp(1j * math.pi * tau / 4.0)
        rate = -1j * math.pi + rate
        fac = ((1j * quarter if j == 1 else quarter)
               * _quasi_factor(-1j * math.pi * z + logfac))
    acc = 0j
    for i in range(order + 1):
        acc += _BINOM[order][i] * rate ** (order - i) * raw[i]
    return fac * acc
