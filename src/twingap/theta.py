"""Jacobi theta functions with purely imaginary modulus.

theta_3 is evaluated from its lattice series

    theta_3(z; tau) = sum_m exp(2 pi i z m + pi i tau m^2),

theta_1, theta_2, theta_4 from the half-period shift relations

    theta_1(z) = i exp(-pi i z + pi i tau/4) theta_3(z - (tau+1)/2),
    theta_2(z) =   exp(-pi i z + pi i tau/4) theta_3(z - tau/2),
    theta_4(z) = theta_3(z + 1/2).

All z-derivatives (orders 0..3) are obtained by term-wise analytic
differentiation, never by finite differences.  Two numerical regimes:

* nome |q| <= 0.5: the defining series, after reducing Re z mod 1 and
  Im z mod Im tau (tracking the quasi-period factor) so the exponentials
  stay O(1);
* nome |q| > 0.5 (small Im tau, the merging regime): the imaginary
  modular transform theta_3(z; tau) = (-i tau)^{-1/2} sum_k
  exp(-(i pi / tau)(k - z)^2), whose terms decay like a Gaussian in k.

Truncation stops once the next term falls below 1e-17 of the running
maximum; exceeding the term budget raises SeriesTruncationError.  A
non-finite tau or point is refused with DomainError.

theta_eval also takes a numpy array of points, such as quadrature nodes
on the real line.  The argument reduction, the half-period shifts and the
binomial steps act on arrays as they are; only the two series sums have
array forms, in which each point stops taking terms by the rule of a
scalar call at that point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SeriesTruncationError

_TRUNC_REL = 1e-17
# direct series beyond this nome converges too slowly; switch to the
# modular transform (|q| = 0.5 at Im tau = log 2 / pi ~ 0.2206)
_NOME_SWITCH = 0.5
# term budget of every series sum; past it SeriesTruncationError
_MAX_TERMS = 4000

_BINOM = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1))


@dataclass(frozen=True)
class ThetaContext:
    """Immutable modulus data: a finite tau in the upper half-plane and
    its nome q = exp(i pi tau), which is computed from tau."""

    tau: complex
    nome: complex = field(init=False)

    def __post_init__(self):
        if not (cmath.isfinite(self.tau) and self.tau.imag > 0.0):
            raise DomainError(
                f"tau must be finite with Im tau > 0, got tau={self.tau}")
        object.__setattr__(self, "nome", cmath.exp(1j * math.pi * self.tau))

    @classmethod
    def from_tau(cls, tau: complex) -> "ThetaContext":
        return cls(complex(tau))


def _exp(w):
    """cmath.exp of a number, np.exp of an array."""
    return np.exp(w) if isinstance(w, np.ndarray) else cmath.exp(w)


def _reduce(z, tau: complex):
    """Shift z by n*tau + m so that |Im z| <= Im tau / 2, |Re z| <= 1/2.

    Returns the reduced point and the tau-shift count n (an array of
    counts for an array of points); the integer shift m needs no
    bookkeeping (period 1).
    """
    if isinstance(z, np.ndarray):
        n = np.round(z.imag / tau.imag)
        z0 = z - n * tau
        return z0 - np.round(z0.real), n
    n = round(z.imag / tau.imag)
    z0 = z - n * tau
    return z0 - round(z0.real), n


def _series_direct(z0: complex, ctx: ThetaContext, kmax: int) -> list[complex]:
    """theta_3 derivatives 0..kmax at a reduced point, defining series."""
    tau = ctx.tau
    vals = [1.0 + 0j] + [0j] * kmax
    running = 1.0
    m = 1
    while True:
        qm = cmath.exp(1j * math.pi * tau * m * m)
        ep = cmath.exp(2j * math.pi * z0 * m) * qm
        em = cmath.exp(-2j * math.pi * z0 * m) * qm
        for k in range(kmax + 1):
            c = (2j * math.pi * m) ** k
            vals[k] += c * ep + (-1) ** k * c * em
        running = max(running, abs(vals[0]))
        # envelope never cancels by phase, unlike the summed term (at
        # quarter periods the +-m pair can vanish while m+1 does not)
        size = (2.0 * math.pi * m) ** kmax * (abs(ep) + abs(em))
        if size < _TRUNC_REL * max(running, 1e-300):
            return vals
        m += 1
        if m > _MAX_TERMS:
            raise SeriesTruncationError(
                f"theta series did not converge within {_MAX_TERMS} terms "
                f"(last term ~ {size:.3e})")


def _series_direct_array(z0: np.ndarray, ctx: ThetaContext,
                         kmax: int) -> list[np.ndarray]:
    """_series_direct at every point of an array; a point stops taking
    terms after the first m that stops the scalar sum at that point."""
    tau = ctx.tau
    vals = [np.ones(z0.shape, complex)] + [np.zeros(z0.shape, complex)
                                           for _ in range(kmax)]
    running = np.ones(z0.shape)
    live = np.ones(z0.shape, bool)
    m = 1
    while True:
        qm = cmath.exp(1j * math.pi * tau * m * m)
        ep = np.exp(2j * math.pi * z0 * m) * qm
        em = np.exp(-2j * math.pi * z0 * m) * qm
        for k in range(kmax + 1):
            c = (2j * math.pi * m) ** k
            vals[k] += np.where(live, c * ep + (-1) ** k * c * em, 0j)
        running = np.maximum(running, np.abs(vals[0]))
        size = (2.0 * math.pi * m) ** kmax * (np.abs(ep) + np.abs(em))
        live &= ~(size < _TRUNC_REL * running)
        if not live.any():
            return vals
        m += 1
        if m > _MAX_TERMS:
            raise SeriesTruncationError(
                f"theta series did not converge within {_MAX_TERMS} terms "
                f"(last term ~ {size.max():.3e})")


def _series_transform(z0: complex, ctx: ThetaContext, kmax: int) -> list[complex]:
    """theta_3 derivatives 0..kmax at a reduced point, modular transform.

    Valid for purely imaginary tau = i t; each term is a Gaussian
    exp(-(pi/t)(k - z)^2) whose z-derivatives are Hermite-type
    polynomials in u = k - z.
    """
    t = ctx.tau.imag
    a = math.pi / t
    pref = 1.0 / cmath.sqrt(-1j * ctx.tau)
    vals = [0j] * 4
    k0 = int(round(z0.real))
    k = 0
    running = 0.0
    while True:
        done_small = True
        for kk in ({k0} if k == 0 else {k0 - k, k0 + k}):
            u = kk - z0
            e = cmath.exp(-a * u * u)
            terms = (e,
                     2.0 * a * u * e,
                     (4.0 * a * a * u * u - 2.0 * a) * e,
                     (8.0 * a ** 3 * u ** 3 - 12.0 * a * a * u) * e)
            for j in range(4):
                vals[j] += terms[j]
            # extra 1e-5 margin covers the Hermite polynomial growth of
            # the derivative terms relative to the bare Gaussian
            if abs(e) >= 1e-5 * _TRUNC_REL * max(running, 1e-300):
                done_small = False
        running = max(running, abs(vals[0]))
        if k > 0 and done_small:
            break
        k += 1
        if k > _MAX_TERMS:
            raise SeriesTruncationError(
                "transformed theta series did not converge")
    return [pref * v for v in vals[: kmax + 1]]


def _series_transform_array(z0: np.ndarray, ctx: ThetaContext,
                            kmax: int) -> list[np.ndarray]:
    """_series_transform at every point of an array; a point stops taking
    terms after the first k that stops the scalar sum at that point."""
    t = ctx.tau.imag
    a = math.pi / t
    pref = 1.0 / cmath.sqrt(-1j * ctx.tau)
    vals = [np.zeros(z0.shape, complex) for _ in range(4)]
    k0 = np.round(z0.real)
    k = 0
    running = np.zeros(z0.shape)
    live = np.ones(z0.shape, bool)
    while True:
        small = np.ones(z0.shape, bool)
        for kk in ((k0,) if k == 0 else (k0 - k, k0 + k)):
            u = kk - z0
            e = np.exp(-a * u * u)
            terms = (e,
                     2.0 * a * u * e,
                     (4.0 * a * a * u * u - 2.0 * a) * e,
                     (8.0 * a ** 3 * u ** 3 - 12.0 * a * a * u) * e)
            for j in range(4):
                vals[j] += np.where(live, terms[j], 0j)
            small &= ~(np.abs(e) >= 1e-5 * _TRUNC_REL * np.maximum(running, 1e-300))
        running = np.maximum(running, np.abs(vals[0]))
        if k > 0:
            live &= ~small
            if not live.any():
                break
        k += 1
        if k > _MAX_TERMS:
            raise SeriesTruncationError(
                "transformed theta series did not converge")
    return [pref * v for v in vals[: kmax + 1]]


def theta_eval(j: int, z, ctx: ThetaContext, order: int = 0):
    """theta_j^{(order)}(z; tau) for j in 1..4 and order in 0..3.

    z is a finite number, or a numpy array of finite points, which gives
    the array of values at those points.

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
    else:
        z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError(f"theta_eval requires a finite point, got {z}")
        if j == 1 and order % 2 == 0 and z == 0.0:
            return 0j  # theta_1 is odd
    tau = ctx.tau
    if j == 3:
        z0, n = _reduce(z, tau)
    elif j == 4:
        z0, n = _reduce(z + 0.5, tau)
    elif j == 1:
        z0, n = _reduce(z + -(tau + 1.0) / 2.0, tau)
    else:
        z0, n = _reduce(z + -tau / 2.0, tau)
    use_transform = abs(ctx.nome) > _NOME_SWITCH and abs(tau.real) < 1e-12
    if isinstance(z0, np.ndarray):
        series = _series_transform_array if use_transform else _series_direct_array
        moved = n.any()
    else:
        series = _series_transform if use_transform else _series_direct
        moved = n != 0
    raw = series(z0, ctx, order)
    if moved:
        logfac = -2j * math.pi * n * z0 - 1j * math.pi * n * n * tau
        rate = -2j * math.pi * n
    elif j > 2:
        return raw[order]
    else:
        logfac = rate = 0j
    if j > 2:
        fac = _exp(logfac)
    else:
        # theta_1 = i exp(-pi i z + pi i tau/4) theta_3(z - (tau+1)/2) and
        # theta_2 = exp(-pi i z + pi i tau/4) theta_3(z - tau/2)
        quarter = cmath.exp(1j * math.pi * tau / 4.0)
        rate = -1j * math.pi + rate
        fac = (1j * quarter if j == 1 else quarter) * _exp(-1j * math.pi * z + logfac)
    acc = 0j
    for i in range(order + 1):
        acc += _BINOM[order][i] * rate ** (order - i) * raw[i]
    return fac * acc
