"""Independent numerical evaluation of log det(I - K_s).

Two routes, sharing no code with the asymptotic expansions:

* Nystrom: per-interval Gauss-Legendre nodes x_i with weights w_i turn
  the integral operator into the symmetric matrix
  M_ij = sqrt(w_i) K_s(x_i, x_j) sqrt(w_j); then
  log det(I - K_s) ~ sum log(1 - lambda_i) over the eigenvalues of M.
  The kernel diagonal is K_s(x, x) = s/pi (the removable singularity of
  sin(s(x-y))/(pi(x-y))).

* Toeplitz: the determinant is the n -> infinity limit of the n x n
  Toeplitz determinant whose symbol is the indicator of two circular
  arcs with endpoints at angles 2 v s / n; the Fourier coefficients of
  the indicator are known in closed form.

Because 0 <= K_s <= I, every Nystrom eigenvalue sits in [0, 1); as the
largest one approaches 1 the log-determinant loses digits, so results
are flagged unreliable once 1 - lambda_max < 1e-12 (log det below about
-30 is out of reach in double precision), and also when node doubling
ends before two successive values agree.  Once round-off pushes an
eigenvalue to 1 or beyond, log(1 - lambda) does not exist and the
Nystrom route refuses with DomainError rather than return NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = ["OracleResult", "fredholm_logdet", "toeplitz_logdet",
           "separation_factorization_gap", "separation_geometry",
           "nystrom_eigenvalues"]

CONDITIONING_FLOOR = 1e-12
# Nystrom node doubling starts here (nodes per interval) and stops once two
# successive log-determinants agree to _TOL
_START_NODES = 50
_TOL = 1e-10


@dataclass(frozen=True)
class OracleResult:
    """A numerically computed log-determinant with its diagnostics.

    error_estimate is the difference between the last two discretization
    levels.  smallest_one_minus_lambda is min(1 - lambda_i) for the
    Nystrom route; the Toeplitz route stores its relative smallest LU
    pivot there (same role: distance from numerical singularity).
    """

    log_det: float
    nodes_per_interval: int
    smallest_one_minus_lambda: float
    error_estimate: float
    unreliable: bool = False

    def __post_init__(self):
        if not math.isfinite(self.log_det):
            raise DomainError(f"log-determinant is not finite: {self.log_det}")
        if self.log_det > 1e-9:
            raise DomainError(
                f"log of a probability cannot be positive: {self.log_det}")


def _gauss_nodes(intervals: Sequence[tuple[float, float]], m: int):
    t, w = np.polynomial.legendre.leggauss(m)
    xs, ws = [], []
    for a, b in intervals:
        xs.append((t + 1.0) * (b - a) / 2.0 + a)
        ws.append(w * (b - a) / 2.0)
    return np.concatenate(xs), np.concatenate(ws)


def _check_intervals(intervals: Sequence[tuple[float, float]]):
    for a, b in intervals:
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise DomainError(f"bad interval ({a}, {b})")
    ordered = sorted(intervals)
    for (a1, b1), (a2, b2) in zip(ordered, ordered[1:]):
        if b1 > a2:
            raise DomainError(
                f"intervals overlap: ({a1}, {b1}) and ({a2}, {b2})")


def nystrom_eigenvalues(s: float, intervals: Sequence[tuple[float, float]],
                        m: int) -> np.ndarray:
    """Eigenvalues of the discretized kernel at m nodes per interval.

    All of them lie in [0, 1) up to round-off (the kernel is a
    trace-class operator squeezed between 0 and the identity).
    """
    x, w = _gauss_nodes(intervals, m)
    # sin(s(x-y))/(pi(x-y)) = (s/pi) sinc(s(x-y)/pi); sinc(0)=1 covers
    # the diagonal analytically.
    kernel = (s / math.pi) * np.sinc(s * (x[:, None] - x[None, :]) / math.pi)
    sw = np.sqrt(w)
    return np.linalg.eigvalsh(sw[:, None] * kernel * sw[None, :])


def _nystrom_pass(s: float, intervals, m: int) -> tuple[float, float]:
    lam = nystrom_eigenvalues(s, intervals, m)
    floor = float(1.0 - lam.max())
    if floor <= 0.0:  # lambda_max >= 1: log(1 - lambda) is -inf or NaN
        raise DomainError(
            f"at s={s} a Nystrom eigenvalue reached 1 in double precision "
            f"(1 - lambda_max = {floor:.3g} at {m} nodes per interval); "
            f"log det(I - K_s) is below what double precision resolves")
    return float(np.sum(np.log1p(-lam))), floor


def fredholm_logdet(s: float, intervals: Sequence[tuple[float, float]],
                    max_nodes: int = 800) -> OracleResult:
    """Nystrom log det(I - K_s) on a union of disjoint intervals.

    Node counts double from 50 per interval until two successive values
    agree to 1e-10, the conditioning floor is hit, or max_nodes is
    reached.  The result is flagged unreliable at the floor and when the
    last two values did not agree to 1e-10, including when max_nodes
    allows only one pass.  A max_nodes below the 50-node first pass is a
    DomainError.  An empty interval list gives log det(I) = 0.
    """
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"s must be positive, got {s}")
    if max_nodes < _START_NODES:
        raise DomainError(
            f"max_nodes must be at least {_START_NODES}, got {max_nodes}")
    intervals = list(intervals)
    if not intervals:
        return OracleResult(log_det=0.0, nodes_per_interval=0,
                            smallest_one_minus_lambda=1.0, error_estimate=0.0)
    _check_intervals(intervals)
    m = _START_NODES
    value, floor = _nystrom_pass(s, intervals, m)
    err = math.inf
    while m < max_nodes:
        m *= 2
        new, floor = _nystrom_pass(s, intervals, m)
        err = abs(new - value)
        value = new
        if err <= _TOL or floor < CONDITIONING_FLOOR:
            break
    return OracleResult(
        log_det=value,
        nodes_per_interval=m,
        smallest_one_minus_lambda=floor,
        error_estimate=err if math.isfinite(err) else abs(value),
        unreliable=floor < CONDITIONING_FLOOR or not err <= _TOL,
    )


def _arc_fourier(arcs: Sequence[tuple[float, float]], n: int) -> np.ndarray:
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

    The symbol is the indicator of the two arcs (2 v1 s/n, 2 v2 s/n) and
    (2 s/n, 2 pi - 2 s/n); a degenerate band v1 = v2 leaves a single
    arc (the one-interval determinant).  Requires n >= 8 s so the arc
    endpoints stay well inside the circle parametrization.  Determinant
    via LU with partial pivoting; the relative smallest pivot is
    reported as the conditioning metric.
    """
    # only this function uses scipy, whose import takes longer than the
    # rest of `import twingap`
    import scipy.linalg

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
        mat = scipy.linalg.toeplitz(col, row)
        lu, _ = scipy.linalg.lu_factor(mat)
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


def separation_factorization_gap(u: float, w: float,
                                 max_nodes: int = 400) -> float:
    """|det(I-K_u) on both intervals - product of single-interval dets|.

    Measures how fast the determinant on (-w, -w+1) u (w-1, w)
    factorizes as the separation w grows (the gap decays like 1/w for
    fixed u).
    """
    if not (u > 2.0 and w > 2.0):
        raise DomainError(f"need u, w > 2, got u={u}, w={w}")
    pair = separation_geometry(w)
    both = fredholm_logdet(u, pair, max_nodes=max_nodes)
    left = fredholm_logdet(u, pair[:1], max_nodes=max_nodes)
    right = fredholm_logdet(u, pair[1:], max_nodes=max_nodes)
    return abs(math.exp(both.log_det)
               - math.exp(left.log_det) * math.exp(right.log_det))
