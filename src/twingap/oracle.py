"""Independent numerical evaluation of log det(I - K_s).

One route, sharing no code with the asymptotic expansions: the Nystrom
method.  Per-interval Gauss-Legendre nodes x_i with weights w_i turn the
integral operator into the symmetric matrix
M_ij = sqrt(w_i) K_s(x_i, x_j) sqrt(w_j); then
log det(I - K_s) ~ sum log(1 - lambda_i) over the eigenvalues of M.
The kernel diagonal is K_s(x, x) = s/pi (the removable singularity of
sin(s(x-y))/(pi(x-y))).  For an analytic kernel the error falls
exponentially in the node count (Bornemann, Math. Comp. 79 (2010)).

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

__all__ = ["OracleResult", "fredholm_logdet", "nystrom_eigenvalues"]

CONDITIONING_FLOOR = 1e-12
# Nystrom node doubling starts here (nodes per interval) and stops once two
# successive log-determinants agree to _TOL
_START_NODES = 50
_TOL = 1e-10


@dataclass(frozen=True)
class OracleResult:
    """A numerically computed log-determinant with its diagnostics.

    error_estimate is the difference between the last two discretization
    levels; smallest_one_minus_lambda is min(1 - lambda_i) at the last
    one (the distance from numerical singularity).
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
    reached; the last pass is cut to max_nodes when doubling would pass
    it.  The result is flagged unreliable at the floor and when the
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
        m = min(2 * m, max_nodes)
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

