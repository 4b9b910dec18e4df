"""Independent numerical evaluation of log det(I - K_s).

One route, sharing no code with the asymptotic expansions: the Nystrom
method.  Per-interval Gauss-Legendre nodes x_i with weights w_i turn the
integral operator into the symmetric matrix
M_ij = sqrt(w_i) K_s(x_i, x_j) sqrt(w_j); then
log det(I - K_s) ~ sum log(1 - lambda_i) over the eigenvalues of M.
The kernel diagonal is K_s(x, x) = s/pi (the removable singularity of
sin(s(x-y))/(pi(x-y))).  For an analytic kernel the error falls
exponentially in the node count (Bornemann, Math. Comp. 79 (2010)).

Node counts double from 50 per interval, and the doubling stops for one
of three reasons:

* two successive values agree to 1e-10 (converged, not flagged);
* the conditioning floor: 1 - lambda_max < 1e-12, where the
  log-determinant loses digits (log det below about -30 is out of reach
  in double precision); that pass is returned, flagged unreliable;
* the round-off stop: the discretization error falls exponentially, so
  once two pass differences in a row fail to halve, they measure
  round-off, which grows with the node count.  The pass two before the
  last, the smallest node count already on the round-off floor, is
  returned, flagged unreliable.

A value is also flagged when max_nodes ends the doubling first.  Because
0 <= K_s <= I, every Nystrom eigenvalue sits in [0, 1); once round-off
pushes one to 1 or beyond, log(1 - lambda) does not exist and the
Nystrom route refuses with DomainError rather than return NaN.
"""

from __future__ import annotations

import logging
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
# ... or once _STALL_PASSES differences in a row each fail to fall below
# _STALL_RATIO times the one before (the round-off stop)
_STALL_RATIO = 0.5
_STALL_PASSES = 2

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class OracleResult:
    """A numerically computed log-determinant with its diagnostics.

    error_estimate is the difference between the last two discretization
    levels, or after the round-off stop the larger of the last two
    differences; nodes_per_interval is the node count of the returned
    level and smallest_one_minus_lambda is min(1 - lambda_i) there (the
    distance from numerical singularity).
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


def _stalled(diffs: list[float]) -> bool:
    """True once none of the last _STALL_PASSES pass differences fell
    below _STALL_RATIO times the difference before it."""
    if len(diffs) <= _STALL_PASSES:
        return False
    recent = diffs[-_STALL_PASSES - 1:]
    return all(not d < _STALL_RATIO * before
               for before, d in zip(recent, recent[1:]))


def fredholm_logdet(s: float, intervals: Sequence[tuple[float, float]],
                    max_nodes: int = 800) -> OracleResult:
    """Nystrom log det(I - K_s) on a union of disjoint intervals.

    Node counts double from 50 per interval, the last pass cut to
    max_nodes when doubling would pass it.  Doubling stops when two
    successive values agree to 1e-10, when 1 - lambda_max falls below the
    1e-12 conditioning floor, when max_nodes is reached, or, from the
    fourth pass on, when neither of the last two pass differences fell
    below half of the difference before it (round-off).  The last pass is
    returned, except after the round-off stop, which returns the pass two
    before the last with the larger of the last two differences as its
    error_estimate and writes one DEBUG record on the ``twingap.oracle``
    logger.  Every stop but agreement to 1e-10 flags the result
    unreliable, including when max_nodes allows only one pass.  A
    max_nodes below the 50-node first pass is a DomainError.  An empty
    interval list gives log det(I) = 0.
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
    passes, diffs = [(m, value, floor)], []
    while m < max_nodes:
        m = min(2 * m, max_nodes)
        new, floor = _nystrom_pass(s, intervals, m)
        diffs.append(abs(new - value))
        value = new
        passes.append((m, value, floor))
        if diffs[-1] <= _TOL or floor < CONDITIONING_FLOOR:
            break
        if _stalled(diffs):
            m, value, floor = passes[-1 - _STALL_PASSES]
            err = max(diffs[-_STALL_PASSES:])
            _log.debug("round-off stop at s=%r: passes at %s nodes per interval, "
                       "last differences %s; returning the %d-node pass",
                       s, [p[0] for p in passes[-_STALL_PASSES - 2:]],
                       ", ".join(f"{d:.2e}" for d in diffs[-_STALL_PASSES:]), m)
            return OracleResult(log_det=value, nodes_per_interval=m,
                                smallest_one_minus_lambda=floor,
                                error_estimate=err, unreliable=True)
    err = diffs[-1] if diffs else math.inf
    return OracleResult(
        log_det=value,
        nodes_per_interval=m,
        smallest_one_minus_lambda=floor,
        error_estimate=err if math.isfinite(err) else abs(value),
        unreliable=floor < CONDITIONING_FLOOR or not err <= _TOL,
    )
