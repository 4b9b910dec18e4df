import math

import pytest

from twingap import DomainError, OracleResult, expansion_one_gap, fredholm_logdet
from twingap.oracle import _nystrom_pass, nystrom_eigenvalues

from reference import (separation_factorization_gap, separation_geometry,
                       toeplitz_logdet)

TWO_GAPS = [(-1.0, -0.5), (0.3, 1.0)]


def test_empty_interval_list():
    assert fredholm_logdet(1.0, []).log_det == 0.0


def test_small_s_trace_expansion():
    # tr K_s = s |A| / pi dominates: log det = -2s/pi + O(s^2)
    s = 1e-3
    res = fredholm_logdet(s, [(-1.0, 1.0)])
    assert abs(res.log_det + 2.0 * s / math.pi) < 5e-6


def test_one_gap_against_expansion():
    res = fredholm_logdet(6.0, [(-1.0, 1.0)])
    assert abs(res.log_det - expansion_one_gap(6.0).total) < 0.05
    assert not res.unreliable
    assert res.error_estimate < 1e-9


def test_unconverged_value_is_flagged():
    # at s=40 the doubling reaches max_nodes (800) before two passes agree
    # to 1e-10, well above the conditioning floor
    res = fredholm_logdet(40.0, TWO_GAPS)
    assert res.smallest_one_minus_lambda > 1e-12
    assert res.error_estimate > 1e-10
    assert res.unreliable


@pytest.mark.parametrize("max_nodes", [0, -3, 49])
def test_node_budget_below_first_pass_rejected(max_nodes):
    with pytest.raises(DomainError, match="max_nodes"):
        fredholm_logdet(4.0, TWO_GAPS, max_nodes=max_nodes)


def test_overlapping_intervals_rejected():
    with pytest.raises(DomainError):
        fredholm_logdet(2.0, [(-1.0, 0.2), (0.1, 1.0)])
    with pytest.raises(DomainError):
        fredholm_logdet(-1.0, [(-1.0, 1.0)])


def test_monotone_in_s():
    vals = [fredholm_logdet(s, TWO_GAPS).log_det for s in (1.0, 2.0, 4.0, 6.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("shift", [0.3, -1.7])
def test_translation_invariance(shift):
    base = fredholm_logdet(3.0, TWO_GAPS).log_det
    moved = fredholm_logdet(
        3.0, [(a + shift, b + shift) for a, b in TWO_GAPS]).log_det
    assert abs(base - moved) < 1e-10


def test_reflection_invariance():
    base = fredholm_logdet(3.0, [(-1.0, -0.5), (0.3, 1.0)]).log_det
    mirrored = fredholm_logdet(3.0, [(-1.0, -0.3), (0.5, 1.0)]).log_det
    assert abs(base - mirrored) < 1e-10


def test_eigenvalues_within_unit_interval():
    lam = nystrom_eigenvalues(4.0, TWO_GAPS, 200)
    assert lam.min() > -1e-12
    assert lam.max() < 1.0


def test_unreliable_flag_below_precision_floor():
    # s large enough that 1 - lambda_max underflows double precision
    res = fredholm_logdet(16.0, [(-1.0, 1.0)], max_nodes=400)
    assert res.unreliable
    assert res.smallest_one_minus_lambda < 1e-12


def test_refuses_eigenvalue_at_one():
    # at s=64 round-off lifts an eigenvalue to 1 at 100 nodes per interval,
    # where log(1 - lambda) is NaN
    with pytest.raises(DomainError, match="s=64"):
        fredholm_logdet(64.0, TWO_GAPS)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_result_rejects_non_finite_log_det(bad):
    with pytest.raises(DomainError):
        OracleResult(log_det=bad, nodes_per_interval=50,
                     smallest_one_minus_lambda=0.5, error_estimate=0.0)


def test_toeplitz_cross_oracle():
    s = 2.0
    fred = fredholm_logdet(s, TWO_GAPS).log_det
    t400 = toeplitz_logdet(s, -0.5, 0.3, 400)
    t800 = toeplitz_logdet(s, -0.5, 0.3, 800)
    assert abs(t400.log_det - t800.log_det) < 1e-3
    assert abs(t400.log_det - fred) < 2e-3
    assert abs(t800.log_det - fred) < 2e-3
    # refinement brings the Toeplitz value closer to the Fredholm one
    assert abs(t800.log_det - fred) < abs(t400.log_det - fred)
    assert not t800.unreliable


def test_toeplitz_degenerate_band_is_one_interval():
    s = 2.0
    one = fredholm_logdet(s, [(-1.0, 1.0)]).log_det
    deg = toeplitz_logdet(s, 0.1, 0.1, 600)
    assert abs(deg.log_det - one) < 1e-3


def test_toeplitz_preconditions():
    with pytest.raises(DomainError):
        toeplitz_logdet(100.0, -0.5, 0.3, 400)  # n < 8 s
    with pytest.raises(DomainError):
        toeplitz_logdet(2.0, 0.4, 0.3, 400)


def test_separation_gap_shrinks_with_w():
    gaps = [separation_factorization_gap(3.0, w) for w in (5.0, 10.0, 20.0, 40.0)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # at least the 1/w envelope rate per doubling (measured ~3.4x, the
    # envelope is only an upper bound)
    assert gaps[1] / gaps[2] > 1.5


def test_separation_translation_invariance():
    pair = separation_geometry(10.0)
    base = fredholm_logdet(3.0, pair).log_det
    moved = fredholm_logdet(3.0, [(a + 2.5, b + 2.5) for a, b in pair]).log_det
    assert abs(base - moved) < 1e-10


def test_separation_geometry_validation():
    with pytest.raises(DomainError):
        separation_geometry(1.5)
    with pytest.raises(DomainError):
        separation_factorization_gap(1.0, 10.0)


@pytest.mark.parametrize("max_nodes", [70, 150, 800])
def test_last_pass_stays_within_node_budget(max_nodes):
    # at s=40 no two passes agree, so doubling runs into the budget; the
    # last pass is cut to it (800, the default, is reached by doubling)
    res = fredholm_logdet(40.0, TWO_GAPS, max_nodes=max_nodes)
    prev = 50
    while 2 * prev < max_nodes:
        prev *= 2
    last, floor = _nystrom_pass(40.0, TWO_GAPS, max_nodes)
    before, _ = _nystrom_pass(40.0, TWO_GAPS, prev)
    assert res.nodes_per_interval == max_nodes
    assert (res.log_det, res.smallest_one_minus_lambda) == (last, floor)
    assert res.error_estimate == abs(last - before)
    assert res.unreliable
