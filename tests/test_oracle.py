import json
import logging
import math
import pathlib

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
    # at s=40 the pass differences stall at round-off before two passes
    # agree to 1e-10, well above the conditioning floor
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


@pytest.mark.parametrize("max_nodes", [70, 150])
def test_last_pass_stays_within_node_budget(max_nodes):
    # at s=40 no two passes agree, and two or three passes are too few for
    # the round-off stop, so doubling runs into the budget; the last pass
    # is cut to it
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


def test_round_off_stop_returns_first_pass_on_the_floor():
    # at s=40 neither the 100/200 nor the 200/400 difference is below half
    # of the one before it: the 400-node pass stops the doubling, and the
    # 100-node pass, two before it, is returned
    passes = {m: _nystrom_pass(40.0, TWO_GAPS, m) for m in (50, 100, 200, 400)}
    d1, d2, d3 = (abs(passes[2 * m][0] - passes[m][0]) for m in (50, 100, 200))
    assert d2 >= d1 / 2 and d3 >= d2 / 2
    res = fredholm_logdet(40.0, TWO_GAPS)
    assert res.nodes_per_interval == 100
    assert (res.log_det, res.smallest_one_minus_lambda) == passes[100]
    assert res.error_estimate == max(d2, d3)
    assert res.unreliable


def _plain_doubling(s, intervals, max_nodes=800):
    """The doubling loop without the round-off stop: 50, 100, ... nodes
    per interval until two passes agree to 1e-10 or the floor is hit."""
    m = 50
    value, floor = _nystrom_pass(s, intervals, m)
    err = math.inf
    while m < max_nodes:
        m = min(2 * m, max_nodes)
        new, floor = _nystrom_pass(s, intervals, m)
        err, value = abs(new - value), new
        if err <= 1e-10 or floor < 1e-12:
            break
    return value, m, floor, err, floor < 1e-12 or not err <= 1e-10


# one gap at s = 2..6, two gaps at s = 4..16, and the separated short
# gaps of scripts/run_compare.py (s = 2 t w, w = 20, gaps of length 1/w)
@pytest.mark.parametrize("s, intervals", [
    *((s, [(-1.0, 1.0)]) for s in (2.0, 3.0, 4.0, 5.0, 6.0)),
    *((s, TWO_GAPS) for s in (4.0, 8.0, 12.0, 16.0)),
    *((40.0 * t, [(-1.0, -0.95), (0.95, 1.0)]) for t in (2.0, 2.5, 3.0)),
])
def test_stop_matches_plain_doubling(s, intervals):
    res = fredholm_logdet(s, intervals)
    assert (res.log_det, res.nodes_per_interval, res.smallest_one_minus_lambda,
            res.error_estimate, res.unreliable) == _plain_doubling(s, intervals)


def test_flagged_reference_points_within_error_estimate():
    # the 40-digit Nystrom references of the benchmark's oracle pool: the
    # two-gap points at s = 24..40 and the one-gap points near s = 7 and 8
    # are flagged, and their true error stays below error_estimate
    refs = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "refs"
    items = json.loads((refs / "oracle_sweep.json").read_text())["items"]
    flagged = 0
    for item in filter(lambda item: "ref" in item, items):
        res = fredholm_logdet(item["s"], [tuple(iv) for iv in item["intervals"]])
        want = ((item["kind"] == "two_gap" and item["s"] >= 24.0)
                or (item["kind"] == "one_gap" and item["s"] > 6.5))
        assert res.unreliable == want, item
        if want:
            flagged += 1
            assert abs(res.log_det - item["ref"]) <= res.error_estimate, item
    assert flagged == 15


def test_round_off_stop_is_logged(caplog):
    with caplog.at_level(logging.DEBUG, logger="twingap.oracle"):
        res = fredholm_logdet(40.0, TWO_GAPS)
    records = [r for r in caplog.records if r.name == "twingap.oracle"]
    assert len(records) == 1
    assert records[0].levelno == logging.DEBUG
    msg = records[0].getMessage()
    assert "s=40.0" in msg and "[50, 100, 200, 400]" in msg
    assert "100-node pass" in msg and f"{res.error_estimate:.2e}" in msg


@pytest.mark.parametrize("s, intervals", [(4.0, TWO_GAPS), (6.0, [(-1.0, 1.0)]),
                                          (16.0, [(-1.0, 1.0)])],
                         ids=["two-gap", "one-gap", "floor"])
def test_other_stops_log_nothing(s, intervals, caplog):
    # converged calls, and a stop at the conditioning floor
    with caplog.at_level(logging.DEBUG, logger="twingap.oracle"):
        fredholm_logdet(s, intervals)
    assert [r for r in caplog.records if r.name == "twingap.oracle"] == []
