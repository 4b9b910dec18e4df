import logging
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twingap import (DomainError, GapPair, IllConditionedGeometryError,
                     elliptic_data, tail_integral)
from twingap.elliptic import _leggauss

from reference import complete_elliptic, elliptic_v2_derivatives

# frozen from adaptive Gauss-Kronrod quadrature of the defining integrals
# (scipy.integrate.quad, epsabs=1e-14; reported errors ~2e-13)
K_HALF = 1.6857503548126487
E_HALF = 1.4674622093395018

# frozen from independent adaptive quadrature with algebraic-singularity
# weights (a different substitution than the implementation uses)
GOLDEN_DATA = {
    "I0": 2.3623580793386925, "I1": 1.4267095303033446,
    "I2": 1.0038697339219456, "J0": 3.303489976738395,
    "J1": -0.36156901407960884, "J2": 0.3096095245854994,
}
# same route for the complementary integral K'(v) = int_1^{1/v} ...
KPRIME = {0.3: 2.6277733320843453, 0.7: 1.8626408023327383}

gaps = st.tuples(st.floats(-0.95, 0.8), st.floats(-0.8, 0.95)).filter(
    lambda t: t[0] + 0.05 < t[1]).map(lambda t: GapPair(*t))


def test_complete_elliptic_at_zero():
    K, E = complete_elliptic(0.0)
    assert K == pytest.approx(math.pi / 2, abs=1e-15)
    assert E == pytest.approx(math.pi / 2, abs=1e-15)


def test_complete_elliptic_small_modulus_expansion():
    for vp in (0.05, 0.1, 0.2):
        K, _ = complete_elliptic(vp)
        series = (math.pi / 2) * (1 + vp ** 2 / 4 + 9 * vp ** 4 / 64)
        assert abs(K - series) < 2.0 * vp ** 6


def test_complete_elliptic_golden():
    K, E = complete_elliptic(0.5)
    assert K == pytest.approx(K_HALF, abs=1e-13)
    assert E == pytest.approx(E_HALF, abs=1e-13)


def test_complete_elliptic_domain():
    with pytest.raises(DomainError):
        complete_elliptic(1.0)
    with pytest.raises(DomainError):
        complete_elliptic(-0.1)


def test_complementary_identity():
    # K'(v) = K(sqrt(1-v^2)), both sides from independent computations
    for v, kp in KPRIME.items():
        K, _ = complete_elliptic(math.sqrt(1.0 - v * v))
        assert K == pytest.approx(kp, abs=1e-12)


def test_elliptic_data_golden():
    e = elliptic_data(GapPair(-0.5, 0.3))
    for name, val in GOLDEN_DATA.items():
        assert getattr(e, name) == pytest.approx(val, abs=1e-10), name


@pytest.mark.parametrize("v", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_symmetric_reduction(v):
    e = elliptic_data(GapPair(-v, v))
    vp = math.sqrt(1.0 - v * v)
    Kp, Ep = complete_elliptic(vp)
    Kv, _ = complete_elliptic(v)
    assert abs(e.I0 - Kp) < 1e-11
    assert abs(e.J0 - 2.0 * Kv) < 1e-11
    assert abs(e.I2 / e.I0 - Ep / Kp) < 1e-11


@settings(max_examples=25, deadline=None)
@given(gaps)
def test_even_moments_positive_and_cauchy_schwarz(gap):
    e = elliptic_data(gap)
    assert e.I0 > 0 and e.I2 > 0 and e.J0 > 0 and e.J2 > 0
    # Cauchy-Schwarz for the positive measure dx/sqrt|p|
    assert e.I0 * e.I2 >= e.I1 ** 2 * (1 - 1e-12)
    assert e.J0 * e.J2 >= e.J1 ** 2 * (1 - 1e-12)


def test_odd_moment_may_be_negative():
    # x-weighted band integral changes sign when the band straddles 0,
    # so only the even moments carry a positivity invariant
    assert elliptic_data(GapPair(-0.5, 0.3)).J1 < 0


def _fd(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.mark.parametrize("gap", [GapPair(-0.5, 0.3), GapPair(-0.8, -0.1),
                                 GapPair(-0.6, 0.6)])
def test_v2_derivatives_match_finite_differences(gap):
    dI0, dI1, dI2, dJ0 = elliptic_v2_derivatives(gap)
    for idx, closed in ((0, dI0), (1, dI1), (2, dI2)):
        fd = _fd(lambda x: getattr(elliptic_data(GapPair(gap.v1, x)), f"I{idx}"),
                 gap.v2)
        assert abs(fd - closed) < 1e-6
    fd = _fd(lambda x: elliptic_data(GapPair(gap.v1, x)).J0, gap.v2)
    assert abs(fd - dJ0) < 1e-6


@pytest.mark.parametrize("gap", [GapPair(-0.5, 0.3), GapPair(-0.2, 0.6)])
def test_derivative_recursion_exact(gap):
    # dI1 - v2 dI0 = I0/2 holds exactly by construction
    e = elliptic_data(gap)
    dI0, dI1, _, _ = elliptic_v2_derivatives(gap)
    assert dI1 - gap.v2 * dI0 == pytest.approx(e.I0 / 2, rel=1e-14)


def test_ill_conditioned_geometry_rejected():
    with pytest.raises(IllConditionedGeometryError):
        elliptic_data(GapPair(0.2, 0.2 + 1e-13))


def test_gap_pair_validation():
    for bad in ((0.3, -0.5), (-1.0, 0.5), (-0.5, 1.0), (0.2, 0.2)):
        with pytest.raises(DomainError):
            GapPair(*bad)
    with pytest.raises(DomainError):
        GapPair(float("nan"), 0.5)


def _mp_gauss_node(t, n):
    """Newton-polished Gauss-Legendre node and weight near the double
    node t, at the working precision of mpmath."""
    t = mpmath.mpf(t)
    for _ in range(3):
        p0, p1 = mpmath.mpf(1), t
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * t * p1 - k * p0) / (k + 1)
        dp = n * (t * p1 - p0) / (t * t - 1)
        t -= p1 / dp
    return t, 2 / ((1 - t * t) * dp * dp)


@pytest.mark.parametrize("n", [200, 800])
def test_gauss_weights_are_accurate_relative_to_themselves(n):
    # the 8 nodes nearest +1, where sin^2-mapped narrow-band and edge
    # integrands peak, and 2 interior nodes; numpy's own weights there
    # are off by 2e-11 (n = 200) and 1.4e-9 (n = 800)
    x, w = _leggauss(n)
    with mpmath.workdps(30):
        for i in list(range(n - 8, n)) + [n // 4, n // 2]:
            t, wt = _mp_gauss_node(x[i], n)
            assert abs(x[i] - t) < 1e-16, i
            assert abs(w[i] / wt - 1) < 5e-12, i


@pytest.mark.parametrize("n", [1600, 6400])
def test_large_gauss_rule_integrates_even_powers(n):
    x, w = _leggauss(n)
    assert len(x) == n and np.array_equal(x, -x[::-1])
    assert np.all(np.diff(x) > 0)
    assert abs(w.sum() - 2.0) < 1e-15
    for k in range(11):
        assert abs(np.sum(w * x ** (2 * k)) - 2.0 / (2 * k + 1)) < 1e-12, k


EDGE_TAIL_GAP = GapPair(-0.99999, 0.1)


def _carlson_tail(gap):
    # int_{-inf}^{-1} dx / sqrt(p) = 2 R_F((1+v1)(1+v2), 2(1+v2), 2(1+v1))
    # (Carlson, Math. Comp. 49 (1987)), double elliprf good to the last bit
    from scipy.special import elliprf
    a, b = 1.0 + gap.v1, 1.0 + gap.v2
    return 2.0 * float(elliprf(a * b, 2.0 * b, 2.0 * a))


@pytest.mark.parametrize("gap, tol", [(EDGE_TAIL_GAP, 1e-11),
                                      (GapPair(-0.5, 0.3), 1e-13),
                                      (GapPair(-0.8, 0.6), 1e-13)])
def test_tail_integral_against_carlson(gap, tol):
    assert abs(tail_integral(gap) - _carlson_tail(gap)) < tol


def test_unconverged_quadrature_is_logged(caplog):
    # within 1e-8 of -1 the node doubling still runs to the 6400-node budget
    with caplog.at_level(logging.DEBUG, logger="twingap.elliptic"):
        tail_integral(GapPair(-1.0 + 1e-8, 0.1))
    records = [r for r in caplog.records if r.name == "twingap.elliptic"]
    assert len(records) == 1
    assert records[0].levelno == logging.DEBUG
    msg = records[0].getMessage()
    assert "6400 nodes" in msg and "|delta|" in msg and "tol = 1e-13" in msg


# a regular pair, a band of half-width 1e-4, and gaps within 1e-4 of +1
# and of -1: every moment and the tail converge by 400 nodes
@pytest.mark.parametrize("gap", [GapPair(-0.5, 0.3),
                                 GapPair(-0.2 - 1e-4, -0.2 + 1e-4),
                                 GapPair(-0.4, 1.0 - 1e-4),
                                 GapPair(-1.0 + 1e-4, 0.3)],
                         ids=["regular", "narrow", "right-edge", "left-edge"])
def test_converged_quadrature_logs_nothing(gap, caplog):
    with caplog.at_level(logging.DEBUG, logger="twingap.elliptic"):
        tail_integral(gap)
        elliptic_data(gap)
    assert [r for r in caplog.records if r.name == "twingap.elliptic"] == []


def test_tail_integral_refuses_where_moments_refuse():
    # 1 + v1 = 1e-13: the quadrature would answer 2.9e-4 off the Carlson
    # value; both entry points share the MIN_ENDPOINT_GAP check
    gap = GapPair(-1.0 + 1e-13, 0.1)
    with pytest.raises(IllConditionedGeometryError):
        elliptic_data(gap)
    with pytest.raises(IllConditionedGeometryError):
        tail_integral(gap)
