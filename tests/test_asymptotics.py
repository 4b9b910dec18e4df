import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from twingap import (AmbiguousRegimeError, DomainError, GapPair, Regime,
                     TwinGapError, WIDOM_DYSON_C0, barnes_g_int, derive_geometry, expand,
                     expansion_merging, expansion_merging_limit,
                     expansion_one_gap, expansion_two_gap, legendre_kappa,
                     nearest_frac, select_regime, theta_eval)
from twingap.asymptotics import _merging_scales
from twingap.identities import _g_primitive

from reference import complete_elliptic

GRID = [GapPair(-0.8, -0.1), GapPair(-0.5, 0.3), GapPair(-0.2, 0.6),
        GapPair(-0.6, 0.6)]


def test_constant_against_independent_derivation():
    # zeta'(-1) = 1/12 - log(Glaisher), summed by mpmath at high precision
    mpmath.mp.dps = 30
    c0 = float(mpmath.log(2) / 12 + 3 * mpmath.zeta(-1, derivative=1))
    assert abs(WIDOM_DYSON_C0 - c0) < 1e-15


def test_one_gap_values():
    b = expansion_one_gap(1.0)
    assert b.log_s_term == 0.0
    assert b.total == pytest.approx(WIDOM_DYSON_C0 - 0.5, abs=1e-15)
    assert b.total == pytest.approx(-0.93850116605469, abs=1e-11)
    with pytest.raises(DomainError):
        expansion_one_gap(0.0)


@pytest.mark.parametrize("gap", GRID)
@pytest.mark.parametrize("s", [3.0, 7.5])
def test_two_gap_forms_agree(gap, s):
    # the bare-theta3 form: the primitive G of the differential identity
    # with the s-only terms and the constant added back
    a = expansion_two_gap(s, gap)
    b = (_g_primitive(s, gap.v1, gap.v2) - s * s / 2 - 0.5 * math.log(s)
         + 0.5 * math.log(math.pi) + 2 * WIDOM_DYSON_C0)
    assert abs(a.total - b) < 1e-10
    assert a.total == a.leading_s2 + a.log_s_term + a.theta_term + a.constant_term


@pytest.mark.parametrize("gap", GRID)
def test_reflection_invariance(gap):
    a = expansion_two_gap(5.0, gap)
    b = expansion_two_gap(5.0, gap.reflected())
    assert abs(a.total - b.total) < 1e-10


def test_theta_term_periodicity_in_s():
    gap = GapPair(-0.5, 0.3)
    geom = derive_geometry(gap)
    period = 1.0 / geom.Omega
    for s in (4.0, 6.3):
        a = expansion_two_gap(s, gap)
        b = expansion_two_gap(s + period, gap)
        assert abs(a.theta_term - b.theta_term) < 1e-10


@pytest.mark.parametrize("v", [0.3, 0.6])
def test_symmetric_closed_form(v):
    # for gaps (-1,-v) u (v,1) the expansion collapses to complete
    # elliptic integrals:
    #   -s^2((1+v^2)/2 - E'/K') - (1/2)log(s/pi)
    #   + log theta3(s/K'; 2iK/K')
    #   - (1/4)log[(K'-E')(E'-v^2 K')] + 2 c0
    s = 5.0
    gap = GapPair(-v, v)
    vp = math.sqrt(1 - v * v)
    Kp, Ep = complete_elliptic(vp)
    Kv, _ = complete_elliptic(v)
    geom = derive_geometry(gap)
    th = theta_eval(3, s / Kp, geom.theta_context()).real
    closed = (-s * s * ((1 + v * v) / 2 - Ep / Kp) - 0.5 * math.log(s / math.pi)
              + math.log(th)
              - 0.25 * math.log((Kp - Ep) * (Ep - v * v * Kp))
              + 2 * WIDOM_DYSON_C0)
    assert abs(expansion_two_gap(s, gap).total - closed) < 1e-9


def test_legendre_kappa_values():
    assert legendre_kappa(0) == pytest.approx(0.5, abs=1e-15)
    assert legendre_kappa(-1) == 0.0
    assert legendre_kappa(1) == pytest.approx(math.sqrt(3) / 4, abs=1e-14)
    with pytest.raises(DomainError):
        legendre_kappa(-2)


def test_barnes_g_small_values():
    assert barnes_g_int(1) == 0.0
    assert barnes_g_int(2) == 0.0
    assert barnes_g_int(4) == pytest.approx(math.log(2.0), abs=1e-14)
    assert barnes_g_int(5) == pytest.approx(math.log(12.0), abs=1e-14)
    # product-of-factorials oracle for a larger argument
    prod = 1.0
    for i in range(1, 8):
        prod *= math.factorial(i)
    assert barnes_g_int(9) == pytest.approx(math.log(prod), rel=1e-14)
    with pytest.raises(DomainError):
        barnes_g_int(0)


def test_nearest_frac_examples():
    assert nearest_frac(1.3) == pytest.approx(0.3, abs=1e-15)
    assert nearest_frac(2.5) == 0.5
    assert nearest_frac(-0.5) == 0.5
    assert nearest_frac(-0.8) == pytest.approx(0.2, abs=1e-15)


@settings(max_examples=200)
@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_nearest_frac_properties(x):
    fr = nearest_frac(x)
    assert -0.5 < fr <= 0.5
    assert abs((x - fr) - round(x - fr)) < 1e-9 * max(1.0, abs(x))


def test_merging_reduces_to_one_gap_when_band_vanishes_fast():
    # nu so small that the rescaled frequency stays below 1/2: every
    # band-dependent term vanishes identically
    gap = GapPair(-1e-20, 1e-20)
    assert expansion_merging(1.0, gap).total == pytest.approx(
        expansion_one_gap(1.0).total, abs=1e-12)


def test_merging_vs_limit_at_moderate_point():
    # frozen by direct evaluation of both formulas: the difference at
    # s=20, nu=1e-6 is 0.0549 (the o(1) matching error at desk scale)
    gap = GapPair(-1e-6, 1e-6)
    d = abs(expansion_merging(20.0, gap).total
            - expansion_merging_limit(20.0, gap).total)
    assert d == pytest.approx(0.054944, abs=1e-4)


def test_merging_limit_symmetric_constant():
    # centered band: |alpha beta| = 1 so the -(1/8) log term drops out
    b = expansion_merging_limit(30.0, GapPair(-1e-4, 1e-4))
    assert b.constant_term == pytest.approx(2 * WIDOM_DYSON_C0, abs=1e-14)


def test_merging_limit_regime_warning():
    bad = expansion_merging_limit(1e6, GapPair(-1e-8, 1e-8))
    assert any("s^(-5/4)" in w for w in bad.warnings)


def test_overlap_with_fixed_two_gap_is_decreasing():
    # along nu = s^(-6/5) both the full expansion and its merging limit
    # apply; their difference shrinks with s
    diffs = []
    for s in (30.0, 60.0, 120.0):
        nu = s ** -1.2
        gap = GapPair(-0.2 - nu, -0.2 + nu)
        diffs.append(abs(expansion_two_gap(s, gap).total
                         - expansion_merging_limit(s, gap).total))
    assert diffs[0] > diffs[1] > diffs[2]


def test_select_regime_examples():
    assert select_regime(100.0, GapPair(-0.5, 0.3))[0] is Regime.FIXED_TWO_GAP
    assert select_regime(100.0, GapPair(-1e-8, 1e-8))[0] is Regime.MERGING
    assert select_regime(100.0, GapPair(-0.5, 1 - 1e-4))[0] is Regime.SEPARATING


def test_select_regime_ambiguity():
    # small s, a moderately narrow band pushed against the edge: the
    # merging product and the separating edge scale are both below
    # threshold, which is contradictory
    with pytest.raises(AmbiguousRegimeError):
        select_regime(0.5, GapPair(0.75, 0.88))


def test_expand_dispatch():
    gap = GapPair(-0.5, 0.3)
    assert expand(100.0, gap) == expansion_two_gap(100.0, gap)
    # at s=4 the edge scale (1+v1)s = 2 is small: the same closed form,
    # tagged Separating with the error order of the extension theorem
    sep = expand(4.0, gap)
    fixed = expansion_two_gap(4.0, gap)
    assert sep.regime is Regime.SEPARATING
    assert sep.total == fixed.total
    assert sep.error_order != fixed.error_order
    assert expand(4.0, gap, "FixedTwoGap") == fixed
    narrow = GapPair(-1e-8, 1e-8)
    assert expand(100.0, narrow) == expansion_merging(100.0, narrow)
    assert (expand(100.0, narrow, Regime.MERGING_LIMIT)
            == expansion_merging_limit(100.0, narrow))
    assert expand(2.0, gap, "OneGap") == expansion_one_gap(2.0)
    with pytest.raises(DomainError):
        expand(4.0, gap, "Separated")


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


# the edges of the domain: narrow bands down to nu = 1e-7, gaps within
# 1e-11 of -1 or 1, and anything in between
_narrow = st.builds(lambda c, nu: (c - nu, c + nu),
                    st.floats(-0.9, 0.9), _log_uniform(-7, -2))
_left_edge = st.builds(lambda eps, v2: (-1.0 + eps, v2),
                       _log_uniform(-11, -2), st.floats(-0.9, 0.9))
_right_edge = st.builds(lambda v1, eps: (v1, 1.0 - eps),
                        st.floats(-0.9, 0.9), _log_uniform(-11, -2))
_regular = st.tuples(st.floats(-0.95, 0.9), st.floats(-0.9, 0.95)).filter(
    lambda t: t[0] < t[1])
# bands centred at 0 with nu from the smallest subnormal up to 1e-7
_tiny = _log_uniform(-323.3, -7).map(lambda nu: (-nu, nu))


@settings(max_examples=40, deadline=None)
@given(st.one_of(_narrow, _left_edge, _right_edge, _regular, _tiny),
       _log_uniform(-2, 3))
def test_expand_is_finite_or_refuses(pair, s):
    try:
        gap = GapPair(*pair)
    except TwinGapError:
        return
    for f in (lambda: expand(s, gap).total,
              lambda: expansion_merging(s, gap).total,
              lambda: expansion_merging_limit(s, gap).total):
        try:
            total = f()
        except TwinGapError:
            continue
        assert math.isfinite(total)
    try:
        select_regime(s, gap)
    except TwinGapError:
        pass


@pytest.mark.parametrize("pair", [(0.0, 5e-324), (-5e-311, 5e-311),
                                  (-1.5e-308, 1.5e-308)])
def test_band_below_the_floor_is_refused(pair):
    # below MIN_BAND_HALF_WIDTH the merging scale 1/(gamma nu) overflows
    with pytest.raises(DomainError):
        GapPair(*pair)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_narrow, _left_edge, _right_edge, _regular))
def test_merging_scale_is_below_a_quarter(pair):
    # nu < beta and nu < |alpha| for every valid gap, so gamma nu < 1/4
    # and L = log(1/(gamma nu)) > 0: the merging formulas need no check
    # of L
    nu, gamma, _, L, _, _ = _merging_scales(1.0, GapPair(*pair))
    assert gamma * nu < 0.25
    assert L > 0.0


@settings(max_examples=500, deadline=None)
@given(_log_uniform(-300, 300))
def test_band_index_is_an_exact_whole_number(omega0):
    # omega0 - <omega0> is computed without rounding (Sterbenz): a whole
    # number k >= 0 with k + <omega0> == omega0
    fr = nearest_frac(omega0)
    k = omega0 - fr
    assert k >= 0.0 and k.is_integer()
    assert k + fr == omega0
