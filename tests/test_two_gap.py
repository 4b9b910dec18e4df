import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twingap.two_gap
from twingap import (DomainError, GapPair, Regime, abel_map, derive_geometry,
                     elliptic_data, expansion_two_gap, select_regime,
                     theta_eval)
from twingap.elliptic import (integrate_both_sqrt, integrate_left_sqrt,
                              integrate_right_sqrt, _leggauss, _refine)

from reference import complete_elliptic, geometry_v2_limit_checks

GRID = [GapPair(-0.8, -0.1), GapPair(-0.5, 0.3), GapPair(-0.2, 0.6),
        GapPair(-0.6, 0.6)]

# frozen from the scipy.integrate.quad golden run for (-0.5, 0.3)
GOLDEN_Q_AT_V2 = -0.3653373825839465

gaps = st.tuples(st.floats(-0.9, 0.75), st.floats(-0.75, 0.9)).filter(
    lambda t: t[0] + 0.1 < t[1]).map(lambda t: GapPair(*t))


@pytest.mark.parametrize("v", [0.2, 0.5, 0.8])
def test_symmetric_geometry(v):
    geom = derive_geometry(GapPair(-v, v))
    vp = math.sqrt(1 - v * v)
    Kp, Ep = complete_elliptic(vp)
    Kv, _ = complete_elliptic(v)
    assert abs(geom.x1 + geom.x2) < 1e-12
    assert abs(geom.x1 * geom.x2 + Ep / Kp) < 1e-11
    assert abs(geom.G0 - ((1 + v * v) / 2 - Ep / Kp)) < 1e-11
    assert abs(geom.tau - 2j * Kv / Kp) < 1e-10


@settings(max_examples=20, deadline=None)
@given(gaps)
def test_geometry_invariants(gap):
    geom = derive_geometry(gap)
    assert abs(geom.x1 + geom.x2 - (gap.v1 + gap.v2) / 2) < 1e-12
    assert -1 < geom.x1 < gap.v1 and gap.v2 < geom.x2 < 1
    assert geom.G0 > 0
    assert geom.Omega > 0
    assert geom.tau.real == 0.0 and geom.tau.imag > 0
    # the edge coefficients are tied together: 1/(gamma0^2 u0) = -i I0 (1+v2)
    lhs = 1.0 / (geom.gamma0_sq * geom.u0)
    rhs = -1j * geom.elliptic.I0 * (1 + gap.v2)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)
    # d sits inside the fundamental cell, away from the theta zeros
    assert -0.5 < geom.d.real <= 0.5 + 1e-15
    assert 0 < geom.d.imag <= geom.tau.imag
    ctx = geom.theta_context()
    assert abs(theta_eval(3, geom.d, ctx)) > 1e-6
    assert abs(theta_eval(1, geom.d, ctx)) > 1e-6


@settings(max_examples=15, deadline=None)
@given(gaps)
def test_reflection_symmetry_of_omega(gap):
    a = derive_geometry(gap)
    b = derive_geometry(gap.reflected())
    assert abs(a.Omega - b.Omega) < 1e-12 * a.Omega


@pytest.mark.parametrize("gap", GRID)
def test_cycle_integrals_of_psi_vanish(gap):
    # q/sqrt|p| integrates to zero over each gap: checked by direct
    # quadrature of the q-weighted integrand, independent of the moment
    # combination that defined x1, x2
    geom = derive_geometry(gap)
    f_right = lambda x: ((x - geom.x1) * (x - geom.x2)
                         / ((1 + x) * (x - gap.v1)) ** 0.5)
    a1 = _refine(lambda n: integrate_both_sqrt(f_right, gap.v2, 1.0, n))
    f_left = lambda x: ((x - geom.x1) * (x - geom.x2)
                        / ((1.0 - x) * (gap.v2 - x)) ** 0.5)
    a0 = _refine(lambda n: integrate_both_sqrt(f_left, -1.0, gap.v1, n))
    assert abs(a1) < 1e-10
    assert abs(a0) < 1e-10


def test_q_polynomial():
    # q_at holds |q(y)| at y = -1, v1, v2, 1; q(v2) itself is negative
    gap = GapPair(-0.5, 0.3)
    geom = derive_geometry(gap)
    assert -geom.q_at[2] == pytest.approx(GOLDEN_Q_AT_V2, abs=1e-10)
    # symmetric case: |q(1)| = 1 - I2/I0
    sym = derive_geometry(GapPair(-0.4, 0.4))
    e = sym.elliptic
    assert abs(sym.q_at[3] - (1 - e.I2 / e.I0)) < 1e-11


def test_abel_map_special_points():
    gap = GapPair(-0.5, 0.3)
    geom = derive_geometry(gap)
    assert abel_map(gap.v2, gap, geom) == 0
    u1 = abel_map(1.0, gap, geom)
    assert abs(u1 - round(u1.real) + 0.5) < 1e-11
    # u(inf) + d vanishes mod 1
    val = abel_map(math.inf, gap, geom) + geom.d
    assert abs(val - round(val.real)) < 1e-10
    # the other two branch points take the exact representatives
    exact = twingap.two_gap.branch_point_u(geom)
    for z in (gap.v1, -1.0):
        u = abel_map(z, gap, geom)
        assert (u.real.hex(), u.imag.hex()) == (exact[z].real.hex(),
                                                exact[z].imag.hex())


def test_abel_map_derivative_on_each_branch():
    # du/dz = -i / (2 I0 sqrt(p)) with sqrt(p) = -sqrt|p| on the band and
    # +sqrt|p| outside [-1, 1]; finite differences vs the closed form
    gap = GapPair(-0.5, 0.3)
    geom = derive_geometry(gap)
    I0 = geom.elliptic.I0
    h = 1e-6
    cases = [(-0.1, -1.0), (2.0, 1.0), (-2.0, 1.0)]  # (z, sign of sqrt p)
    for z, sign in cases:
        absp = abs((z * z - 1) * (z - gap.v1) * (z - gap.v2))
        expected = -1j / (2 * I0 * sign * math.sqrt(absp))
        fd = (abel_map(z + h, gap, geom) - abel_map(z - h, gap, geom)) / (2 * h)
        assert abs(fd - expected) < 1e-8 * abs(expected)


def test_abel_map_approaches_branch_values():
    # square-root vanishing toward the band edge: u(v1 + eps) + tau/2
    # shrinks like sqrt(eps)
    gap = GapPair(-0.5, 0.3)
    geom = derive_geometry(gap)
    for eps in (1e-4, 1e-6):
        u = abel_map(gap.v1 + eps, gap, geom)
        assert abs(u + geom.tau / 2) < 2.0 * math.sqrt(eps)


def test_abel_map_rejects_cut_points():
    gap = GapPair(-0.5, 0.3)
    with pytest.raises(DomainError):
        abel_map(0.65, gap)
    with pytest.raises(DomainError):
        abel_map(-0.75, gap)


def test_alternative_abel_constant_route():
    # d also equals u(zhat) - (1 - tau)/2 mod 1 with zhat the band point
    # where gamma - 1/gamma vanishes
    for gap in GRID:
        geom = derive_geometry(gap)
        zhat = (gap.v1 + gap.v2) / (2.0 + gap.v1 - gap.v2)
        alt = abel_map(zhat, gap, geom) - (1 - geom.tau) / 2
        diff = alt - geom.d
        assert abs(diff - round(diff.real)) < 1e-10


@pytest.mark.parametrize("nu", [1e-3, 1e-4])
def test_merging_band_product(nu):
    # x1 x2 approaches -|alpha beta| / log(1/(gamma nu)) at rate O(nu^2)
    gap = GapPair(-nu, nu)
    geom = derive_geometry(gap)
    L = math.log(1.0 / (0.25 * nu))
    assert abs(geom.x1 * geom.x2 + 1.0 / L) < 50 * nu ** 2


def test_v2_limit_checks():
    res = geometry_v2_limit_checks(GapPair(-0.5, 0.999))
    assert res["x2_abs_residual"] < 10 * (1 - 0.999) ** 2
    assert res["x1_abs_residual"] < 10 * (1 - 0.999) ** 2
    assert res["tau_rel_residual"] < 0.1
    finer = geometry_v2_limit_checks(GapPair(-0.5, 0.9999))
    for key in res:
        assert finer[key] < res[key]


def _bits(x):
    """A form of a geometry field in which equal means equal bits."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, tuple):
        return tuple(_bits(y) for y in x)
    if dataclasses.is_dataclass(x):
        return {f.name: _bits(getattr(x, f.name)) for f in dataclasses.fields(x)}
    return x


@pytest.mark.parametrize("gap", GRID + [GapPair(-0.3, -0.29), GapPair(-0.2, 0.9999)])
def test_memoized_geometry_is_bit_identical(gap):
    derive_geometry.cache_clear()
    first = derive_geometry(gap)
    again = derive_geometry(GapPair(gap.v1, gap.v2))
    assert again is first
    assert _bits(first) == _bits(derive_geometry.__wrapped__(gap))


def test_s_sweep_computes_moments_once(monkeypatch):
    calls = []

    def counting(gap):
        calls.append(gap)
        return elliptic_data(gap)

    monkeypatch.setattr(twingap.two_gap, "elliptic_data", counting)
    derive_geometry.cache_clear()
    gap = GapPair(-0.5, 0.3)
    for k in range(1, 9):
        s = 2.0 ** k
        # small s picks Separating here, which shares the two-gap formula
        assert select_regime(s, gap)[0] in (Regime.FIXED_TWO_GAP,
                                             Regime.SEPARATING)
        expansion_two_gap(s, gap)
    assert calls == [gap]


def _inline_both(f, a, b, n):
    t, w = _leggauss(n)
    theta = (t + 1.0) * (math.pi / 4.0)
    x = a + (b - a) * np.sin(theta) ** 2
    return float(np.sum(w * (math.pi / 4.0) * 2.0 * f(x)))


def _inline_left(f, a, b, n):
    t, w = _leggauss(n)
    u = (t + 1.0) / 2.0
    x = b - (b - a) * u * u
    return 2.0 * math.sqrt(b - a) * float(np.sum(w * 0.5 * f(x)))


def _inline_right(f, a, b, n):
    t, w = _leggauss(n)
    u = (t + 1.0) / 2.0
    x = a + (b - a) * u * u
    return 2.0 * math.sqrt(b - a) * float(np.sum(w * 0.5 * f(x)))


@pytest.mark.parametrize("n", [200, 6400])
@pytest.mark.parametrize("cached, inline", [
    (integrate_both_sqrt, _inline_both),
    (integrate_left_sqrt, _inline_left),
    (integrate_right_sqrt, _inline_right)])
def test_cached_quadrature_rules_match_inline_formula(n, cached, inline):
    # the moment integrand of I_2 at (-0.5, 0.3), on its A-cycle interval
    f = lambda x: x ** 2 / np.sqrt((1.0 + x) * (x + 0.5))
    assert cached(f, 0.3, 1.0, n) == inline(f, 0.3, 1.0, n)
