import dataclasses
import math
import statistics

import pytest

from twingap import (DomainError, GapPair, ThetaContext, identities,
                     derivative_identity_residuals, derive_geometry, g1hat,
                     period_relation_residual, theta_identity_residual,
                     theta_integral_residuals)
from twingap.identities import (DEFAULT_GRID, _composite_gauss_01,
                                oscillation_functional, run_suite)
from twingap.theta import theta_eval

from reference import g1hat_closed_form

GRID = list(DEFAULT_GRID)
OMEGAS = [0.0, 0.37, 0.5]


@pytest.mark.parametrize("which", list("abcdefg"))
def test_theta_identities_on_grid(which):
    for gap in GRID:
        geom = derive_geometry(gap)
        for omega in OMEGAS:
            rep = theta_identity_residual(which, gap, omega, geom)
            assert rep.residual < 1e-9, (which, gap, omega, rep.residual)
            assert rep.passed


def test_identity_a_degenerates_at_zero_frequency():
    rep = theta_identity_residual("a", GapPair(-0.5, 0.3), 0.0)
    assert rep.residual < 1e-12


def test_identity_a_frequency_symmetries():
    gap = GapPair(-0.5, 0.3)
    geom = derive_geometry(gap)
    base = theta_identity_residual("a", gap, 0.37, geom).residual
    plus1 = theta_identity_residual("a", gap, 1.37, geom).residual
    neg = theta_identity_residual("a", gap, -0.37, geom).residual
    assert abs(base - plus1) < 1e-11
    assert abs(base - neg) < 1e-11


@pytest.mark.parametrize("shift_kind", ["one", "tau"])
def test_lattice_shift_invariance_of_residuals(shift_kind):
    gap = GapPair(-0.5, 0.3)
    geom = derive_geometry(gap)
    shift = 1.0 if shift_kind == "one" else geom.tau
    moved = dataclasses.replace(geom, d=geom.d + shift)
    for which in "abcd":
        a = theta_identity_residual(which, gap, 0.37, geom).residual
        b = theta_identity_residual(which, gap, 0.37, moved).residual
        assert abs(a - b) < 1e-11, which


def test_unknown_identity_rejected():
    with pytest.raises(DomainError):
        theta_identity_residual("z", GapPair(-0.5, 0.3), 0.0)


def test_period_relation_on_grid():
    for gap in GRID + [GapPair(-0.6, 0.6)]:
        assert period_relation_residual(gap).residual < 1e-9


def test_period_relation_near_degenerate():
    # endpoints 1e-3 apart: quadrature sees a sharp boundary layer, so
    # the tolerance is relaxed
    assert period_relation_residual(GapPair(-0.5, -0.499)).residual < 1e-6


def test_g1hat_is_constant_minus_half():
    values = []
    for v1 in (-0.85, -0.6, -0.35, -0.1, 0.15):
        for v2 in (-0.75, -0.45, 0.0, 0.45, 0.75):
            if v1 < v2:
                values.append(g1hat(GapPair(v1, v2)))
    assert max(abs(v + 0.5) for v in values) < 1e-8
    assert statistics.pstdev(values) < 1e-8


def test_g1hat_shortcut_matches_series():
    for gap in (GapPair(-0.5, 0.3), GapPair(-0.8, -0.1)):
        geom = derive_geometry(gap)
        a = g1hat(gap, geom)
        b = g1hat_closed_form(gap, geom)
        assert abs(a - b) < 1e-9


def test_derivative_identities():
    for gap in (GapPair(-0.5, 0.3), GapPair(-0.2, 0.6)):
        reports = {r.identity_id: r for r in
                   derivative_identity_residuals(gap, omega=0.37)}
        assert reports["dtau_dv2"].residual < 1e-6
        assert reports["domega_dv2"].residual < 1e-6
        assert reports["zeta0_sq"].residual < 1e-6
        assert reports["t1_functional"].residual < 1e-8
        assert reports["gfun_dv2"].residual < 1e-5


def test_t1_vanishes_at_zero():
    geom = derive_geometry(GapPair(-0.5, 0.3))
    assert abs(oscillation_functional(0.0, geom)) < 1e-12


@pytest.mark.parametrize("t", [0.8, 1.5, 3.0])
def test_theta_integral_lemmas(t):
    ctx = ThetaContext.from_tau(1j * t)
    reports = theta_integral_residuals(ctx, d=0.2 + 0.3j * t, u=0.37)
    for rep in reports:
        assert rep.residual < 1e-9, (t, rep.identity_id, rep.residual)


def test_theta_integral_relabeling_symmetry():
    # substituting z -> -z maps (d, u) to (d + u, -u); the integral is
    # unchanged, so both sides must match to quadrature accuracy
    ctx = ThetaContext.from_tau(1.5j)
    d, u = 0.2 + 0.45j, 0.37

    def int2(dd, uu):
        return _composite_gauss_01(
            lambda z: theta_eval(3, z - dd, ctx) * theta_eval(3, z + uu + dd, ctx)
            / theta_eval(3, z, ctx) ** 2)

    assert abs(int2(d, u) - int2(d + u, -u)) < 1e-10


def test_theta_integral_integer_u_rejected():
    ctx = ThetaContext.from_tau(1.5j)
    with pytest.raises(DomainError):
        theta_integral_residuals(ctx, d=0.2 + 0.45j, u=1.0)


def test_quadrature_refinement_never_degrades(monkeypatch):
    # doubling panels and nodes must not grow any residual by more than
    # a factor 2 (guarding against accidental non-convergence)
    ctx = ThetaContext.from_tau(1.5j)

    def worst(panels, nodes):
        monkeypatch.setattr(identities, "_PANELS", panels)
        monkeypatch.setattr(identities, "_NODES", nodes)
        val = _composite_gauss_01(
            lambda z: (theta_eval(3, z, ctx, 1) / theta_eval(3, z, ctx)) ** 2)
        rhs = (math.pi ** 2 / 3
               + theta_eval(1, 0.0, ctx, 3) / (3 * theta_eval(1, 0.0, ctx, 1)))
        return abs(val - rhs)

    assert worst(16, 64) <= 2.0 * worst(8, 32) + 1e-14


def test_run_suite_names_and_content():
    reports = run_suite("g1hat")
    assert all(r.identity_id == "g1hat" and r.passed for r in reports)
    with pytest.raises(DomainError):
        run_suite("bogus")
