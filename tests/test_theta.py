import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twingap import DomainError, ThetaContext, theta_eval

from reference import (theta3_modular_residual, theta_constants,
                       theta_quasi_period_residual)

CTX = ThetaContext.from_tau(1.3983866398709366j)  # tau of the (-0.5, 0.3) gap

# the shifted side of the quasi-period relation is larger by
# e^(2 pi Im z + pi Im tau); past |Im z| ~ 0.2 Im tau that amplification
# pushes plain round-off toward the 1e-12 absolute target, so the strict
# check lives on moderate arguments and large ones are scale-matched below
# (worst dense-grid residual on this domain: 6.6e-13)
zs = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-0.25, 0.25))


def test_period_one():
    for z in (0.0, 0.3, 0.7 + 0.2j, -1.4 + 0.9j):
        assert abs(theta_eval(3, z, CTX) - theta_eval(3, z + 1, CTX)) < 1e-14 * abs(theta_eval(3, z, CTX))


def test_zero_location():
    z0 = (1 + CTX.tau) / 2
    assert abs(theta_eval(3, z0, CTX)) < 1e-12


def test_parity_and_exact_zero():
    assert theta_eval(1, 0.0, CTX) == 0
    for z in (0.2, 0.4 + 0.3j, 1.1 - 0.2j):
        assert abs(theta_eval(3, z, CTX) - theta_eval(3, -z, CTX)) < 1e-14 * abs(theta_eval(3, z, CTX))
        assert abs(theta_eval(1, z, CTX) + theta_eval(1, -z, CTX)) < 1e-13 * max(1, abs(theta_eval(1, z, CTX)))


@settings(max_examples=40, deadline=None)
@given(zs, st.sampled_from([1, 2, 3, 4]))
def test_quasi_periods(z, j):
    assert theta_quasi_period_residual(j, z, CTX) < 1e-12


def test_quasi_period_at_zero_theta4():
    assert theta_quasi_period_residual(4, 0.0, CTX) < 1e-12


def test_quasi_period_large_argument_scale_matched():
    # far up the cylinder both sides are huge; agreement holds at the
    # scale of the larger side
    for j in (1, 2, 3, 4):
        z = 0.3 + 0.65j
        base = theta_eval(j, z, CTX)
        shifted = theta_eval(j, z + CTX.tau, CTX)
        res = theta_quasi_period_residual(j, z, CTX)
        assert res * max(1.0, abs(base)) < 1e-13 * abs(shifted)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
def test_constant_identities(t):
    c = theta_constants(ThetaContext.from_tau(1j * t))
    prod = math.pi * c.theta2 * c.theta3 * c.theta4
    assert abs(c.theta1_prime - prod) < 1e-12 * abs(prod)
    quartic = c.theta2 ** 4 + c.theta4 ** 4
    assert abs(c.theta3 ** 4 - quartic) < 1e-12 * abs(quartic)


def test_heat_equation_by_tau_difference():
    # theta3'' = 4 pi i d(theta3)/d(tau); along tau = i t this reads
    # theta3'' = 4 pi d(theta3)/dt, with the t-derivative by central
    # finite differences
    t, h = 1.1, 1e-6
    up = theta_eval(3, 0.0, ThetaContext.from_tau(1j * (t + h))).real
    dn = theta_eval(3, 0.0, ThetaContext.from_tau(1j * (t - h))).real
    ctx = ThetaContext.from_tau(1j * t)
    lhs = theta_eval(3, 0.0, ctx, 2).real / theta_eval(3, 0.0, ctx).real
    rhs = 4 * math.pi * (up - dn) / (2 * h) / theta_eval(3, 0.0, ctx).real
    assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(lhs))


def test_modular_residuals():
    assert theta3_modular_residual(0.0, ThetaContext.from_tau(1j)) < 1e-13
    assert theta3_modular_residual(0.3, ThetaContext.from_tau(2j)) < 1e-12
    tau = 0.7j
    assert theta3_modular_residual(0.5 + tau / 2, ThetaContext.from_tau(tau)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
def test_addition_formulas(x, y):
    for j in (2, 4):
        lhs = (theta_eval(j, x + y, CTX) * theta_eval(3, x - y, CTX)
               + theta_eval(j, x - y, CTX) * theta_eval(3, x + y, CTX))
        rhs = (2.0 / (theta_eval(j, 0.0, CTX) * theta_eval(3, 0.0, CTX))
               * theta_eval(j, x, CTX) * theta_eval(j, y, CTX)
               * theta_eval(3, x, CTX) * theta_eval(3, y, CTX))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_log_derivative_tau_shift(j):
    z = 0.31 + 0.17j
    base = theta_eval(j, z, CTX, 1) / theta_eval(j, z, CTX)
    shift = theta_eval(j, z + CTX.tau, CTX, 1) / theta_eval(j, z + CTX.tau, CTX)
    assert abs(shift - (base - 2j * math.pi)) < 1e-11 * max(1.0, abs(base))


def test_elliptic_square_identity():
    # (theta3'/theta3)'(z) = (theta1'(0)/theta3(0))^2 theta1^2/theta3^2
    #                        + theta3''(0)/theta3(0)
    c = theta_constants(CTX)
    for z in (0.13, 0.31 + 0.11j, 0.72):
        t3 = theta_eval(3, z, CTX)
        lhs = theta_eval(3, z, CTX, 2) / t3 - (theta_eval(3, z, CTX, 1) / t3) ** 2
        rhs = ((c.theta1_prime / c.theta3) ** 2
               * (theta_eval(1, z, CTX) / t3) ** 2 + c.theta3_pp / c.theta3)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_real_axis_positivity():
    for t in (0.4, 1.0, 2.5):
        ctx = ThetaContext.from_tau(1j * t)
        for z in [k / 17 for k in range(17)]:
            val = theta_eval(3, z, ctx)
            assert abs(val.imag) < 1e-13 * abs(val)
            assert val.real > 0.0


def test_context_validation_and_truncation():
    # every series sum relies on tau = i t for its term count
    for tau in (1.0 + 0j, 0.3 + 1j, -1e-30 + 0.01j):
        with pytest.raises(DomainError):
            ThetaContext.from_tau(tau)
    # far below the switch (nome 0.97) the defining series still reaches
    # the transform's value with its own term count
    assert theta3_modular_residual(0.3, ThetaContext.from_tau(0.01j)) < 1e-12


def test_invalid_index_and_order():
    with pytest.raises(DomainError):
        theta_eval(5, 0.0, CTX)
    with pytest.raises(DomainError):
        theta_eval(3, 0.0, CTX, order=4)


# both sides of the switch at log 2 / pi = 0.22064 and both ends of each
# branch; CTX.tau.imag is the (-0.5, 0.3) gap
@pytest.mark.parametrize("t", [0.02, 0.2205, 0.2207, CTX.tau.imag, 20.0])
def test_against_mpmath_reference(t):
    # independent oracle: mpmath's jtheta scales the argument by pi, so
    # theta_j(z; tau) = jtheta(j, pi z, q) and each z-derivative carries
    # a factor pi.  Points with |Im z| > t/2 are moved by the reduction.
    import mpmath
    mpmath.mp.dps = 25
    ctx = ThetaContext.from_tau(1j * t)
    q = mpmath.exp(-mpmath.pi * mpmath.mpf(t))
    rng = [(-1.3, 0.3), (0.75, 0.0), (0.31, 0.16), (1.9, -0.6), (-0.25, 0.0),
           (0.45, 0.55)]
    zs = np.array([complex(re, im * t) for re, im in rng])
    for j in (1, 2, 3, 4):
        for order in (0, 1, 2, 3):
            # the same points once more, as one array
            mine_all = theta_eval(j, zs, ctx, order)
            for z, mine_arr in zip(zs, mine_all):
                mine = theta_eval(j, complex(z), ctx, order)
                ref = complex(mpmath.jtheta(j, mpmath.pi * z, q,
                                            derivative=order))
                ref *= math.pi ** order
                assert abs(mine - ref) < 1e-12 * max(1.0, abs(ref)), (j, z, order)
                assert abs(mine_arr - ref) < 1e-12 * max(1.0, abs(ref)), (j, z, order)


@pytest.mark.parametrize("t", [0.15, CTX.tau.imag])
def test_array_matches_scalar(t):
    # real-line nodes shifted as the period-integral lemmas shift them;
    # t = 0.15 (nome 0.62) takes the modular-transform sum, CTX the
    # defining series.  numpy rounds a complex product differently from
    # Python, so near a zero of theta_j^(order) the two agree to the
    # rounding of the sum, not of the value: the error is measured
    # against the largest value on the same points.
    ctx = ThetaContext.from_tau(1j * t)
    assert (abs(ctx.nome) > 0.5) == (t < 0.2)
    d, u = 0.2 + 0.3j * t, 0.37
    x = (np.polynomial.legendre.leggauss(64)[0] + 1.0) / 2.0
    for shift in (0.0, -d, u + d, 0.5):
        zs = x + shift
        for j in (1, 2, 3, 4):
            for order in (0, 1, 2, 3):
                arr = theta_eval(j, zs, ctx, order)
                ref = np.array([theta_eval(j, complex(z), ctx, order) for z in zs])
                assert arr.shape == zs.shape
                assert np.abs(arr - ref).max() <= 1e-13 * np.abs(ref).max(), (j, shift, order)


@pytest.mark.parametrize("tau", [complex(0.0, math.inf), complex(math.nan, 1.0),
                                 complex(0.0, math.nan), complex(math.inf, 1.0),
                                 complex(0.0, -1000.0)])
def test_context_refuses_non_finite_or_lower_tau(tau):
    with pytest.raises(DomainError):
        ThetaContext.from_tau(tau)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan,
                               complex(0.3, math.inf), complex(math.nan, 0.0)])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_non_finite_point_refused(j, z):
    with pytest.raises(DomainError):
        theta_eval(j, z, CTX)
    # an array with one bad point is refused up front, not after the
    # whole term budget
    with pytest.raises(DomainError):
        theta_eval(j, np.array([0.1, z, 0.4]), CTX, 1)


# points whose reduction count n = round(Im z / t) or quasi-period factor
# exp(pi t n^2 + ...) is not a finite double; the true value overflows
@pytest.mark.parametrize("t, z, order", [(1e-200, 0.3 + 0.1j, 0),
                                         (1e-200, 0.3 + 0.1j, 1),
                                         (1e-5, 0.3 + 0.1j, 0),
                                         (1e-5, 0.3 + 0.1j, 2),
                                         (5e-324, 0.3 + 0.1j, 0)])
@pytest.mark.parametrize("j", [1, 3])
def test_overflowing_quasi_period_refused(j, t, z, order):
    ctx = ThetaContext.from_tau(1j * t)
    with pytest.raises(DomainError):
        theta_eval(j, z, ctx, order)
    with pytest.raises(DomainError):
        theta_eval(j, np.array([0.1, z, 0.4]), ctx, order)
