"""Acceptance gate: one test per criterion, each printing a status line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are fixed here, not configurable; the exact-identity suites
(3-7, 10, 11) assert tight residuals, while the oracle-vs-expansion
criteria (1, 2, 8, 9) assert bounded and decreasing discrepancies, since
the remainder constants of the expansions are not desk-reproducible.
"""

import math
import time

from twingap import (GapPair, ThetaContext, WIDOM_DYSON_C0,
                     derivative_identity_residuals, derive_geometry,
                     expansion_merging, expansion_merging_limit,
                     expansion_one_gap, expansion_two_gap, fredholm_logdet,
                     g1hat, period_relation_residual, theta_identity_residual,
                     theta_integral_residuals)
from twingap.oracle import nystrom_eigenvalues

from reference import toeplitz_logdet

IDENTITY_GRID = [GapPair(-0.8, -0.1), GapPair(-0.5, 0.3), GapPair(-0.2, 0.6),
                 GapPair(-0.6, 0.6)]
OMEGAS = [0.0, 0.37, 0.5]


def _report(num: int, label: str, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_one_gap_expansion():
    t0 = time.perf_counter()
    diffs = {}
    for s in (4.0, 6.0):
        res = fredholm_logdet(s, [(-1.0, 1.0)], max_nodes=600)
        diffs[s] = abs(res.log_det - expansion_one_gap(s).total)
    elapsed = time.perf_counter() - t0
    ok = (diffs[4.0] <= 0.08 and diffs[6.0] <= 0.05
          and diffs[6.0] < diffs[4.0] and elapsed < 20.0)
    _report(1, "one-gap expansion", ok,
            f"|diff| s=4: {diffs[4.0]:.4f} (<=0.08), s=6: {diffs[6.0]:.4f} "
            f"(<=0.05), decreasing; {elapsed:.1f}s")


def test_criterion_02_two_gap_expansion():
    t0 = time.perf_counter()
    gap = GapPair(-0.5, 0.3)
    diffs, excluded = [], []
    for s in (4.0, 6.0, 8.0):
        res = fredholm_logdet(s, [(-1.0, gap.v1), (gap.v2, 1.0)])
        if res.unreliable:
            excluded.append(s)
            continue
        diffs.append(abs(expansion_two_gap(s, gap).total - res.log_det))
    elapsed = time.perf_counter() - t0
    ok = (len(diffs) >= 2 and all(d <= 0.15 for d in diffs)
          and all(a > b for a, b in zip(diffs, diffs[1:])) and elapsed < 60.0)
    _report(2, "two-gap expansion vs oracle", ok,
            f"|diff| = {[f'{d:.4f}' for d in diffs]} (<=0.15, decreasing), "
            f"excluded={excluded}; {elapsed:.1f}s")


def test_criterion_03_g1hat_constancy():
    t0 = time.perf_counter()
    worst = 0.0
    for v1 in (-0.85, -0.6, -0.35, -0.1, 0.15):
        for v2 in (-0.75, -0.45, 0.0, 0.45, 0.75):
            if v1 < v2:
                worst = max(worst, abs(g1hat(GapPair(v1, v2)) + 0.5))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    _report(3, "log-s prefactor constancy", ok,
            f"max |g1hat + 1/2| = {worst:.2e} (<1e-8); {elapsed:.1f}s")


def test_criterion_04_theta_identity_suite():
    t0 = time.perf_counter()
    worst = {}
    for gap in IDENTITY_GRID:
        geom = derive_geometry(gap)
        for which in "abcdefg":
            for omega in OMEGAS:
                rep = theta_identity_residual(which, gap, omega, geom)
                worst[which] = max(worst.get(which, 0.0), rep.residual)
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) < 1e-9 and elapsed < 10.0
    _report(4, "theta identity suite (a-g)", ok,
            f"worst residual = {max(worst.values()):.2e} (<1e-9); "
            f"{elapsed:.1f}s")


def test_criterion_05_period_relation():
    worst = max(period_relation_residual(gap).residual
                for gap in IDENTITY_GRID)
    _report(5, "Riemann period relation", worst < 1e-9,
            f"worst residual = {worst:.2e} (<1e-9)")


def test_criterion_06_derivative_identities():
    worst_fd, worst_t1 = 0.0, 0.0
    for gap in IDENTITY_GRID:
        for omega in (0.13, 0.37, 0.5):
            reports = {r.identity_id: r.residual
                       for r in derivative_identity_residuals(gap, omega)}
            worst_t1 = max(worst_t1, reports["t1_functional"])
            worst_fd = max(worst_fd, reports["dtau_dv2"],
                           reports["domega_dv2"], reports["zeta0_sq"])
    ok = worst_fd < 1e-6 and worst_t1 < 1e-8
    _report(6, "derivative identities", ok,
            f"worst FD residual = {worst_fd:.2e} (<1e-6), worst "
            f"oscillation-functional residual = {worst_t1:.2e} (<1e-8)")


def test_criterion_07_theta_integral_lemmas():
    worst = 0.0
    for t in (0.8, 1.5, 3.0):
        ctx = ThetaContext.from_tau(1j * t)
        for rep in theta_integral_residuals(ctx, d=0.2 + 0.3j * t, u=0.37):
            worst = max(worst, rep.residual)
    _report(7, "theta integral lemmas", worst < 1e-9,
            f"worst residual = {worst:.2e} (<1e-9)")


def test_criterion_08_separation_of_gaps():
    # two short gaps of scaled length 2t hugging -1 and 1 (width 2t/s,
    # i.e. separation parameter w = s/(2t) = 20); prediction
    # -t^2 - (1/2) log t + 2 c0
    diffs = {}
    for t in (2.5, 3.0):
        s = 2.0 * t * 20.0
        eps = 2.0 * t / s
        res = fredholm_logdet(s, [(-1.0, -1.0 + eps), (1.0 - eps, 1.0)])
        pred = -t * t - 0.5 * math.log(t) + 2.0 * WIDOM_DYSON_C0
        diffs[t] = abs(res.log_det - pred)
    ok = diffs[2.5] <= 0.3 and diffs[3.0] < diffs[2.5]
    _report(8, "separation of gaps", ok,
            f"|diff| t=2.5: {diffs[2.5]:.4f} (<=0.3), t=3: {diffs[3.0]:.4f} "
            "(shrinking)")


def test_criterion_09_regime_matching():
    # band centered at -0.2: the sampled rescaled frequencies stay away
    # from the half-integer crossings, where the desk-scale o(1)
    # mismatch between the two transition formulas peaks
    diffs = []
    for s in (30.0, 60.0, 120.0):
        nu = s ** -1.2
        gap = GapPair(-0.2 - nu, -0.2 + nu)
        diffs.append(abs(expansion_merging(s, gap).total
                         - expansion_merging_limit(s, gap).total))
    ok = diffs[0] > diffs[1] > diffs[2]
    _report(9, "transition-formula matching", ok,
            f"|merging - limit| = {[f'{d:.2e}' for d in diffs]} "
            "(monotone decreasing)")


def test_criterion_10_cross_oracle():
    t0 = time.perf_counter()
    s = 2.0
    fred = fredholm_logdet(s, [(-1.0, -0.5), (0.3, 1.0)])
    toep = toeplitz_logdet(s, -0.5, 0.3, 800)
    diff = abs(fred.log_det - toep.log_det)
    elapsed = time.perf_counter() - t0
    ok = diff < 5e-3 and not toep.unreliable and elapsed < 30.0
    _report(10, "Nystrom vs Toeplitz oracle", ok,
            f"|diff| = {diff:.2e} (<5e-3); {elapsed:.1f}s")


def test_criterion_11_invariance_suite():
    pair = [(-1.0, -0.5), (0.3, 1.0)]
    base = fredholm_logdet(3.0, pair).log_det
    shifted = fredholm_logdet(3.0, [(a + 0.3, b + 0.3) for a, b in pair]).log_det
    shifted2 = fredholm_logdet(3.0, [(a - 1.7, b - 1.7) for a, b in pair]).log_det
    mirrored = fredholm_logdet(3.0, [(-1.0, -0.3), (0.5, 1.0)]).log_det
    translation = max(abs(base - shifted), abs(base - shifted2))
    reflection = abs(base - mirrored)
    svals = [fredholm_logdet(s, pair).log_det for s in (1.0, 2.0, 4.0, 6.0)]
    monotone = all(a > b for a, b in zip(svals, svals[1:]))
    lam = nystrom_eigenvalues(4.0, pair, 200)
    spectrum_ok = lam.min() > -1e-12 and lam.max() < 1.0
    ok = (translation < 1e-10 and reflection < 1e-10 and monotone
          and spectrum_ok)
    _report(11, "oracle invariance suite", ok,
            f"translation {translation:.1e}, reflection {reflection:.1e}, "
            f"monotone in s: {monotone}, spectrum in [0,1): {spectrum_ok}")
