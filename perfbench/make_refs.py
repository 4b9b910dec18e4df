#!/usr/bin/env python3
"""Extended-precision references for the benchmark's reference pools.

Usage: python3 perfbench/make_refs.py --seed 0

Writes perfbench/refs/asymp_sweep.json and perfbench/refs/oracle_sweep.json.
Each pool is drawn from the workload's own input generator with the given
seed, and every value is computed with mpmath alone, sharing no kernel with
twingap:

* oracle_sweep: Nystrom log det(I - K_s) with Gauss-Legendre nodes found by
  Newton's method in mp arithmetic and ``mp.det`` of I - M, at two node
  counts that must agree;
* asymp_sweep: the six moments and the tail integral by mp tanh-sinh
  quadrature (``mp.quad``), theta3 by ``mp.jtheta``, Barnes G by
  ``mp.barnesg``, assembled into each expansion's closed form.

Each entry stores the precision and node counts that produced it; points
without a reference (two-gap s above REF_S_MAX) are listed under "lacking".
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import time

import mpmath as mp

import workloads as W

HERE = pathlib.Path(__file__).resolve().parent
ORACLE_DPS = 40
ASYMP_DPS = 30
ASYMP_PAIRS = 100
ORACLE_ROUNDS = 3


# ---------------------------------------------------------------- oracle

def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], in mp."""
    xs, ws = [], []
    tol = mp.mpf(10) ** (-mp.mp.dps - 3)
    for i in range(1, n + 1):
        x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
        for _ in range(100):
            p0, p1 = mp.mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x -= dx
            if abs(dx) < tol:
                break
        p0, p1 = mp.mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1)
        xs.append(x)
        ws.append(2 / ((1 - x * x) * dp * dp))
    return xs, ws


def nystrom_logdet(s, intervals, m: int):
    t, w = gauss_legendre(m)
    xs, sw = [], []
    for a, b in intervals:
        a, b = mp.mpf(a), mp.mpf(b)
        for ti, wi in zip(t, w):
            xs.append((ti + 1) * (b - a) / 2 + a)
            sw.append(mp.sqrt(wi * (b - a) / 2))
    n = len(xs)
    mat = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            d = xs[i] - xs[j]
            k = s / mp.pi if i == j else mp.sin(s * d) / (mp.pi * d)
            mat[i, j] = (1 if i == j else 0) - sw[i] * k * sw[j]
    return mp.log(mp.det(mat))


def oracle_reference(point: dict) -> dict:
    """log det at m and m + 8 nodes per interval, m from the bandwidth."""
    mp.mp.dps = ORACLE_DPS
    s = mp.mpf(point["s"])
    width = max(b - a for a, b in point["intervals"])
    m = math.ceil(point["s"] * width / 2.0) + 16
    prev = nystrom_logdet(s, point["intervals"], m)
    while True:
        cur = nystrom_logdet(s, point["intervals"], m + 8)
        diff = abs(cur - prev)
        if diff < mp.mpf(10) ** -20 * max(1, abs(cur)):
            return {"ref": float(cur), "ref_nodes": [m, m + 8], "ref_dps": ORACLE_DPS,
                    "ref_diff": float(diff)}
        m, prev = m + 8, cur


# ---------------------------------------------------------------- asymp

def _geometric(h):
    """Breakpoints 0 < h 1e-6 < ... < h, for branch points near u = 0."""
    return [mp.mpf(0)] + [h * mp.mpf(10) ** -k for k in range(6, 0, -1)] + [h]


def _endpoint_quad(g, a, b):
    """int_a^b g(x, x - a, b - x) dx, with both distances exact.

    Each half is parametrized from its own endpoint, so the singular
    factors never suffer cancellation next to a branch point.
    """
    h = (b - a) / 2
    left, e1 = mp.quad(lambda u: g(a + u, u, 2 * h - u), _geometric(h), error=True)
    right, e2 = mp.quad(lambda w: g(b - w, 2 * h - w, w), _geometric(h), error=True)
    return left + right, e1 + e2


def moments(v1, v2):
    """I0..I2, J0..J2 and the tail integral, with the largest relative quad error."""
    v1, v2 = mp.mpf(v1), mp.mpf(v2)
    out, errs = {}, []
    for j in range(3):
        val, err = _endpoint_quad(
            lambda x, da, db: x ** j / mp.sqrt(da * db * (1 + v2 + da) * (v2 - v1 + da)),
            v2, mp.mpf(1))
        out[f"I{j}"] = val
        errs.append(err / abs(val))
        val, err = _endpoint_quad(
            lambda x, da, db: x ** j / mp.sqrt(da * db * (1 - v2 + db) * (1 + v1 + da)),
            v1, v2)
        out[f"J{j}"] = val
        errs.append(err / max(abs(val), 1))
    # int_{-inf}^{-1} dx/sqrt(p) with x = -1 - u
    val, err = mp.quad(lambda u: 1 / mp.sqrt(u * (2 + u) * (1 + v1 + u) * (1 + v2 + u)),
                       _geometric(mp.mpf(1)) + [mp.inf], error=True)
    out["T"] = val
    errs.append(err / val)
    return out, float(max(errs))


def widom_dyson():
    return mp.log(2) / 12 + 3 * mp.zeta(-1, 1, 1)


def two_gap_totals(v1, v2, mom, svals):
    v1, v2 = mp.mpf(v1), mp.mpf(v2)
    I0, I1, I2, J0 = mom["I0"], mom["I1"], mom["I2"], mom["J0"]
    ssum = (v1 + v2) / 2
    prod = (-I2 + ssum * I1) / I0
    disc = mp.sqrt(ssum * ssum - 4 * prod)
    x1, x2 = (ssum - disc) / 2, (ssum + disc) / 2
    G0 = prod + mp.mpf(1) / 2 + (v2 - v1) ** 2 / 8
    nome = mp.exp(-mp.pi * J0 / I0)
    logq = sum(mp.log(abs((y - x1) * (y - x2))) for y in (-1, v1, v2, 1))
    const = mp.log((1 - v1) * (1 + v2)) / 4 - logq / 8 + 2 * widom_dyson()
    th0 = mp.jtheta(3, 0, nome)
    out = []
    for s in svals:
        s = mp.mpf(s)
        th = mp.jtheta(3, mp.pi * s / I0, nome)
        out.append(-s * s * G0 - mp.log(s) / 2 + mp.log(th / th0) + const)
    return out


def _merging_params(v1, v2):
    v1, v2 = mp.mpf(v1), mp.mpf(v2)
    mid = (v1 + v2) / 2
    alpha, beta = -(1 + mid), 1 - mid
    gamma = (1 / beta + 1 / abs(alpha)) / 8
    nu = (v2 - v1) / 2
    return nu, alpha, beta, gamma, mp.log(1 / (gamma * nu))


def _nearest_frac(x):
    return x - mp.ceil(x - mp.mpf(1) / 2)


def _kappa(j: int):
    if j == -1:
        return mp.mpf(0)
    return (mp.mpf(4) ** (-j - mp.mpf(1) / 2) * mp.sqrt(2 * j + 1)
            * mp.factorial(2 * j) / mp.factorial(j) ** 2)


def merging_total(v1, v2, s):
    nu, alpha, beta, gamma, L = _merging_params(v1, v2)
    s = mp.mpf(s)
    root = mp.sqrt(abs(alpha * beta))
    omega0 = s * root / L
    fr = _nearest_frac(omega0)
    k = int(mp.nint(omega0 - fr))
    gn = gamma * nu
    barnes = ((2 * k * k - k) * mp.log(2) - k * mp.log(mp.pi)
              + 4 * mp.log(mp.barnesg(k + 1)) - mp.log(mp.barnesg(2 * k + 1)))
    osc = (mp.log1p(2 * mp.pi * _kappa(k - 1) ** 2 * gn ** (1 + 2 * fr))
           + mp.log1p(gn ** (1 - 2 * fr) / (2 * mp.pi * _kappa(k) ** 2)))
    return (-s * s / 2 + s * root * (omega0 - fr * fr / omega0) - mp.log(s) / 4
            + widom_dyson() + barnes + osc)


def merging_limit_total(v1, v2, s):
    nu, alpha, beta, gamma, L = _merging_params(v1, v2)
    s = mp.mpf(s)
    ab = abs(alpha * beta)
    fr = _nearest_frac(s * mp.sqrt(ab) / L)
    return (s * s * (-mp.mpf(1) / 2 + ab / L) - mp.log(s) / 2 + mp.log(L) / 4
            - fr * fr * L + mp.log1p((gamma * nu) ** (1 - 2 * abs(fr)))
            - mp.log(ab) / 8 + 2 * widom_dyson())


def asymp_reference(item: dict) -> dict:
    """Per s, the total of every expansion the regime selector may pick."""
    mp.mp.dps = ASYMP_DPS
    v1, v2 = item["v1"], item["v2"]
    mom, quad_err = moments(v1, v2)
    fixed = two_gap_totals(v1, v2, mom, W.ASYMP_S)
    narrow = (v2 - v1) / 2 < 0.05
    ref = []
    for s, tot in zip(W.ASYMP_S, fixed):
        entry = {"FixedTwoGap": float(tot), "Separating": float(tot)}
        if narrow:
            entry["Merging"] = float(merging_total(v1, v2, s))
            entry["MergingLimit"] = float(merging_limit_total(v1, v2, s))
        ref.append(entry)
    return {"ref": ref, "ref_dps": ASYMP_DPS, "ref_quad_rel_err": quad_err}


# ---------------------------------------------------------------- main

def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    (HERE / "refs").mkdir(exist_ok=True)
    meta = {"seed": args.seed, "mpmath": mp.__version__}

    t0 = time.perf_counter()
    rng = W.rng_for("asymp_sweep", args.seed, "pool")
    pool = W.asymp_pairs(rng, ASYMP_PAIRS // 5)
    items = [{**item, **asymp_reference(item)} for item in pool]
    doc = {**meta, "workload": "asymp_sweep", "s_values": list(W.ASYMP_S),
           "quadrature": "mp.quad tanh-sinh, geometric breakpoints 1e-1..1e-6",
           "theta": "mp.jtheta", "items": items, "lacking": [],
           "seconds": time.perf_counter() - t0}
    (HERE / "refs" / "asymp_sweep.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"asymp_sweep: {len(items)} pairs in {doc['seconds']:.0f} s")

    t0 = time.perf_counter()
    rng = W.rng_for("oracle_sweep", args.seed, "pool")
    items, lacking = [], []
    for _ in range(ORACLE_ROUNDS):
        for point in W.oracle_round(rng):
            if point["kind"] == "two_gap" and point["s"] > W.REF_S_MAX:
                lacking.append({**point, "reason": f"two-gap s > {W.REF_S_MAX:g}"})
                items.append(point)
            else:
                items.append({**point, **oracle_reference(point)})
    doc = {**meta, "workload": "oracle_sweep", "method": "Nystrom, mp Gauss nodes, mp.det",
           "items": items, "lacking": lacking, "seconds": time.perf_counter() - t0}
    (HERE / "refs" / "oracle_sweep.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"oracle_sweep: {len(items) - len(lacking)} of {len(items)} points "
          f"referenced in {doc['seconds']:.0f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
