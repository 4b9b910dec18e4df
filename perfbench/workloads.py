"""The three benchmark workloads: seeded inputs, one operation, classification.

Inputs are plain floats drawn from ``random.Random`` seeded with a string
(deterministic across processes and hash seeds); twingap objects are built
inside the operation, as the CLI builds them from its arguments.

Every operation ends in exactly one class:

* ``correct``: finished, every value finite, and, where a stored reference
  exists, within the result's own error allowance of it;
* ``flagged``: finished with finite values that the program itself marks
  as unreliable (``OracleResult.unreliable``) or outside validity
  (``ExpansionBreakdown.warnings``);
* ``failed``: raised (``raised``), refused a valid input
  (``refused``: ``AmbiguousRegimeError``), returned a non-finite value
  (``non_finite``), or was unflagged and wrong beyond its own error
  allowance (``wrong``).  Any failed operation makes a run incorrect.

A known defect that would fail every run is kept out of the timed mix and
run once, untimed, as a probe (``PROBES``), so that it still shows.
"""

from __future__ import annotations

import math
import random

# asymp_sweep: 8 s-values, as a user sweeping `twingap asymp` would
ASYMP_S = tuple(2.0 ** k for k in range(1, 9))
# one pool pair (with a stored reference) ahead of every ASYMP_POOL_EVERY fresh pairs
ASYMP_POOL_EVERY = 5
# exact 60/20/20 mix in every block of five pairs
ASYMP_KINDS = ("regular", "regular", "regular", "narrow", "edge")
# relative error above which an unflagged expansion total counts as wrong;
# the moments it is built from claim ~1e-13, so this leaves a 1000x margin
ASYMP_REL_TOL = 1e-10

# oracle_sweep: the `twingap compare` and scripts/run_compare.py points; s=64
# returns NaN today (the eigenvalues reach 1 in double), so it is a probe
ORACLE_TWO_GAP_S = (4.0, 8.0, 16.0, 24.0, 32.0, 40.0, 48.0)
ORACLE_ONE_GAP_S = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
ORACLE_SEPARATED_T = (2.0, 2.5, 3.0)
ORACLE_ROUND = len(ORACLE_TWO_GAP_S) + len(ORACLE_ONE_GAP_S) + len(ORACLE_SEPARATED_T)
# the extended-precision reference stops here for the two-gap family (the
# double oracle's own limit); larger s is recorded as lacking
REF_S_MAX = 40.0

# identity_sweep: the omega values `twingap validate` uses
IDENTITY_OMEGAS = (0.0, 0.37, 0.5)
IDENTITY_U = 0.37

# operations per round: the loop only stops between rounds, so every run
# measures whole rounds of the fixed input mix
ROUND = {"asymp_sweep": 10, "oracle_sweep": ORACLE_ROUND,
         "identity_sweep": 1}


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


# ---------------------------------------------------------------- inputs

def asymp_pair(rng: random.Random, kind: str) -> tuple[float, float]:
    """One gap pair (v1, v2) of the given kind."""
    if kind == "regular":
        while True:
            v1, v2 = sorted((rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)))
            if v2 - v1 >= 0.1:
                return v1, v2
    if kind == "narrow":
        nu = 10.0 ** rng.uniform(-4.0, math.log10(3e-2))
        mid = rng.uniform(-0.7, 0.7)
        return mid - nu, mid + nu
    if kind == "edge":
        delta = 10.0 ** rng.uniform(-4.0, -2.0)
        if rng.random() < 0.5:
            return rng.uniform(-0.8, 0.5), 1.0 - delta
        return -1.0 + delta, rng.uniform(-0.5, 0.8)
    raise ValueError(kind)


def asymp_pairs(rng: random.Random, blocks: int) -> list[dict]:
    out = []
    for _ in range(blocks):
        kinds = list(ASYMP_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            v1, v2 = asymp_pair(rng, kind)
            out.append({"kind": kind, "v1": v1, "v2": v2})
    return out


def oracle_round(rng: random.Random) -> list[dict]:
    """One round: every (geometry, s) family once, with seeded jitter."""
    pts = []
    for s in ORACLE_TWO_GAP_S:
        v1 = -0.5 + rng.uniform(-0.02, 0.02)
        v2 = 0.3 + rng.uniform(-0.02, 0.02)
        pts.append({"kind": "two_gap", "s": s, "v1": v1, "v2": v2,
                    "intervals": [[-1.0, v1], [v2, 1.0]]})
    for k in ORACLE_ONE_GAP_S:
        s = k + rng.uniform(-0.1, 0.1)
        pts.append({"kind": "one_gap", "s": s, "intervals": [[-1.0, 1.0]]})
    for t in ORACLE_SEPARATED_T:
        # scripts/run_compare.py: s = 2 t w, gaps of length 2t/s = 1/w at +-1
        w = 20.0 + rng.uniform(-1.0, 1.0)
        s = 2.0 * t * w
        eps = 2.0 * t / s
        pts.append({"kind": "separated", "s": s, "t": t,
                    "intervals": [[-1.0, -1.0 + eps], [1.0 - eps, 1.0]]})
    rng.shuffle(pts)
    return pts


def identity_pair(rng: random.Random) -> tuple[float, float]:
    """An interior pair from the box the fine validation grid spans."""
    while True:
        v1 = rng.uniform(-0.9, -0.05)
        v2 = rng.uniform(-0.1, 0.85)
        if v2 - v1 >= 0.2:
            return v1, v2


def stream(workload: str, seed: int, pool: list[dict], count: int) -> list[dict]:
    """The timed inputs, in order.  Pool items carry a stored reference."""
    rng = rng_for(workload, seed, "timed")
    order = list(pool)
    rng.shuffle(order)
    if workload == "asymp_sweep":
        fresh = asymp_pairs(rng, -(-count // 5))
        out, it = [], iter(order)
        for i, item in enumerate(fresh):
            if i % ASYMP_POOL_EVERY == 0:
                ref = next(it, None)
                if ref is not None:
                    out.append(ref)
            out.append(item)
        return out[:count]
    if workload == "oracle_sweep":
        # pool rounds first, so every run checks all of them
        out = list(order)
        while len(out) < count:
            out.extend(oracle_round(rng))
        return out
    if workload == "identity_sweep":
        out = []
        for _ in range(count):
            v1, v2 = identity_pair(rng)
            out.append({"v1": v1, "v2": v2})
        return out
    raise ValueError(workload)


def warmup(workload: str, seed: int) -> list[dict]:
    """Inputs for the warm-up, drawn from their own stream.

    Five pairs of every asymp kind: about 60% of edge and 35% of narrow
    pairs exhaust the elliptic node budget today, so the warm-up builds
    every Gauss rule the timed loop can ask for.
    """
    rng = rng_for(workload, seed, "warmup")
    if workload == "asymp_sweep":
        return asymp_pairs(rng, 5)
    if workload == "oracle_sweep":
        return oracle_round(rng)
    if workload == "identity_sweep":
        return [{"v1": v1, "v2": v2} for v1, v2 in (identity_pair(rng),
                                                     identity_pair(rng))]
    raise ValueError(workload)


STREAM_LEN = {"asymp_sweep": 60000, "oracle_sweep": 40 * ORACLE_ROUND,
              "identity_sweep": 3000}

# untimed probes run once after the timed loop; their class is reported
# beside the result and not counted in it
PROBES = {"asymp_sweep": [], "identity_sweep": [],
          "oracle_sweep": [{"kind": "two_gap", "s": 64.0, "v1": -0.5, "v2": 0.3,
                            "intervals": [[-1.0, -0.5], [0.3, 1.0]]}]}


# ---------------------------------------------------------------- operations

def asymp_op(tg, item):
    """select_regime and the expansion it picks, at every s (`twingap asymp`)."""
    A = tg.asymptotics
    gap = tg.elliptic.GapPair(item["v1"], item["v2"])
    out = []
    for s in ASYMP_S:
        regime, _ = A.select_regime(s, gap)
        if regime in (A.Regime.FIXED_TWO_GAP, A.Regime.SEPARATING):
            b = A.expansion_two_gap(s, gap)
        elif regime is A.Regime.MERGING:
            b = A.expansion_merging(s, gap)
        elif regime is A.Regime.MERGING_LIMIT:
            b = A.expansion_merging_limit(s, gap)
        else:
            b = A.expansion_one_gap(s)
        out.append((regime.value, b.total, bool(b.warnings)))
    return out


def oracle_op(tg, item):
    """One expansion plus the Nystrom determinant (`twingap compare`)."""
    A = tg.asymptotics
    s = item["s"]
    if item["kind"] == "two_gap":
        expansion = A.expansion_two_gap(s, tg.elliptic.GapPair(item["v1"], item["v2"])).total
    elif item["kind"] == "one_gap":
        expansion = A.expansion_one_gap(s).total
    else:
        t = item["t"]
        expansion = -t * t - 0.5 * math.log(t) + 2.0 * A.WIDOM_DYSON_C0
    res = tg.oracle.fredholm_logdet(s, [tuple(iv) for iv in item["intervals"]])
    return (expansion, res.log_det, res.error_estimate, res.unreliable,
            res.nodes_per_interval)


def identity_op(tg, item):
    """Every evaluator `twingap validate --suite all --grid fine` runs, on one pair."""
    I = tg.identities
    gap = tg.elliptic.GapPair(item["v1"], item["v2"])
    geom = tg.two_gap.derive_geometry(gap)
    reports = []
    for which in "abcdefg":
        for om in (IDENTITY_OMEGAS if which == "a" else IDENTITY_OMEGAS[:1]):
            reports.append(I.theta_identity_residual(which, gap, om, geom))
    reports.append(I.period_relation_residual(gap))
    frac = tg.two_gap.abel_map(math.inf, gap, geom) + geom.d
    reports.append(I.ResidualReport("abel_infinity", abs(frac - round(frac.real)),
                                    {}, I.TOLERANCES["abel_const"]))
    reports.extend(I.derivative_identity_residuals(gap, omega=IDENTITY_OMEGAS[1]))
    reports.append(I.ResidualReport("g1hat", abs(I.g1hat(gap) + 0.5), {},
                                    I.TOLERANCES["g1hat"]))
    reports.extend(I.theta_integral_residuals(geom.theta_context(), geom.d, IDENTITY_U))
    return [(r.identity_id, r.residual, r.tolerance) for r in reports]


OPS = {"asymp_sweep": asymp_op, "oracle_sweep": oracle_op,
       "identity_sweep": identity_op}


# ---------------------------------------------------------------- classification

def _digits(err: float, scale: float) -> float:
    """Correct significant digits of a value off by err, 0 to 17."""
    rel = abs(err) / max(abs(scale), 1e-300)
    if not math.isfinite(rel):
        return 0.0
    return 17.0 if rel <= 1e-17 else min(17.0, -math.log10(rel))


def classify(workload: str, item: dict, out, exc: BaseException | None) -> dict:
    """{"cls", "why", "digits" (None when unreferenced or flagged), ...}."""
    if exc is not None:
        why = "refused" if type(exc).__name__ == "AmbiguousRegimeError" else "raised"
        return {"cls": "failed", "why": f"{why}:{type(exc).__name__}", "digits": None}
    return _CLASSIFY[workload](item, out)


def _classify_asymp(item, out):
    totals = [t for _, t, _ in out]
    if not all(math.isfinite(t) for t in totals):
        return {"cls": "failed", "why": "non_finite", "digits": None}
    if any(flag for _, _, flag in out):
        return {"cls": "flagged", "why": "warning", "digits": None}
    ref = item.get("ref")
    if ref is None:
        return {"cls": "correct", "why": "unreferenced", "digits": None}
    digits = 17.0
    for (regime, total, _), r in zip(out, ref):
        want = r.get(regime)
        if want is None:
            return {"cls": "failed", "why": f"wrong:no_reference_for_{regime}",
                    "digits": None}
        digits = min(digits, _digits(total - want, max(1.0, abs(want))))
    if digits < -math.log10(ASYMP_REL_TOL):
        return {"cls": "failed", "why": "wrong", "digits": digits}
    return {"cls": "correct", "why": "referenced", "digits": digits}


def _classify_oracle(item, out):
    expansion, log_det, err_est, unreliable, nodes = out
    base = {"nodes": nodes, "s": item["s"], "kind": item["kind"]}
    if not (math.isfinite(expansion) and math.isfinite(log_det)):
        return {**base, "cls": "failed", "why": "non_finite", "digits": None}
    if unreliable:
        return {**base, "cls": "flagged", "why": "unreliable", "digits": None}
    ref = item.get("ref")
    if ref is None:
        return {**base, "cls": "correct", "why": "unreferenced", "digits": None}
    err = abs(log_det - ref)
    # round-off allowance of a sum of N log(1 - lambda) terms in double
    allowance = err_est + 1e-13 * max(1.0, abs(ref))
    digits = _digits(err, ref)
    # |true error| / error_estimate, where the estimate is not 0
    if err_est > 0.0:
        base["err_ratio"] = err / err_est
    if err > allowance:
        return {**base, "cls": "failed", "why": "wrong", "digits": digits}
    return {**base, "cls": "correct", "why": "referenced", "digits": digits}


def _classify_identity(item, out):
    if not all(math.isfinite(res) for _, res, _ in out):
        return {"checks": len(out), "cls": "failed", "why": "non_finite", "digits": None}
    worst = max(res / tol for _, res, tol in out)
    digits = min(_digits(res, 1.0) for _, res, _ in out)
    base = {"checks": len(out), "ratio_max": worst, "digits": digits}
    if worst >= 1.0:
        return {**base, "cls": "failed", "why": "wrong"}
    return {**base, "cls": "correct", "why": "residuals"}


_CLASSIFY = {"asymp_sweep": _classify_asymp, "oracle_sweep": _classify_oracle,
             "identity_sweep": _classify_identity}
