"""One benchmark process: import, inputs, warm-up, then the timed loop.

Started by run.py with the BLAS thread cap already in its environment.  It
prints ``READY`` once set-up is done (run.py times set-up up to that line)
and, unless ``--setup-only``, then measures and writes its result to
``--out``.

The loop is closed: one client, one operation at a time, and it stops only
between whole rounds of the input mix.  Timed outputs are classified after
the loop, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

# run.py sets the BLAS thread cap in this process's environment
import numpy

import spec
import workloads as W
from tracer import SITES, Tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# traced operations re-run untraced to check the tracer changes no bit
VERIFY_OPS = 20
# Operation times are divided by the machine's slowdown, measured between
# operations every CAL_EVERY_S of operation time, because other tenants of a
# shared host slow the CPU by up to 1.5x for seconds at a time.  CAL_PY_S
# and CAL_EIG_S are the two calibration kernels' times at full speed on the
# reference machine (a 2-core x86-64 virtual machine), so rescaled times
# read as seconds at that machine's full speed, not as wall time on the
# host that runs the benchmark.
CAL_EVERY_S = 0.1
CAL_ITERS = 20000
CAL_EIG_N = 160
CAL_PY_S = 1.2e-3
CAL_EIG_S = 1.1e-3


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import twingap
    import twingap.asymptotics, twingap.elliptic, twingap.identities  # noqa: E401
    import twingap.oracle, twingap.theta, twingap.two_gap  # noqa: E401
    if pathlib.Path(twingap.__file__).resolve().parent != src / "twingap":
        raise SystemExit(f"imported twingap from {twingap.__file__}, not {src}")
    return twingap


def run_record(args) -> dict:
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}",
            "loop": "closed, 1 client, 1 process, one operation at a time"}


def load_pool(workload: str) -> tuple[list[dict], list[dict]]:
    path = HERE / "refs" / f"{workload}.json"
    if not path.exists():
        return [], []
    doc = json.loads(path.read_text())
    return doc["items"], doc["lacking"]


def slowdown(mat) -> float:
    """The machine's current slowdown against the reference speed.

    Geometric mean of two fixed kernels outside twingap: a pure-Python loop
    and a symmetric eigen-solve, which other tenants slow by different
    amounts.  1.0 is full speed on the reference machine.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERS):
        acc += i * i % 7
    t1 = time.perf_counter()
    numpy.linalg.eigvalsh(mat)
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) / CAL_PY_S * (t2 - t1) / CAL_EIG_S)


def calibration_matrix():
    a = numpy.random.default_rng(0).standard_normal((CAL_EIG_N, CAL_EIG_N))
    return a + a.T


def timed_loop(op, items, start, seconds, round_size, mat):
    """Whole rounds from items[start:] until `seconds` have passed.

    Returns (outs, latencies, slowdowns, next index).  The calibration runs
    between operations, outside their timing, once CAL_EVERY_S of them have
    been timed since the last one; each operation's slowdown is the mean of
    the calibrations either side of it.
    """
    outs, lat, cal = [], [], []
    c_prev = slowdown(mat)

    def calibrate():
        nonlocal c_prev
        c_next = slowdown(mat)
        cal.extend([0.5 * (c_prev + c_next)] * (len(lat) - len(cal)))
        c_prev = c_next

    i = start
    t_begin = time.perf_counter()
    since = 0.0
    while i + round_size <= len(items):
        for item in items[i:i + round_size]:
            t0 = time.perf_counter()
            try:
                out, exc = op(item), None
            except Exception as e:  # the operation's failure is a result
                out, exc = None, e
            lat.append(time.perf_counter() - t0)
            outs.append((item, out, exc))
            since += lat[-1]
            if since >= CAL_EVERY_S:
                calibrate()
                since = 0.0
        i += round_size
        if time.perf_counter() - t_begin >= seconds:
            break
    if len(cal) < len(lat):
        calibrate()
    return outs, lat, cal, i


def normalized(lat, cal) -> list[float]:
    """Latencies rescaled to the reference machine speed."""
    return [t / c for t, c in zip(lat, cal)]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def run_probe(wl, fn, tg, item) -> dict:
    """One untimed operation on a known defect; its class is not counted."""
    try:
        out, exc = fn(tg, item), None
    except Exception as e:
        out, exc = None, e
    c = W.classify(wl, item, out, exc)
    return {"cls": c["cls"], "why": c["why"], "out": canon(exc if exc else out)}


def canon(x):
    """A form of an operation's output in which equal means equal bits."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    if isinstance(x, (list, tuple)):
        return [canon(y) for y in x]
    if isinstance(x, BaseException):
        return f"{type(x).__name__}: {x}"
    return x


def class_counts(classes: list[dict]) -> dict:
    out = {"correct": 0, "flagged": 0, "failed": 0, "why": {}}
    for c in classes:
        out[c["cls"]] += 1
        key = f"{c['cls']}:{c['why']}"
        out["why"][key] = out["why"].get(key, 0) + 1
    return out


def accuracy(classes: list[dict]) -> tuple[float, int]:
    """Fewest correct digits among unflagged results, over referenced ones."""
    digits = [c["digits"] for c in classes if c.get("digits") is not None]
    return (min(digits) if digits else 0.0), len(digits)


def end_to_end(classes, lat_raw, cal) -> dict:
    n = len(classes)
    counts = class_counts(classes)
    lat = normalized(lat_raw, cal)
    value, pct = tail(lat)
    digits, n_ref = accuracy(classes)
    return {
        "values": {
            "ops_per_s": n / sum(lat),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": 1e3 * value,
            "ok_share": (counts["correct"] + counts["flagged"]) / n,
            "digits_min": digits,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "raw": {"ops_per_s": n / sum(lat_raw),
                "latency_p50_ms": 1e3 * statistics.median(lat_raw),
                "latency_tail_ms": 1e3 * tail(lat_raw)[0],
                "slowdown_min_median_max": [min(cal), statistics.median(cal), max(cal)]},
        "latency_tail_percentile": pct, "n": n, "digits_referenced": n_ref,
        "classes": counts,
    }


def per_layer(tracer: Tracer, classes, traced, untraced, setup_leggauss, regimes) -> dict:
    """Every per-layer figure the tracer yields; run.py keeps those BENCHMARK.json names."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    m = {}
    for name in SITES:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["elliptic.quad_nodes"] = counts["elliptic.quad_nodes"]
    m["elliptic.budget_calls"] = counts["elliptic.budget_calls"]
    for layer in ("elliptic", "oracle", "identities"):
        m[f"{layer}.leggauss_s"] = self_s.get(f"{layer}.leggauss", 0.0)
    m["elliptic.leggauss_setup_s"] = setup_leggauss
    n_theta = calls["theta.theta_eval"]
    m["theta.transform_share"] = counts["theta.transform_calls"] / n_theta if n_theta else 0.0
    n_sel = calls["asymptotics.select_regime"]
    for r in regimes:
        m[f"asymptotics.regime_share.{r}"] = (counts[f"asymptotics.regime.{r}"] / n_sel
                                              if n_sel else 0.0)
    fred = tracer.fredholm_ms
    n_fred = calls["oracle.fredholm_logdet"]
    m["oracle.fredholm_logdet.p50_ms"] = statistics.median(fred) if fred else 0.0
    m["oracle.fredholm_logdet.tail_ms"] = tail(fred)[0] if fred else 0.0
    passes = calls["oracle.nystrom_eigenvalues"]
    m["oracle.useful_pass_ratio"] = n_fred / passes if passes else 0.0
    m["oracle.final_nodes_max"] = counts["oracle.final_nodes_max"]
    m["oracle.eig_ops"] = counts["oracle.eig_ops"]
    m["oracle.matrix_bytes"] = counts["oracle.matrix_bytes"]
    m["oracle.flagged_share"] = counts["oracle.flagged"] / n_fred if n_fred else 0.0
    ratios = [c["err_ratio"] for c in classes if "err_ratio" in c]
    m["oracle.err_estimate_ratio_max"] = max(ratios) if ratios else 0.0
    m["identities.checks"] = sum(c.get("checks", 0) for c in classes)
    m["identities.residual_ratio_max"] = max((c.get("ratio_max", 0.0) for c in classes),
                                             default=0.0)
    root = sum(self_s.values())
    m["bench.op.self_s"] = self_s.get("bench.op", 0.0)
    m["trace.ops_per_s_traced"] = traced
    m["trace.ops_per_s_untraced"] = untraced
    m["trace.overhead_share"] = 1.0 - traced / untraced
    m["trace.layer_self_share"] = 1.0 - m["bench.op.self_s"] / root if root else 0.0
    m["trace.spans"] = len(tracer.spans)
    return m


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=W.OPS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    wl = args.workload

    tg = import_program()
    mat = calibration_matrix()
    pool, lacking = load_pool(wl)
    items = W.stream(wl, args.seed, pool, W.STREAM_LEN[wl])
    warm = W.warmup(wl, args.seed)
    fn = W.OPS[wl]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(tg)
    for item in warm:
        try:
            fn(tg, item)
        except Exception:  # warm-up only fills caches; failures show when timed
            pass
    setup_leggauss = tracer.self_s.get("elliptic.leggauss", 0.0) if tracer else 0.0
    if tracer:
        tracer.reset()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    record = run_record(args)
    rnd = W.ROUND[wl]
    result = {"record": record, "lacking_references": lacking}
    if not tracer:
        outs, lat, cal, _ = timed_loop(lambda it: fn(tg, it), items, 0,
                                       args.seconds, rnd, mat)
        classes = [W.classify(wl, *o) for o in outs]
        e2e = end_to_end(classes, lat, cal)
        result.update(e2e)
        result["correct"] = e2e["classes"]["failed"] == 0
    else:
        outs, lat, cal, nxt = timed_loop(lambda it: tracer.run_op(fn, tg, it), items,
                                         0, args.seconds, rnd, mat)
        tracer.uninstall()
        outs_u, lat_u, cal_u, _ = timed_loop(lambda it: fn(tg, it), items, nxt,
                                             args.seconds, rnd, mat)
        mismatches = 0
        for item, out, exc in outs[:VERIFY_OPS]:
            try:
                again = canon(fn(tg, item))
            except Exception as e:
                again = canon(e)
            mismatches += again != canon(out if exc is None else exc)
        classes = [W.classify(wl, *o) for o in outs]
        classes_u = [W.classify(wl, *o) for o in outs_u]
        seen = {**tracer.calls, **{k: v for k, v in tracer.counts.items() if v}}
        missing = [name for name in spec.EXPECTED[wl] if not seen.get(name)]
        if wl == "asymp_sweep" and setup_leggauss <= 0.0:
            missing.append("elliptic.leggauss (warm-up)")
        layers = per_layer(tracer, classes, len(outs) / sum(normalized(lat, cal)),
                           len(outs_u) / sum(normalized(lat_u, cal_u)), setup_leggauss,
                           [r.value for r in tg.asymptotics.Regime])
        spans_path = pathlib.Path(args.out).with_suffix(".spans.csv")
        tracer.write(spans_path)
        all_classes = classes + classes_u
        counts = class_counts(all_classes)
        result.update({
            "per_layer": layers, "classes": counts, "n": len(all_classes),
            "trace_summary": tracer.summary(), "spans_file": spans_path.name,
            "verify": {"checked": min(VERIFY_OPS, len(outs)), "mismatches": mismatches},
            "expected_missing": missing,
        })
        result["correct"] = counts["failed"] == 0 and mismatches == 0 and not missing
    result["probes"] = [{**item, **run_probe(wl, fn, tg, item)} for item in W.PROBES[wl]]
    pathlib.Path(args.out).write_text(json.dumps(result, indent=1, default=str) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
