#!/usr/bin/env python3
"""The twingap benchmark: one command, three closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload asymp_sweep --seed 1 --seconds 10 --trace 0

Workload and metric names, units and the default run length come from
BENCHMARK.json at the root of the checkout.  With ``--trace 0`` it starts
SETUP_SAMPLES fresh interpreters, times each from start to the end of its
warm-up, and lets the last one run the timed loop; it prints every
end-to-end metric.  With ``--trace 1`` a single process runs the loop
traced, then untraced for the same length, and prints every per-layer
metric, the tracing overhead among them.  Known defects kept out of the
timed mix are run once, untimed, and printed as probes.  The last line of
standard output is the JSON result; the full record, and the spans of a
traced run, are written under perfbench/out/.

BLAS threads are capped at min(2, nproc) before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import spec

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "TWIN_GAP_THREADS")
# per child process; run.py must finish within 180 s in all
CHILD_TIMEOUT_S = 170


def spawn(args, cap, out, setup_only):
    """Start a worker; return (process, seconds until it printed READY)."""
    env = dict(os.environ, **{v: str(cap) for v in BLAS_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker failed during set-up: {line!r}")
    return proc, setup


def finish(proc):
    try:
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="twingap benchmark")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "twingap" / "__init__.py").is_file():
        print(f"error: no twingap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cap = min(2, len(os.sched_getaffinity(0)))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"

    setups = []
    if not args.trace:
        for _ in range(spec.SETUP_SAMPLES - 1):
            proc, setup = spawn(args, cap, out, setup_only=True)
            finish(proc)
            setups.append(setup)
    proc, setup = spawn(args, cap, out, setup_only=False)
    setups.append(setup)
    finish(proc)
    result = json.loads(out.read_text())
    result["setup_s_samples"] = setups
    out.write_text(json.dumps(result, indent=1) + "\n")

    rec = result["record"]
    print("run " + " ".join(f"{k}={v}" for k, v in rec.items()))
    classes = result["classes"]
    print(f"classes attempted={result['n']} correct={classes['correct']} "
          f"flagged={classes['flagged']} failed={classes['failed']} "
          + " ".join(f"{k}={v}" for k, v in sorted(classes["why"].items())))
    lacking = result["lacking_references"]
    if lacking:
        print(f"references lacking for {len(lacking)} pool points: "
              + ", ".join(sorted({pt['reason'] for pt in lacking})))
    for probe in result["probes"]:
        print(f"probe (untimed, not counted) {probe['kind']} s={probe['s']:g} "
              f"{probe['intervals']}: {probe['cls']}:{probe['why']} -> {probe['out']}")
    if args.trace:
        print(f"tracer verify: {result['verify']}, expected calls missing: "
              f"{result['expected_missing']}, spans in {result['spans_file']}")
        vals, table = result["per_layer"], bench["per_layer"]
    else:
        vals = dict(result["values"], setup_s=statistics.median(setups))
        print(f"latency_tail_ms is p{result['latency_tail_percentile']:.2f} of "
              f"n={result['n']}; digits_min over {result['digits_referenced']} "
              f"referenced results; setup_s median of {len(setups)}")
        table = bench["end_to_end"]
    metrics = {m["name"]: {"value": vals[m["name"]], "unit": m["unit"]} for m in table}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": bool(result["correct"]), "attempted": result["n"],
                      "failed": classes["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
