"""The benchmark's tracer wraps functions by name at every module that
binds them (perfbench/tracer.py).  A refactor that renames, moves or
re-signs one of them breaks the traced benchmark; these checks fail first.
So does one that stops making a call a workload must make
(perfbench/spec.py EXPECTED), such as a Gauss rule cached across calls.
"""

import importlib
import importlib.util
import inspect
import math
import pathlib

import numpy as np
import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


def _module(name):
    return importlib.import_module(f"twingap.{name}")


@pytest.mark.parametrize("name", sorted(tracer.SITES))
def test_traced_function_bound_at_every_site(name):
    home, attr = name.split(".")
    fn = getattr(_module(home), attr)
    assert callable(fn)
    for site in tracer.SITES[name]:
        # the tracer installs one wrapper of the home function at each site
        assert getattr(_module(site), attr) is fn, f"twingap.{site}.{attr}"


@pytest.mark.parametrize("attr", sorted(tracer.QUAD_SITES))
def test_quadrature_helper_bound_at_every_site(attr):
    fn = getattr(_module("elliptic"), attr)
    for site in tracer.QUAD_SITES[attr]:
        assert getattr(_module(site), attr) is fn, f"twingap.{site}.{attr}"
    assert list(inspect.signature(fn).parameters) == ["f", "a", "b", "n"]
    # positional call, as the tracer's wrapper makes it; the weight-only
    # integrals are pi (both endpoints singular) and 2 (one endpoint)
    want = math.pi if attr == "integrate_both_sqrt" else 2.0
    assert fn(np.ones_like, 0.0, 1.0, 16) == pytest.approx(want, rel=1e-14)


def test_identity_op_makes_every_expected_call():
    # as perfbench/worker.py runs a traced identity_sweep: warm-up, reset,
    # then timed operations, which must make every EXPECTED call; each
    # operation builds its own Gauss rule (none is cached across calls)
    import twingap
    bench_spec, workloads = _load("spec"), _load("workloads")
    wl = "identity_sweep"
    tr = tracer.Tracer()
    tr.install(twingap)
    try:
        for item in workloads.warmup(wl, seed=0):
            workloads.identity_op(twingap, item)
        tr.reset()
        for item in workloads.stream(wl, 0, [], 2):
            tr.run_op(workloads.identity_op, twingap, item)
    finally:
        tr.uninstall()
    seen = {**tr.calls, **{k: v for k, v in tr.counts.items() if v}}
    assert [name for name in bench_spec.EXPECTED[wl] if not seen.get(name)] == []
    assert tr.calls["identities.leggauss"] == 2


# the whole oracle_sweep round, flagged points included (the round-off
# stop ends each by 400 nodes per interval), and asymp_sweep on regular
# and narrow pairs with nu >= 1e-3, whose moments converge before the
# 6400-node budget (the full asymp mix, budget calls included, is the
# next test).  Both still reach every EXPECTED call, expansion_merging
# included (narrow pairs at small s).
SUBSETS = {
    "oracle_sweep": lambda item: True,
    "asymp_sweep": lambda item: (item["kind"] != "edge"
                                 and item["v2"] - item["v1"] >= 2e-3),
}


@pytest.mark.parametrize("wl", sorted(SUBSETS))
def test_traced_subset_makes_every_expected_call(wl):
    # warm-up, reset, then timed operations, as perfbench/worker.py runs a
    # traced workload, on the inputs of one round that SUBSETS keeps
    import twingap
    bench_spec, workloads = _load("spec"), _load("workloads")
    keep, op = SUBSETS[wl], workloads.OPS[wl]
    count = workloads.ROUND[wl] if wl == "oracle_sweep" else 40
    tr = tracer.Tracer()
    tr.install(twingap)
    try:
        for item in filter(keep, workloads.warmup(wl, seed=0)):
            op(twingap, item)
        tr.reset()
        for item in filter(keep, workloads.stream(wl, 0, [], count)):
            tr.run_op(op, twingap, item)
    finally:
        tr.uninstall()
    seen = {**tr.calls, **{k: v for k, v in tr.counts.items() if v}}
    assert [name for name in bench_spec.EXPECTED[wl] if not seen.get(name)] == []
    assert tr.counts["elliptic.budget_calls"] == 0


def test_traced_asymp_mix_builds_a_numpy_rule_in_warm_up():
    # the whole asymp_sweep warm-up, edge and narrow pairs included, then
    # 40 stream operations, as perfbench/worker.py runs a traced workload
    # in a fresh process: so the Gauss rule and geometry caches start empty
    import twingap
    from twingap.elliptic import _half_rule, _leggauss, _sin2_rule
    from twingap.two_gap import derive_geometry
    bench_spec, workloads = _load("spec"), _load("workloads")
    wl = "asymp_sweep"
    for cached in (_leggauss, _sin2_rule, _half_rule, derive_geometry):
        cached.cache_clear()
    tr = tracer.Tracer()
    tr.install(twingap)
    try:
        for item in workloads.warmup(wl, seed=0):
            try:
                workloads.asymp_op(twingap, item)
            except Exception:  # worker.py: failures show when timed
                pass
        # perfbench/worker.py reports a traced asymp run without this span
        # as incorrect; rules above 800 nodes do not come from numpy
        warm_up_leggauss = tr.self_s.get("elliptic.leggauss", 0.0)
        tr.reset()
        for item in workloads.stream(wl, 0, [], 40):
            tr.run_op(workloads.asymp_op, twingap, item)
    finally:
        tr.uninstall()
    seen = {**tr.calls, **{k: v for k, v in tr.counts.items() if v}}
    assert [name for name in bench_spec.EXPECTED[wl] if not seen.get(name)] == []
    assert warm_up_leggauss > 0.0
    # edge and narrow pairs converge by 400 nodes: the 6400-node budget
    # is never reached
    assert tr.counts["elliptic.budget_calls"] == 0
