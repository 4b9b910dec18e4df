"""Spans and counters recorded from outside twingap, at every import site.

A function imported with ``from .x import f`` is a separate binding in each
importing module, so one wrapper per function is installed under every
name that calls go through.  Spans are kept in memory as tuples
``(op, span, parent, name, start, end)`` and written out at exit; a span's
self time is its duration minus the time its child spans cover.
``numpy.polynomial.legendre.leggauss`` is named after the layer whose span
called it (``elliptic``, ``oracle`` or ``identities``).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# function name -> the modules (under twingap) that bind it
SITES = {
    "elliptic.elliptic_data": ("elliptic", "two_gap", "identities"),
    "elliptic.tail_integral": ("elliptic", "two_gap"),
    "two_gap.derive_geometry": ("two_gap", "asymptotics", "identities"),
    "two_gap.abel_map": ("two_gap",),
    "theta.theta_eval": ("theta", "asymptotics", "identities"),
    "asymptotics.select_regime": ("asymptotics",),
    "asymptotics.expansion_two_gap": ("asymptotics",),
    "asymptotics.expansion_merging": ("asymptotics",),
    "asymptotics.expansion_merging_limit": ("asymptotics",),
    "asymptotics.expansion_one_gap": ("asymptotics",),
    "oracle.fredholm_logdet": ("oracle",),
    "oracle.nystrom_eigenvalues": ("oracle",),
    "identities.theta_identity_residual": ("identities",),
    "identities.period_relation_residual": ("identities",),
    "identities.g1hat": ("identities",),
    "identities.derivative_identity_residuals": ("identities",),
    "identities.theta_integral_residuals": ("identities",),
}
# quadrature helpers: counted (nodes per call), not spanned
QUAD_SITES = {f"integrate_{side}_sqrt": ("elliptic", "two_gap")
              for side in ("both", "left", "right")}
BUDGET_NODES = 6400


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []   # [span id, name, start, child seconds]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.fredholm_ms: list[float] = []
        self.op = -1
        self._patches: list[tuple] = []

    # -- spans

    def _run(self, name, fn, args, kwargs):
        sid = len(self.spans) + len(self.stack)
        parent = self.stack[-1][0] if self.stack else -1
        frame = [sid, name, 0.0, 0.0]
        self.stack.append(frame)
        t0 = frame[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.self_s[name] += dur - frame[3]
            if self.stack:
                self.stack[-1][3] += dur
            self.spans.append((self.op, sid, parent, name, t0, t1))

    def run_op(self, fn, *args):
        """One benchmark operation: the root span of everything it calls."""
        self.op += 1
        return self._run("bench.op", fn, args, {})

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._run(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- counters at the boundaries

    def _after_theta(self, args, kwargs, result):
        ctx = args[2] if len(args) > 2 else kwargs["ctx"]
        if abs(ctx.nome) > 0.5:
            self.counts["theta.transform_calls"] += 1

    def _after_regime(self, args, kwargs, result):
        self.counts[f"asymptotics.regime.{result[0].value}"] += 1

    def _after_fredholm(self, args, kwargs, result):
        self.fredholm_ms.append(1e3 * (self.spans[-1][5] - self.spans[-1][4]))
        self.counts["oracle.flagged"] += bool(result.unreliable)
        self.counts["oracle.final_nodes_max"] = max(
            self.counts["oracle.final_nodes_max"], result.nodes_per_interval)

    def _after_nystrom(self, args, kwargs, result):
        size = len(result)
        self.counts["oracle.eig_ops"] += size ** 3
        self.counts["oracle.matrix_bytes"] += 8 * size * size

    def _quad(self, fn):
        @functools.wraps(fn)
        def wrapper(f, a, b, n):
            self.counts["elliptic.quad_nodes"] += n
            self.counts["elliptic.budget_calls"] += n == BUDGET_NODES
            return fn(f, a, b, n)
        return wrapper

    def _leggauss(self, fn):
        @functools.wraps(fn)
        def wrapper(n):
            layer = self.stack[-1][1].split(".")[0] if self.stack else "bench"
            return self._run(f"{layer}.leggauss", fn, (n,), {})
        return wrapper

    # -- installation

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self, tg):
        """Wrap every site listed above; ``tg`` is the imported package."""
        import numpy.polynomial.legendre as legendre
        after = {"theta.theta_eval": self._after_theta,
                 "asymptotics.select_regime": self._after_regime,
                 "oracle.fredholm_logdet": self._after_fredholm,
                 "oracle.nystrom_eigenvalues": self._after_nystrom}
        for name, sites in SITES.items():
            home, attr = name.split(".")
            wrapper = self._spanned(name, getattr(getattr(tg, home), attr), after.get(name))
            for mod in sites:
                self._patch(getattr(tg, mod), attr, wrapper)
        for attr, sites in QUAD_SITES.items():
            wrapper = self._quad(getattr(tg.elliptic, attr))
            for mod in sites:
                self._patch(getattr(tg, mod), attr, wrapper)
        self._patch(legendre, "leggauss", self._leggauss(legendre.leggauss))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results

    def reset(self):
        """Forget everything recorded so far (the warm-up), keep the wrappers."""
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.fredholm_ms.clear()
        self.op = -1

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{op},{sid},{parent},{name},{t0!r},{t1!r}\n")

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "spans": len(self.spans)}
