"""The public surface: the package exports exactly the names listed
here, every name a module exports resolves, and `import twingap` loads
no scipy (the elliptic Gauss rules above 800 nodes import it when
called)."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import twingap

MODULES = sorted(m.name for m in pkgutil.iter_modules(twingap.__path__))

# a new public name is a deliberate edit of this list
PUBLIC_NAMES = [
    "AmbiguousRegimeError", "DerivedGeometry", "DomainError", "EllipticData",
    "ExpansionBreakdown", "GapPair", "IllConditionedGeometryError",
    "OracleResult", "Regime", "ResidualReport", "ThetaContext", "TwinGapError",
    "WIDOM_DYSON_C0", "abel_map", "barnes_g_int",
    "derivative_identity_residuals", "derive_geometry",
    "elliptic_data", "expand", "expansion_merging", "expansion_merging_limit",
    "expansion_one_gap", "expansion_two_gap", "fredholm_logdet", "g1hat",
    "legendre_kappa", "nearest_frac", "period_relation_residual", "run_suite",
    "select_regime", "tail_integral", "theta_eval", "theta_identity_residual",
    "theta_integral_residuals",
]


def test_public_names_are_pinned():
    assert sorted(twingap.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", ["twingap"] + [f"twingap.{m}" for m in MODULES])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_import_loads_no_scipy():
    src = pathlib.Path(twingap.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, twingap; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
