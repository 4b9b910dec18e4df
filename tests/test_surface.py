"""The public surface: every name a module exports resolves, and
`import twingap` loads no scipy (toeplitz_logdet and the elliptic Gauss
rules above 800 nodes import it when called)."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import twingap

MODULES = sorted(m.name for m in pkgutil.iter_modules(twingap.__path__))


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
