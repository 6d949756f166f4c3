"""The package has one implementation, dense numpy, and says so; every
name it exports, and every module attribute its README names, exists."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import stripcap

# absolute, so that the child process imports this package
SRC = str(Path(stripcap.__file__).resolve().parents[1])


class TestEquivalence:
    def test_backend_exported(self):
        assert stripcap.BACKEND == "numpy"


def test_all_names_resolve():
    missing = [name for name in stripcap.__all__ if not hasattr(stripcap, name)]
    assert missing == []


def test_readme_references_resolve():
    # every `module.name` the README names, e.g. `kernels.default_alpha` or
    # `stripcap.solve_bie`, is an attribute of that stripcap module
    modules = {
        m.name: importlib.import_module(f"stripcap.{m.name}")
        for m in pkgutil.iter_modules(stripcap.__path__)
    }
    modules["stripcap"] = stripcap
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    refs = [(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)", text) if mod in modules]
    assert len(refs) >= 14
    missing = [f"{mod}.{name}" for mod, name in refs if not hasattr(modules[mod], name)]
    assert missing == []


def test_import_loads_no_scipy():
    # numpy is the one dependency: scipy is a test-only oracle
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = "import sys, stripcap; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error"),
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_import_starts_no_thread():
    # the pairwise loops start their threads per call and join them before
    # it returns, and import neither concurrent.futures nor logging, which
    # cost set-up time
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, threading, numpy as np, stripcap\n"
        "def state(): print(threading.active_count(), "
        "[m for m in ('concurrent.futures', 'logging') if m in sys.modules])\n"
        "state()\n"
        "stripcap.geometry.WORKERS = 2\n"
        "curve, pts = np.exp(2j * np.pi * np.arange(512) / 512), np.linspace(-2, 2, 5000)\n"
        "assert np.array_equal(stripcap.geometry.winding_number(curve, pts), abs(pts) < 1)\n"
        "state()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error"),
        check=True,
    )
    assert proc.stdout.split() == ["1", "[]"] * 2
