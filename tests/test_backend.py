"""The package has one implementation, dense numpy, and says so; every
name it exports exists."""

import os
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


def test_import_loads_no_scipy():
    # numpy is the one dependency: scipy is a test-only oracle
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = "import sys, stripcap; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert proc.stdout.strip() == "[]"
