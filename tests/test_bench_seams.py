"""The pipeline benchmark's traced seams still exist in the library.

``pipebench/layers.py`` wraps library functions by module and attribute
name and its counters read some of their arguments by name.  A refactor
that renames or removes one of them makes the benchmark report those
per-layer metrics as missing; these tests fail first.
"""

import importlib
import inspect
import runpy
from pathlib import Path

import numpy as np
import pytest

from stripcap.geometry import BoundaryParametrization
from stripcap.kernels import KernelSet
from stripcap.solver import solve_bie

# run_path reads the file without importing pipebench or writing bytecode
LAYERS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "pipebench" / "layers.py")
)

# span -> the argument names its counters read
COUNTED_ARGS = {
    "geometry.winding": ("curve", "w"),
    "kernels.matvec": ("x",),
    "solver.cauchy": ("bnodes", "points"),
}


def resolve(span):
    modname, path = LAYERS["SEAMS"][span]
    obj = importlib.import_module(modname)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("span", sorted(LAYERS["SEAMS"]))
def test_seam_resolves_to_callable(span):
    assert callable(resolve(span))


@pytest.mark.parametrize(
    "span, names", sorted(COUNTED_ARGS.items()), ids=sorted(COUNTED_ARGS)
)
def test_counted_arguments_exist(span, names):
    assert span in LAYERS["COUNTERS"]
    params = inspect.signature(resolve(span)).parameters
    assert set(names) <= set(params)


def test_solve_counters_read_result():
    # the solver.solve counters read ``stats.iterations`` and ``h_dev`` off
    # the solve's result
    t = 2 * np.pi * np.arange(32) / 32
    bp = BoundaryParametrization(np.exp(1j * t)[None, :], 1j * np.exp(1j * t)[None, :])
    sol = solve_bie(KernelSet(bp, np.array([np.pi / 2])), np.cos(3 * t))
    assert sol.stats.iterations >= 1
    assert sol.h_dev.shape == (1,)
    for _, _, _, getter in LAYERS["COUNTERS"]["solver.solve"]:
        assert np.isfinite(getter({}, sol))
