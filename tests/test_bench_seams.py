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

from stripcap.flow import GridSpec, horizontal_slit_map, stream_grid
from stripcap.geometry import BoundaryParametrization
from stripcap.kernels import KernelSet
from stripcap.solver import solve_bie

# run_path reads the file without importing pipebench or writing bytecode
LAYERS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "pipebench" / "layers.py")
)

# The spans that a stream_grid call must reach: the benchmark's
# flow-channel-n512 workload reports their metrics missing otherwise.
FLOW_PATH = ("stripmap.inverse_map", "stripmap.eval", "solver.cauchy", "geometry.winding")

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


def test_stream_grid_reaches_flow_spans(one_slit_pre):
    ups = horizontal_slit_map(one_slit_pre)
    tracer = LAYERS["Tracer"]()
    tracer.install()
    try:
        stream_grid(one_slit_pre, ups, GridSpec(-2.0, 2.0, -1.0, 1.0, 5, 3))
    finally:
        tracer.uninstall()
    assert tracer.calls["flow.grid"] == 1
    assert not tracer.missing
    assert all(tracer.calls[span] >= 1 for span in FLOW_PATH), dict(tracer.calls)
