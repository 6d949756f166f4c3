"""The pipeline benchmark's traced seams still exist in the library.

``pipebench/layers.py`` wraps library functions by module and attribute
name and its counters read some of their arguments by name.  A refactor
that renames or removes one of them makes the benchmark report those
per-layer metrics as missing; these tests fail first.
"""

import functools
import importlib
import inspect
import json
import math
import runpy
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import stripcap as sc
from stripcap import geometry
from stripcap.flow import GridSpec, horizontal_slit_map, stream_grid
from stripcap.geometry import BoundaryParametrization
from stripcap.kernels import KernelSet
from stripcap.solver import solve_bie

from conftest import FOUR_SLITS

# run_path reads the file without importing pipebench or writing bytecode
LAYERS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "pipebench" / "layers.py")
)
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# per-layer names that pipebench/worker.py adds next to the tracer's metrics
WORKER_METRICS = {"warnings", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}

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
    sol = solve_bie(KernelSet(bp, np.array([np.pi / 2])), np.cos(3 * t)[None])
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


def test_traced_metrics_complete_and_strict_json(one_slit_pre):
    # a capacity and a flow grid together reach every seam, so every
    # per-layer name of BENCHMARK.json that the tracer gives must be present
    # and finite: a missing name or a NaN/Infinity spoils the result line
    spec = sc.CondenserSpec(sc.StripSlitDomain(FOUR_SLITS), delta=(1.0,) * 4)
    cfg = sc.IterationConfig(n=64, r=0.2, eps=1e-11)
    tracer = LAYERS["Tracer"]()
    t0 = time.perf_counter()
    tracer.install()
    try:
        sc.capacity(spec, cfg)
        ups = horizontal_slit_map(one_slit_pre)
        stream_grid(one_slit_pre, ups, GridSpec(-2.0, 2.0, -1.0, 1.0, 5, 3))
    finally:
        tracer.uninstall()
    values, missing = tracer.metrics(time.perf_counter() - t0)
    assert not missing
    per_layer = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    assert per_layer - WORKER_METRICS <= set(values), sorted(per_layer - WORKER_METRICS - set(values))
    assert all(math.isfinite(v) for v, _ in values.values()), values
    json.dumps(values, allow_nan=False)


def test_seams_run_on_the_main_thread(one_slit_pre, monkeypatch):
    # the tracer keeps one span stack, so no seam may run on a worker thread
    # of the pairwise loops: their bodies call no seam
    monkeypatch.setattr(geometry, "WORKERS", 2)
    threads = {}

    class ThreadTracer(LAYERS["Tracer"]):
        def _wrap(self, span, fn):
            traced = super()._wrap(span, fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                threads.setdefault(span, set()).add(threading.current_thread())
                return traced(*args, **kwargs)

            return wrapper

    spec = sc.CondenserSpec(sc.StripSlitDomain(FOUR_SLITS), delta=(1.0,) * 4)
    cfg = sc.IterationConfig(n=64, r=0.2, eps=1e-11)
    tracer = ThreadTracer()
    tracer.install()
    try:
        sc.capacity(spec, cfg)
        ups = horizontal_slit_map(one_slit_pre)
        # 1200 points make many chunks, so the grid's Cauchy sums and
        # winding numbers start worker threads
        stream_grid(one_slit_pre, ups, GridSpec(-2.0, 2.0, -1.0, 1.0, 40, 30))
    finally:
        tracer.uninstall()
    assert set(threads) == set(LAYERS["SEAMS"])
    assert all(t == {threading.main_thread()} for t in threads.values()), threads
