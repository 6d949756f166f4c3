"""Outside-in per-layer trace of the stripcap pipeline.

The tracer wraps public stripcap functions in the loaded modules (the
library on disk is not changed) and records, for every call, its duration
and the duration of the wrapped calls made inside it.  A span's self time
is its duration minus its child spans; the self times of all spans plus the
time outside any span (``trace.remainder_s``) add up to the traced wall
time exactly.

Layers are named after stripcap's modules.  A seam that no longer exists
(a wrapped function renamed or removed) makes the metrics built on it
missing, by name; they are never reported as zero.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# span -> (module, attribute path) of the wrapped callable
SEAMS = {
    "geometry.boundary": ("stripcap.geometry", "build_preimage_boundary"),
    "geometry.winding": ("stripcap.geometry", "winding_number"),
    "kernels.assemble": ("stripcap.kernels", "KernelSet.__init__"),
    "kernels.matvec": ("stripcap.kernels", "KernelSet.apply_I_minus_N"),
    "kernels.apply_M": ("stripcap.kernels", "KernelSet.apply_M"),
    "solver.solve": ("stripcap.solver", "solve_bie"),
    "solver.cauchy": ("stripcap.solver", "cauchy_eval"),
    "stripmap.build_map": ("stripcap.stripmap", "build_map"),
    "stripmap.extract": ("stripcap.stripmap", "extract_slit_images"),
    "stripmap.inverse_map": ("stripcap.stripmap", "inverse_map"),
    "stripmap.eval": ("stripcap.stripmap", "MapData.eval"),
    "preimage.iterate": ("stripcap.preimage", "iterate"),
    "capacity.charges": ("stripcap.capacity", "charges_from_boundary"),
    "flow.hmap": ("stripcap.flow", "horizontal_slit_map"),
    "flow.grid": ("stripcap.flow", "stream_grid"),
}

# The metric that carries each span's self time.  Leaf spans have no
# traced children, so for them self time is the whole call.
SELF_METRIC = {
    "geometry.boundary": "geometry.boundary_self_s",
    "geometry.winding": "geometry.winding_s",
    "kernels.assemble": "kernels.assemble_self_s",
    "kernels.matvec": "kernels.matvec_s",
    "kernels.apply_M": "kernels.apply_M_s",
    "solver.solve": "solver.self_s",
    "solver.cauchy": "solver.cauchy_s",
    "stripmap.build_map": "stripmap.build_map_self_s",
    "stripmap.extract": "stripmap.extract_s",
    "stripmap.inverse_map": "stripmap.inverse_map_self_s",
    "stripmap.eval": "stripmap.eval_self_s",
    "preimage.iterate": "preimage.self_s",
    "capacity.charges": "capacity.charges_self_s",
    "flow.hmap": "flow.hmap_self_s",
    "flow.grid": "flow.grid_self_s",
}

# Inclusive durations (span plus its children) worth reporting on their own.
INCLUSIVE_METRIC = {
    "geometry.boundary": "geometry.boundary_s",
    "kernels.assemble": "kernels.assemble_s",
    "stripmap.inverse_map": "stripmap.inverse_map_s",
    "stripmap.eval": "stripmap.eval_s",
    "capacity.charges": "capacity.charges_s",
    "flow.hmap": "flow.hmap_s",
    "flow.grid": "flow.grid_s",
}

# Counters read from a span's bound arguments and its result:
# span -> [(counter, unit, "sum" | "max", getter)].  A getter that raises marks
# its counter missing: the seam changed shape.
COUNTERS = {
    "geometry.winding": [
        ("geometry.winding_pairs", "count", "sum",
         lambda a, r: np.size(a["curve"]) * np.size(a["w"])),
    ],
    "kernels.assemble": [
        # every array the KernelSet keeps (N, M1, A, ...)
        ("kernels.stored_bytes", "B", "max",
         lambda a, r: sum(getattr(v, "nbytes", 0) for v in vars(a["self"]).values())),
    ],
    "kernels.matvec": [
        # computed, not measured: a dense real N x N matvec reads 8 N^2 bytes
        ("kernels.matvec_bytes", "B", "sum", lambda a, r: 8 * np.size(a["x"]) ** 2),
    ],
    "solver.solve": [
        ("solver.krylov_iters", "count", "sum", lambda a, r: r.stats.iterations),
        ("solver.h_dev_max", "1", "max", lambda a, r: float(np.max(r.h_dev))),
    ],
    "solver.cauchy": [
        ("solver.cauchy_pairs", "count", "sum",
         lambda a, r: np.size(a["bnodes"]) * np.size(a["points"])),
    ],
    "preimage.iterate": [
        ("preimage.outer_iters", "count", "sum", lambda a, r: r.iterations),
    ],
    "flow.grid": [
        ("flow.grid_points", "count", "sum", lambda a, r: r.psi_values.size),
        ("flow.grid_failures", "count", "sum", lambda a, r: r.failures),
    ],
}


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: name -> (unit, spans it needs, counters it needs, value)
def _metric_table():
    table = {}
    for span, name in SELF_METRIC.items():
        table[name] = ("s", [span], [], lambda t, s=span: t.self_time[s])
    for span, name in INCLUSIVE_METRIC.items():
        table[name] = ("s", [span], [], lambda t, s=span: t.total[s])
    for span, counters in COUNTERS.items():
        for name, unit, _, _ in counters:
            table[name] = (unit, [span], [name], lambda t, c=name: t.counters[c])
    table.update({
        "geometry.boundary_calls": (
            "count", ["geometry.boundary"], [],
            lambda t: t.calls["geometry.boundary"]),
        "kernels.assemblies": (
            "count", ["kernels.assemble"], [],
            lambda t: t.calls["kernels.assemble"]),
        "kernels.assemble_ms": (
            "ms", ["kernels.assemble"], [],
            lambda t: 1e3 * _ratio(t.total["kernels.assemble"], t.calls["kernels.assemble"])),
        "kernels.matvecs": (
            "count", ["kernels.matvec"], [], lambda t: t.calls["kernels.matvec"]),
        "kernels.matvec_gbs": (
            "GB/s", ["kernels.matvec"], ["kernels.matvec_bytes"],
            lambda t: 1e-9 * _ratio(t.counters["kernels.matvec_bytes"],
                                    t.self_time["kernels.matvec"])),
        "kernels.apply_M_calls": (
            "count", ["kernels.apply_M"], [], lambda t: t.calls["kernels.apply_M"]),
        "solver.solves": (
            "count", ["solver.solve"], [], lambda t: t.calls["solver.solve"]),
        "solver.matvecs_per_krylov": (
            "ratio", ["kernels.matvec", "solver.solve"], ["solver.krylov_iters"],
            lambda t: _ratio(t.calls["kernels.matvec"], t.counters["solver.krylov_iters"])),
        "capacity.charge_solves": (
            "count", ["solver.solve", "capacity.charges"], [],
            lambda t: t.counters["capacity.charge_solves"]),
    })
    return table


METRICS = _metric_table()


class Tracer:
    """Span recorder; ``install`` wraps the seams, ``uninstall`` restores."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.missing = {}  # span or counter -> reason
        self.root_time = 0.0  # summed duration of spans with no parent
        self._stack = []  # [span, seconds spent in child spans] per open span
        self._patches = []

    def install(self):
        for span, (modname, path) in SEAMS.items():
            try:
                module = importlib.import_module(modname)
                owner, attr = module, path
                if "." in path:
                    cls, attr = path.split(".")
                    owner = getattr(module, cls)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[span] = f"seam {modname}.{path} not found ({exc})"
                continue
            wrapper = self._wrap(span, original)
            if owner is not module:
                self._patch(owner, attr, wrapper)
                continue
            # rebind every module-level reference, including the names that
            # other modules (the library's and the benchmark's) imported with
            # ``from stripcap.flow import stream_grid`` and the like
            for mod in list(sys.modules.values()):
                for key, val in list(getattr(mod, "__dict__", {}).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span, fn):
        counters = COUNTERS.get(span, [])
        sig = inspect.signature(fn)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                else:
                    self.root_time += dt
                self.calls[span] += 1
                self.total[span] += dt
                self.self_time[span] += dt - frame[1]
            if span == "solver.solve" and any(f[0] == "capacity.charges" for f in stack):
                self.counters["capacity.charge_solves"] += 1
            if counters:
                self._count(counters, sig, args, kwargs, result)
            return result

        return wrapper

    def _count(self, counters, sig, args, kwargs, result):
        try:
            bound = sig.bind(*args, **kwargs).arguments
        except TypeError:
            bound = {}  # the getters that need arguments report missing
        for name, _, how, get in counters:
            if name in self.missing:
                continue
            try:
                value = get(bound, result)
            except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
                self.missing[name] = f"counter unreadable ({exc!r})"
                continue
            if how == "sum":
                self.counters[name] += value
            else:
                self.counters[name] = max(self.counters[name], value)

    def metrics(self, wall_s, unreached=()):
        """(values, missing): every per-layer metric this trace can give,
        keyed by name as (value, unit), and the missing ones with reasons.

        A span outside ``unreached`` that was never called has moved off
        the pipeline's path, so its metrics are missing too, not zero."""
        for span in SEAMS:
            if span not in unreached and span not in self.missing and not self.calls[span]:
                self.missing[span] = f"span {span} never called"
        values, missing = {}, {}
        for name, (unit, spans, counters, get) in METRICS.items():
            why = [self.missing[d] for d in spans + counters if d in self.missing]
            if why:
                missing[name] = "; ".join(why)
            else:
                values[name] = (float(get(self)), unit)
        values["trace.remainder_s"] = (wall_s - self.root_time, "s")
        # the additive split: self times plus remainder give the wall time
        parts = [values[m][0] for m in SELF_METRIC.values() if m in values]
        total = sum(parts) + values["trace.remainder_s"][0]
        if abs(total - wall_s) > 1e-6 * max(1.0, wall_s):
            raise RuntimeError(f"self times sum to {total}, wall is {wall_s}")
        return values, missing
