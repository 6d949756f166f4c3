"""The three pipeline workloads: inputs, the timed library calls, the checks.

Each workload is built from a seed and a size ("full" is measured, "smoke"
is the small-n presence check), runs through stripcap's public API, and
checks every operation against a reference.  One operation is one capacity,
one map or one grid; an operation that raises or misses its reference
counts as failed.

Why these three (see README.md for the measured layer split):

* ``cap4-n1024``  -- large dense kernels (210 MB each): assembly and
  bandwidth-bound ``I-N`` matvecs dominate; no Cauchy sums at all.
* ``flow-channel-n512`` -- the criterion-9 grid: Cauchy sums and the
  unchunked winding-number temporaries dominate time and peak memory.
* ``study-n256`` -- many small problems whose kernels fit in cache, so
  per-call overhead and outer-iteration counts dominate.
"""

import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import stripcap as sc
from stripcap.flow import GridSpec, horizontal_slit_map, stream_grid

HALF_PI = 0.5 * math.pi

# The four-slit reference geometry of the test suite (tests/conftest.py).
FOUR_SLITS = (
    (-0.9 - 0.3j, -0.3 - 0.3j),
    (0.3 - 0.3j, 0.9 - 0.3j),
    (-0.9 + 0.3j, -0.3 + 0.3j),
    (0.3 + 0.3j, 0.9 + 0.3j),
)
# Capacity of FOUR_SLITS at unit potentials, computed once at n=2048,
# r=0.2, eps=1e-12 (numpy backend).
CAP4_REFERENCE = 5.243323081730623

# The mixed-orientation channel of the flow tests (tests/conftest.py).
CHANNEL_SLITS = (
    (-2 - 0.7j, -1 - 0.2j),
    (-0.5 + 0.4j, 0.5 + 0.7j),
    (1 - 0.5j, 2 - 0.5j),
    (-0.5 - 0.9j, 0.5 - 0.9j),
)
# Acceptance criterion 9's grid.
FLOW_GRID = (-6.0, 6.0, -1.55, 1.55, 400, 200)
# Stream-function values at a fixed subset of FLOW_GRID's nodes, computed
# once at n=1024, eps=1e-11: rows of [iy, ix, psi].
FLOW_REFERENCE = Path(__file__).with_name("flow_reference.json")

# Single-slit study members: (orientation, half-length s); their exact
# capacities are exact_cap_vertical(s) and exact_cap_horizontal(s).
STUDY_SINGLES = (
    ("vertical", 0.25),
    ("horizontal", 0.5),
    ("vertical", 0.6),
    ("horizontal", 1.0),
    ("vertical", 1.0),
    ("horizontal", 2.0),
)

SIZES = {
    "cap4-n1024": {
        "full": {"n": 1024, "tol": 1e-10},
        "smoke": {"n": 128, "tol": 1e-10},
    },
    "flow-channel-n512": {
        "full": {"n": 512, "tol": 1e-8},
        # n=128 is too coarse for the grid: some points fail its interior test
        "smoke": {"n": 256, "tol": 1e-6},
    },
    "study-n256": {
        "full": {"n": 256, "count": 20, "tol": 1e-10},
        "smoke": {"n": 128, "count": 4, "tol": 1e-9},
    },
}


@dataclass
class Verdict:
    """Outcome of one repetition of a workload."""

    attempted: int
    failed: int
    max_rel_err: float  # worst relative error against the reference
    note: str = ""


def _domain(pairs):
    return sc.StripSlitDomain([sc.SlitSpec(a, b) for a, b in pairs])


def _failure(attempted, failed, exc):
    traceback.print_exception(exc)
    return Verdict(attempted, failed, math.inf, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# cap4-n1024
# ---------------------------------------------------------------------------


def cap4_inputs(seed, n, tol):
    """The geometry is fixed; the seed does not change it."""
    spec = sc.CondenserSpec(_domain(FOUR_SLITS), delta=(1.0,) * 4)
    return {"spec": spec, "cfg": sc.IterationConfig(n=n, r=0.2, eps=1e-11), "tol": tol}


def cap4_execute(inp):
    try:
        cap = sc.capacity(inp["spec"], inp["cfg"]).cap
    except Exception as exc:  # a failed operation is counted, not fatal
        return _failure(1, 1, exc)
    err = abs(cap - CAP4_REFERENCE) / CAP4_REFERENCE
    ok = err <= inp["tol"]
    return Verdict(1, 0 if ok else 1, err, f"cap {cap!r}")


# ---------------------------------------------------------------------------
# flow-channel-n512
# ---------------------------------------------------------------------------


def flow_inputs(seed, n, tol):
    """The geometry and grid are fixed; the seed does not change them."""
    ref = np.array(json.loads(FLOW_REFERENCE.read_text()))
    return {
        "domain": _domain(CHANNEL_SLITS),
        "cfg": sc.IterationConfig(n=n, r=0.2, eps=1e-11),
        "grid": GridSpec(*FLOW_GRID),
        "ref_index": (ref[:, 0].astype(int), ref[:, 1].astype(int)),
        "ref_psi": ref[:, 2],
        "tol": tol,
    }


def flow_execute(inp):
    """Three operations: the preimage map, the horizontal-slit map, the grid.

    Errors are taken relative to pi/2, the wall level and the scale of the
    stream function, since psi itself crosses zero inside the channel.
    """
    tol = inp["tol"]
    try:
        pre = sc.iterate(inp["domain"], inp["cfg"])
    except Exception as exc:
        return _failure(3, 3, exc)
    failed = 0 if pre.converged else 1
    try:
        ups = horizontal_slit_map(pre)
        field = stream_grid(pre, ups, inp["grid"])
    except Exception as exc:
        return _failure(3, failed + 2, exc)
    # slits are streamlines and the walls sit at +-pi/2
    spread = max(float(np.ptp(z.imag)) for z in ups.zeta[1:])
    wall = ups.zeta[0][np.isfinite(ups.zeta[0])]
    wall_dev = float(np.abs(np.abs(wall.imag) - HALF_PI).max())
    map_err = max(spread, wall_dev) / HALF_PI
    failed += not map_err <= tol
    grid_err = float(
        np.abs(field.psi_values[inp["ref_index"]] - inp["ref_psi"]).max() / HALF_PI
    )
    if field.failures or not grid_err <= tol:
        failed += 1
    note = (
        f"outer iters {pre.iterations}, slit spread {spread:.1e}, wall dev "
        f"{wall_dev:.1e}, grid failures {field.failures}, grid err {grid_err:.1e}"
    )
    return Verdict(3, failed, max(map_err, grid_err), note)


# ---------------------------------------------------------------------------
# study-n256
# ---------------------------------------------------------------------------


def _segment_gap(p, q, samples=65):
    """Distance between two segments, from points sampled along each."""
    s = np.linspace(0.0, 1.0, samples)
    a = p[0] + s * (p[1] - p[0])
    b = q[0] + s * (q[1] - q[0])
    return float(np.abs(a[:, None] - b[None, :]).min())


def _random_slits(rng, m):
    """m slits of random angle, length and position, pairwise >= 0.4 apart
    and clear of the walls, so that r=0.2 ellipses never touch."""
    while True:
        slits = []
        while len(slits) < m:
            c = complex(rng.uniform(-2.0, 2.0), rng.uniform(-0.7, 0.7))
            d = rng.uniform(0.2, 0.6) * np.exp(1j * rng.uniform(0.0, np.pi))
            if max(abs((c - d).imag), abs((c + d).imag)) <= 1.1:
                slits.append((c - d, c + d))
        if all(
            _segment_gap(slits[i], slits[j]) >= 0.4
            for i in range(m)
            for j in range(i + 1, m)
        ):
            return slits


def study_inputs(seed, n, count, tol):
    """``count`` problems: 30 % single slits with exact capacities, the rest
    split between two and three random slits."""
    rng = np.random.default_rng(seed)
    cfg = sc.IterationConfig(n=n, r=0.2, eps=1e-12)
    singles = max(1, 3 * count // 10)
    pairs = (count - singles + 1) // 2
    samples, exact = [], []
    for k in range(count):
        if k < singles:
            kind, s = STUDY_SINGLES[k % len(STUDY_SINGLES)]
            # near the centre: far out, n=256 no longer resolves a long slit
            x = rng.uniform(-1.0, 1.0)
            if kind == "vertical":
                slits = [(x - 1j * s, x + 1j * s)]
                exact.append(sc.exact_cap_vertical(s))
            else:
                slits = [(x - s, x + s)]
                exact.append(sc.exact_cap_horizontal(s))
        else:
            slits = _random_slits(rng, 2 if k < singles + pairs else 3)
            exact.append(None)
        samples.append((k, sc.CondenserSpec(_domain(slits)), cfg))
    return {"samples": samples, "exact": exact, "tol": tol}


def study_execute(inp):
    count = len(inp["samples"])
    try:
        table = sc.capacity_study(inp["samples"])
    except Exception as exc:
        return _failure(count, count, exc)
    failed, worst, iters, errors = 0, 0.0, 0, []
    for point, exact in zip(table, inp["exact"]):
        ok = point.converged and math.isfinite(point.cap) and point.cap > 0.0
        if ok and exact is not None:
            err = abs(point.cap - exact) / exact
            worst = max(worst, err)
            ok = err <= inp["tol"]
        if not ok:
            failed += 1
            errors.append(f"problem {point.param}: {point.error or point.cap}")
        iters += point.iters
    return Verdict(count, failed, worst, "; ".join([f"outer iters {iters}"] + errors))


# Spans a workload never reaches; every other span must be called in a
# traced run, or its metrics are reported missing.
_NO_FLOW = {"solver.cauchy", "stripmap.inverse_map", "stripmap.eval", "flow.hmap", "flow.grid"}
UNREACHED = {
    "cap4-n1024": _NO_FLOW,
    "flow-channel-n512": {"capacity.charges"},
    "study-n256": _NO_FLOW,
}

WORKLOADS = {
    "cap4-n1024": (cap4_inputs, cap4_execute),
    "flow-channel-n512": (flow_inputs, flow_execute),
    "study-n256": (study_inputs, study_execute),
}


def prepare(name, seed, size):
    """Build a workload's inputs; returns (inputs, execute)."""
    make, execute = WORKLOADS[name]
    return make(seed, **SIZES[name][size]), execute
