"""Condenser capacities on the slit strip.

Capacity of (S, E, delta) is computed in two steps: find the smooth
preimage domain of the slit strip, then solve one Dirichlet-type boundary
integral equation per plate on that fixed geometry and a small dense linear
system for the plate charges.  The kernel for this second step uses the
plain base-point function A(t) = eta(t) - alpha (constant angle pi/2 on
every component), the standard choice for Dirichlet problems; it is the
preimage iteration's last kernel, re-angled rather than assembled again.

Exact references for single-slit plates are 2*pi/mu(r), mu(r) = (pi/2)
K(r')/K(r) the Grotzsch ring modulus, with K computed by the AGM.
"""

import inspect
from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError, StripcapError
from .geometry import (
    HALF_PI,
    SlitSpec,
    StripSlitDomain,
    as_int,
    as_points,
    as_real,
    clearance_ratio,
    psi_inv,
    segment_distance,
    winding_number,
)
from .preimage import IterationConfig, iterate
from .solver import solve_bie

# ---------------------------------------------------------------------------
# elliptic integrals and exact formulas
# ---------------------------------------------------------------------------


def _agm(a, b):
    """Arithmetic-geometric mean of a, b > 0; quadratic convergence gives
    machine precision in a handful of sweeps."""
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return a


# The exact capacities are 2*pi / mu(r) = 4 AGM(1, r) / AGM(1, r').  Both
# moduli come from s directly: r' formed from a rounded r loses digits as r
# nears 0 or 1.


def exact_cap_vertical(s):
    """cap(S, [-s*i, s*i]) = 2*pi / mu(sin s) for 0 < s < pi/2."""
    s = as_real("vertical slit half-length", s, 0.0, HALF_PI, lo_open=True, hi_open=True)
    return 4.0 * _agm(1.0, np.sin(s)) / _agm(1.0, np.cos(s))


def exact_cap_horizontal(s):
    """cap(S, [-s, s]) = 2*pi / mu(tanh s) for 0 < s < 700 (cosh s overflows
    a double past 710)."""
    s = as_real("horizontal slit half-length", s, 0.0, 700.0, lo_open=True, hi_open=True)
    return 4.0 * _agm(1.0, np.tanh(s)) / _agm(1.0, 1.0 / np.cosh(s))


# ---------------------------------------------------------------------------
# the two-step capacity computation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CondenserSpec:
    """Plates (the slits of the domain) and their potential levels."""

    domain: StripSlitDomain
    delta: tuple = None

    def __post_init__(self):
        delta = (1.0,) * self.domain.m if self.delta is None else self.delta
        if np.ndim(delta) != 1:
            raise ValueError(f"delta must be a sequence of potential levels, got {delta!r}")
        delta = tuple(as_real(f"potential level delta[{i}]", d) for i, d in enumerate(delta))
        if len(delta) != self.domain.m:
            raise ValueError(
                f"need {self.domain.m} potential levels, got {len(delta)}"
            )
        object.__setattr__(self, "delta", delta)


@dataclass
class CapacityResult:
    cap: float
    a: np.ndarray
    c: float
    charge_h_dev: np.ndarray
    preimage: object


def charges_from_boundary(ks, alphas):
    """Plate charges on a fixed smooth geometry (step 2).

    ``ks`` is a kernel on the geometry, which this call owns: it is
    re-angled in place to the angle pi/2 on every component, which makes
    A(t) = eta(t) - alpha.  ``alphas`` holds one point strictly inside each
    hole, in hole order (ValueError otherwise).  The data log|eta - alpha_k|
    of the m plates form one (m, m+1, n) block, solved through the integral
    equation in a single ``solve_bie`` call (one Krylov space for all
    plates), and the resulting piecewise constants h_{j,k} fill an
    (m+1) x (m+1) system

        sum_k h_{j,k} a_k + c = (0 on the circle, 1 on every plate)

    solved by direct elimination.  The charges a_k belong to the unit
    potential (value 1 on every plate); potential levels enter only in the
    final weighted sum 2*pi*sum(delta_k * a_k).  Returns (a, c, h_dev),
    ``h_dev`` holding each plate's largest ``h_dev``: the spread of the field
    the theory makes constant on a component, which tells how well the
    solve resolved the plate.
    """
    bp = ks.bp
    m = bp.m
    alphas, _ = as_points(alphas)
    if alphas.size != m:
        raise ValueError(f"alphas must hold one point per hole, {m}, got {alphas.size}")
    for k, (hole, alpha) in enumerate(zip(bp.eta[1:], alphas)):
        # holes run clockwise; a node itself is on the hole, not inside it
        if winding_number(hole, alpha) != -1 or (hole == alpha).any():
            raise ValueError(f"alphas[{k}] = {alpha} does not lie inside hole {k + 1}")
    ks.reangle(np.full(m + 1, HALF_PI))
    gammas = np.log(np.abs(bp.eta - alphas[:, None, None]))
    sol = solve_bie(ks, gammas)
    system = np.hstack([sol.h.T, np.ones((m + 1, 1))])
    rhs = np.concatenate([[0.0], np.ones(m)])
    try:
        coeffs = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise GeometryError(f"singular charge system: {exc}") from exc
    return coeffs[:m], float(coeffs[m]), sol.h_dev.max(axis=1)


def capacity(spec, cfg=IterationConfig()):
    """cap(S, E, delta) by preimage iteration plus the charge system, on the
    kernel the iteration's last step assembled."""
    pre = iterate(spec.domain, cfg)
    pre.require_converged()
    # a point inside hole k: the image of the ellipse center
    alphas = [psi_inv(p.z) for p in pre.params]
    a, c, h_dev = charges_from_boundary(pre.take_kernel(), alphas)
    cap = 2.0 * np.pi * float(np.dot(spec.delta, a))
    return CapacityResult(cap=cap, a=a, c=c, charge_h_dev=h_dev, preimage=pre)


# ---------------------------------------------------------------------------
# parameter studies
# ---------------------------------------------------------------------------


@dataclass
class StudyPoint:
    """One study sample; ``charge_h_dev`` is the largest entry of its
    ``CapacityResult.charge_h_dev``, NaN for a failed sample."""

    param: float
    cap: float
    converged: bool
    iters: int
    charge_h_dev: float = float("nan")
    error: str = ""


def capacity_study(samples):
    """Evaluate capacity over (param, spec, cfg) samples.

    A numerical failure inside ``capacity`` (no convergence, a singular
    charge system) is recorded as a row with ``converged=False`` and the
    sweep continues.  Malformed input is not a row: ``study_samples``
    rejects a bad family, family parameter or geometry before any solve.
    """
    table = []
    for param, spec, cfg in samples:
        try:
            res = capacity(spec, cfg)
            table.append(
                StudyPoint(
                    param=param,
                    cap=res.cap,
                    converged=True,
                    iters=res.preimage.iterations,
                    charge_h_dev=float(res.charge_h_dev.max()),
                )
            )
        except (StripcapError, ValueError) as exc:  # a failed sample, not a bug
            table.append(
                StudyPoint(
                    param=param, cap=float("nan"), converged=False, iters=0,
                    error=str(exc),
                )
            )
    return table


def _sweep(layout):
    """A family swept over ``values``: the sample (p, layout(p)) per value p."""
    return lambda values: [
        (p, layout(as_real(f"study.values[{i}]", p))) for i, p in enumerate(values)
    ]


def _random_horizontal(count=10, m=10, seed=0, box_height=0.0):
    """``count`` layouts of m horizontal slits of length ell = 2/m, centers
    in [-4, 4] (and, when box_height > 0, imaginary parts in [-box_height,
    box_height]); rejection sampling keeps pairwise slit distance >= 1e-3."""
    m = as_int("study.m", m, 1)
    count = as_int("study.count", count, 0)
    box_height = as_real("study.box_height", box_height, 0.0)
    rng = np.random.default_rng(as_int("study.seed", seed, 0))
    ell = 2.0 / m
    layouts = []
    for trial in range(count):
        slits = []
        attempts = 0
        while len(slits) < m:
            attempts += 1
            if attempts > 100000:
                raise GeometryError("rejection sampling failed to place slits")
            cx = rng.uniform(-4.0, 4.0)
            cy = rng.uniform(-box_height, box_height) if box_height > 0 else 0.0
            a, b = complex(cx - 0.5 * ell, cy), complex(cx + 0.5 * ell, cy)
            if all(segment_distance(a, b, *slit) >= 1e-3 for slit in slits):
                slits.append((a, b))
        layouts.append((trial, slits))
    return layouts


# name -> builder of (param, slit endpoint pairs); a study section's keys are its parameters
STUDY_FAMILIES = {
    # E = (-x + [-i, i]) u (x + [-i, i])
    "two_vertical": _sweep(lambda x: [(-x - 1j, -x + 1j), (x - 1j, x + 1j)]),
    # E = (-x + [-1, 1]) u (x + [-1, 1]), x > 1
    "two_horizontal": _sweep(lambda x: [(-x - 1, -x + 1), (x - 1, x + 1)]),
    # E = i*s + [-i, i]
    "vertical_shift": _sweep(lambda s: [(1j * s - 1j, 1j * s + 1j)]),
    # E = i*s + [-1, 1]
    "horizontal_shift": _sweep(lambda s: [(1j * s - 1.0, 1j * s + 1.0)]),
    "random_horizontal": _random_horizontal,
}


def study_samples(study, cfg):
    """Every (param, CondenserSpec, IterationConfig) sample of a ``study``
    section, built before any solve, its r capped by ``clearance_ratio``.
    ``family`` names a ``STUDY_FAMILIES`` builder, the other keys are its
    parameters; an unknown family, a missing, stray or bad parameter or an
    invalid geometry raises here, so a sweep never stops midway."""
    keys = dict(study)
    family = keys.pop("family", None)
    builder = STUDY_FAMILIES.get(family)
    if builder is None:
        known = ", ".join(STUDY_FAMILIES)
        raise ValueError(f"study.family must be one of {known}; got {family!r}")
    signature = inspect.signature(builder)
    try:
        signature.bind_partial(**keys)  # a stray key, before a missing one
        signature.bind(**keys)
    except TypeError as exc:
        raise ValueError(f"study family {family}{signature}: {exc}") from None
    specs = [
        (p, CondenserSpec(StripSlitDomain([SlitSpec(a, b) for a, b in slits])))
        for p, slits in builder(**keys)
    ]
    return [(p, s, replace(cfg, r=min(cfg.r, clearance_ratio(s.domain)))) for p, s in specs]
