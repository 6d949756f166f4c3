"""Condenser capacities on the slit strip.

Capacity of (S, E, delta) is computed in two steps: find the smooth
preimage domain of the slit strip, then solve one Dirichlet-type boundary
integral equation per plate on that fixed geometry and a small dense linear
system for the plate charges.  The kernel for this second step uses the
plain base-point function A(t) = eta(t) - alpha (constant angle pi/2 on
every component), the standard choice for Dirichlet problems.

Exact references for single-slit plates come from the Grotzsch ring modulus
mu(r) built on arithmetic-geometric-mean elliptic integrals.
"""

import inspect
from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError, StripcapError
from .geometry import HALF_PI, SlitSpec, StripSlitDomain, psi_inv, segment_distance
from .kernels import KernelSet
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


def elliptic_K(r):
    """Complete elliptic integral of the first kind: K(r) = pi / (2 AGM(1, r'))
    with the complementary modulus r' = sqrt(1 - r^2)."""
    if not (0.0 <= r < 1.0):
        raise ValueError(f"elliptic_K requires 0 <= r < 1, got {r}")
    return np.pi / (2.0 * _agm(1.0, np.sqrt((1.0 - r) * (1.0 + r))))


def mu(r):
    """Modulus of the Grotzsch ring: (pi/2) K(r') / K(r), which is
    (pi/2) AGM(1, r') / AGM(1, r)."""
    if not (0.0 < r < 1.0):
        raise ValueError(f"mu requires 0 < r < 1, got {r}")
    return HALF_PI * _agm(1.0, np.sqrt((1.0 - r) * (1.0 + r))) / _agm(1.0, r)


# The exact capacities are 2*pi / mu(r) = 4 AGM(1, r) / AGM(1, r').  Both
# moduli come from s directly: r' formed from a rounded r loses digits as r
# nears 0 or 1.


def exact_cap_vertical(s):
    """cap(S, [-s*i, s*i]) = 2*pi / mu(sin s) for 0 < s < pi/2."""
    if not (0.0 < s < HALF_PI):
        raise ValueError(f"vertical slit half-length must be in (0, pi/2), got {s}")
    return 4.0 * _agm(1.0, np.sin(s)) / _agm(1.0, np.cos(s))


def exact_cap_horizontal(s):
    """cap(S, [-s, s]) = 2*pi / mu(tanh s) for 0 < s < 700 (cosh s overflows
    a double past 710)."""
    if not (0.0 < s < 700.0):
        raise ValueError(f"horizontal slit half-length must be in (0, 700), got {s}")
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
        delta = self.delta
        if delta is None:
            delta = (1.0,) * self.domain.m
        delta = tuple(float(d) for d in delta)
        if len(delta) != self.domain.m:
            raise ValueError(
                f"need {self.domain.m} potential levels, got {len(delta)}"
            )
        for i, d in enumerate(delta):
            if not np.isfinite(d):
                raise ValueError(f"potential level delta[{i}] is not finite: {d}")
        object.__setattr__(self, "delta", delta)


@dataclass
class CapacityResult:
    cap: float
    a: np.ndarray
    c: float
    preimage: object


def charges_from_boundary(bp, alphas):
    """Plate charges on a fixed smooth geometry (step 2).

    ``alphas`` holds one point strictly inside each hole.  The data
    log|eta - alpha_k| of the m plates form one (m, m+1, n) block, solved
    through the integral equation in a single ``solve_bie`` call (one
    Krylov space for all plates), and the resulting piecewise constants
    h_{j,k} fill an (m+1) x (m+1) system

        sum_k h_{j,k} a_k + c = (0 on the circle, 1 on every plate)

    solved by direct elimination.  The charges a_k belong to the unit
    potential (value 1 on every plate); potential levels enter only in the
    final weighted sum 2*pi*sum(delta_k * a_k).  Returns (a, c).
    """
    m = bp.m
    theta = np.full(m + 1, HALF_PI)  # makes A(t) = eta(t) - alpha
    ks = KernelSet(bp, theta)
    gammas = np.log(np.abs(bp.eta - np.asarray(alphas)[:, None, None]))
    H = solve_bie(ks, gammas).h.T
    system = np.hstack([H, np.ones((m + 1, 1))])
    rhs = np.concatenate([[0.0], np.ones(m)])
    try:
        coeffs = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise GeometryError(f"singular charge system: {exc}") from exc
    return coeffs[:m], float(coeffs[m])


def capacity(spec, cfg=IterationConfig()):
    """cap(S, E, delta) by preimage iteration plus the charge system."""
    pre = iterate(spec.domain, cfg)
    pre.require_converged()
    bp = pre.map.bp
    # a point inside hole k: the image of the ellipse center
    alphas = [psi_inv(p.z) for p in pre.params]
    a, c = charges_from_boundary(bp, alphas)
    cap = 2.0 * np.pi * float(np.dot(spec.delta, a))
    return CapacityResult(cap=cap, a=a, c=c, preimage=pre)


# ---------------------------------------------------------------------------
# parameter studies
# ---------------------------------------------------------------------------


@dataclass
class StudyPoint:
    param: float
    cap: float
    converged: bool
    iters: int
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
    """A family swept over ``values``: the sample (p, *layout(p)) per value p."""
    return lambda values: [(p, *layout(float(p))) for p in values]


def _random_horizontal(count=10, m=10, seed=0, box_height=0.0):
    """``count`` layouts of m horizontal slits of length 2/m, centers in
    [-4, 4] (and, when box_height > 0, imaginary parts in [-box_height,
    box_height]); rejection sampling keeps pairwise slit distance >= 1e-3."""
    if m < 1:
        raise ValueError(f"study.m must be >= 1, got {m}")
    if count < 0:
        raise ValueError(f"study.count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    half = 1.0 / m
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
            a, b = complex(cx - half, cy), complex(cx + half, cy)
            if all(segment_distance(a, b, *slit) >= 1e-3 for slit in slits):
                slits.append((a, b))
        layouts.append((trial, slits, 1.0))
    return layouts


# name -> builder of (param, slit endpoint pairs, largest ellipse ratio r)
# samples; its parameters are the keys of a study section.  two_vertical
# clamps r to x/2 so that the holes stay apart.
STUDY_FAMILIES = {
    # E = (-x + [-i, i]) u (x + [-i, i])
    "two_vertical": _sweep(lambda x: ([(-x - 1j, -x + 1j), (x - 1j, x + 1j)], 0.5 * x)),
    # E = (-x + [-1, 1]) u (x + [-1, 1]), x > 1
    "two_horizontal": _sweep(lambda x: ([(-x - 1, -x + 1), (x - 1, x + 1)], 1.0)),
    # E = i*s + [-i, i]
    "vertical_shift": _sweep(lambda s: ([(1j * s - 1j, 1j * s + 1j)], 1.0)),
    # E = i*s + [-1, 1]
    "horizontal_shift": _sweep(lambda s: ([(1j * s - 1.0, 1j * s + 1.0)], 1.0)),
    "random_horizontal": _random_horizontal,
}


def study_samples(study, cfg):
    """Every (param, CondenserSpec, IterationConfig) sample of a problem
    file's ``study`` section, built before any solve.  Its ``family`` names a
    ``STUDY_FAMILIES`` builder and its other keys are that builder's
    parameters.  An unknown family, a missing, stray or bad parameter, or an
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
    return [
        (
            p,
            CondenserSpec(StripSlitDomain([SlitSpec(a, b) for a, b in slits])),
            replace(cfg, r=min(cfg.r, r_max)),
        )
        for p, slits, r_max in builder(**keys)
    ]
