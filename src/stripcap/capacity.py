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

from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError, StripcapError
from .geometry import HALF_PI, SlitSpec, StripSlitDomain, psi_inv, segment_distance
from .kernels import KernelSet
from .preimage import IterationConfig, iterate
from .solver import DEFAULT_MAXIT, DEFAULT_TOL, solve_bie

# ---------------------------------------------------------------------------
# elliptic integrals and exact formulas
# ---------------------------------------------------------------------------


def elliptic_K(r):
    """Complete elliptic integral of the first kind via the AGM.

    K(r) = pi / (2 * AGM(1, sqrt(1 - r^2))); quadratic convergence gives
    machine precision in a handful of sweeps.
    """
    if not (0.0 <= r < 1.0):
        raise ValueError(f"elliptic_K requires 0 <= r < 1, got {r}")
    a = 1.0
    b = np.sqrt((1.0 - r) * (1.0 + r))
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return np.pi / (2.0 * a)


def mu(r):
    """Modulus of the Grotzsch ring: (pi/2) K(sqrt(1-r^2)) / K(r)."""
    if not (0.0 < r < 1.0):
        raise ValueError(f"mu requires 0 < r < 1, got {r}")
    rc = np.sqrt((1.0 - r) * (1.0 + r))
    return HALF_PI * elliptic_K(rc) / elliptic_K(r)


def exact_cap_vertical(s):
    """cap(S, [-s*i, s*i]) = 2*pi / mu(sin s) for 0 < s < pi/2."""
    if not (0.0 < s < HALF_PI):
        raise ValueError(f"vertical slit half-length must be in (0, pi/2), got {s}")
    return 2.0 * np.pi / mu(np.sin(s))


def exact_cap_horizontal(s):
    """cap(S, [-s, s]) = 2*pi / mu(tanh s) for s > 0."""
    if s <= 0.0:
        raise ValueError(f"horizontal slit half-length must be positive, got {s}")
    return 2.0 * np.pi / mu(np.tanh(s))


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


def charges_from_boundary(bp, alphas, tol=DEFAULT_TOL, maxit=DEFAULT_MAXIT):
    """Plate charges on a fixed smooth geometry (step 2).

    ``alphas`` holds one point strictly inside each hole.  For each plate k
    the data log|eta - alpha_k| is solved through the integral equation and
    the resulting piecewise constants h_{j,k} fill an (m+1) x (m+1) system

        sum_k h_{j,k} a_k + c = (0 on the circle, 1 on every plate)

    solved by direct elimination.  The charges a_k belong to the unit
    potential (value 1 on every plate); potential levels enter only in the
    final weighted sum 2*pi*sum(delta_k * a_k).  Returns (a, c).
    """
    m = bp.m
    theta = np.full(m + 1, HALF_PI)  # makes A(t) = eta(t) - alpha
    ks = KernelSet(bp, theta)
    H = np.empty((m + 1, m))
    for k in range(m):
        gamma_k = np.log(np.abs(bp.flat_eta - alphas[k]))
        sol = solve_bie(ks, gamma_k, tol=tol, maxit=maxit)
        H[:, k] = sol.h
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
    a, c = charges_from_boundary(
        bp, alphas, tol=pre.cfg.solver_tol, maxit=pre.cfg.solver_maxit
    )
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
    """Evaluate capacity over (param, spec, cfg) samples; errors are
    recorded per sample and the sweep continues."""
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


def _two_slit_domain(offset, half):
    return StripSlitDomain(
        [
            SlitSpec(-offset - half, -offset + half),
            SlitSpec(offset - half, offset + half),
        ]
    )


def two_vertical_family(values, base_cfg):
    """Example family: E = (-x + [-i, i]) u (x + [-i, i]); r clamps to x/2."""
    for x in values:
        cfg = replace(base_cfg, r=min(base_cfg.r, 0.5 * x))
        yield x, CondenserSpec(_two_slit_domain(float(x), 1j)), cfg


def two_horizontal_family(values, base_cfg):
    """Example family: E = (-x + [-1, 1]) u (x + [-1, 1]), x > 1."""
    for x in values:
        yield x, CondenserSpec(_two_slit_domain(float(x), 1.0)), base_cfg


def vertical_shift_family(values, base_cfg):
    """Example family: E = i*s + [-i, i]."""
    for s in values:
        dom = StripSlitDomain([SlitSpec(1j * s - 1j, 1j * s + 1j)])
        yield s, CondenserSpec(dom), base_cfg


def horizontal_shift_family(values, base_cfg):
    """Example family: E = i*s + [-1, 1]."""
    for s in values:
        dom = StripSlitDomain([SlitSpec(1j * s - 1.0, 1j * s + 1.0)])
        yield s, CondenserSpec(dom), base_cfg


def random_slits_family(count, m, seed, base_cfg, box_height=0.0):
    """Random horizontal slits of length 2/m, centers in [-4, 4] (and, when
    box_height > 0, imaginary parts in [-box_height, box_height]); rejection
    sampling keeps pairwise slit distance >= 1e-3."""
    rng = np.random.default_rng(seed)
    half = 1.0 / m
    for trial in range(count):
        slits = []
        attempts = 0
        while len(slits) < m:
            attempts += 1
            if attempts > 100000:
                raise GeometryError("rejection sampling failed to place slits")
            cx = rng.uniform(-4.0, 4.0)
            cy = rng.uniform(-box_height, box_height) if box_height > 0 else 0.0
            cand = SlitSpec(complex(cx - half, cy), complex(cx + half, cy))
            if all(
                segment_distance(cand.a, cand.b, s.a, s.b) >= 1e-3 for s in slits
            ):
                slits.append(cand)
        yield trial, CondenserSpec(StripSlitDomain(slits)), base_cfg


STUDY_FAMILIES = {
    "two_vertical": two_vertical_family,
    "two_horizontal": two_horizontal_family,
    "vertical_shift": vertical_shift_family,
    "horizontal_shift": horizontal_shift_family,
}
