"""Fixed-point search for the preimage domain of a given slit strip.

Each slit is replaced by a thin ellipse riding on it; mapping the resulting
smooth domain back onto a slit strip yields slightly wrong slit centers and
lengths, and the discrepancies are subtracted from the ellipse parameters.
All ellipses update simultaneously, with no damping.  The per-iteration
error is the mean mismatch of centers and lengths against the targets.
"""

import math
import time
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import ConvergenceError, GeometryError
from .geometry import EllipseParams, build_preimage_boundary
from .stripmap import build_map, extract_slit_images

# n=128 resolves the four-slit and channel geometries (first-solve h_dev
# 3.4e-15 and 2.4e-11); where it does not, one solve there costs 0.15 s
LADDER_START = 128
# the geometric middle of criterion 3's first-solve h_dev at n=128 (7.1e-5)
# and the crowded pair's at every n <= 512 (1.5e-3 and above)
RESOLVED_H_DEV = 3e-4


@dataclass(frozen=True)
class IterationConfig:
    """The numerics of one run; the only place their defaults are defined."""

    n: int = 1024
    r: float = 0.2
    eps: float = 1e-11
    max_iter: int = 100

    def __post_init__(self):
        for name in ("n", "max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 8, got {self.n!r}")
        for name, hi, interval in (("r", 1.0, "(0, 1]"), ("eps", math.inf, "(0, inf)")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not (
                0.0 < value <= hi and math.isfinite(value)
            ):
                raise ValueError(f"{name} must be in {interval}, got {value!r}")


@dataclass(frozen=True)
class LadderLevel:
    """One rung of the n-ladder: its node count, the outer steps it took and
    the largest ``h_dev`` of its last solve (None when no solve finished)."""

    n: int
    steps: int
    h_dev: float | None


@dataclass
class PreimageResult:
    """The outcome of ``iterate``.  ``error_history`` and ``gmres_history``
    run over all ``levels`` in order; ``params`` and ``map`` belong to the
    last level, which is always at ``cfg.n``."""

    params: list
    map: object
    error_history: list
    gmres_history: list
    levels: list
    converged: bool
    omega: object
    cfg: IterationConfig

    @property
    def iterations(self):
        return len(self.error_history)

    def require_converged(self):
        """Raise ConvergenceError unless the iteration met its tolerance."""
        if not self.converged:
            raise ConvergenceError(
                f"preimage iteration did not reach {self.cfg.eps} at "
                f"n={self.levels[-1].n} in {self.cfg.max_iter} iterations "
                f"(last error {self.error_history[-1]:.3e})",
                history=self.error_history,
            )


def initialize(omega, cfg):
    """Thin ellipses on the slits: center c_j, major axis (1 - r/2) ell_j."""
    shrink = 1.0 - 0.5 * cfg.r
    params = [
        EllipseParams(z=s.c, a=shrink * s.ell, theta=s.theta, r=cfg.r)
        for s in omega.slits
    ]
    build_preimage_boundary(params, cfg.n)  # raises OverlapError if r is too large
    return params


def iterate(omega, cfg=IterationConfig(), progress=None):
    """Run the fixed-point iteration until the mismatch drops below eps.

    The run climbs the doubling ladder n0 = min(cfg.n, LADDER_START), 2 n0,
    ..., cfg.n from ``initialize``, and each level starts from the
    parameters the level below converged to.  A coarse level that does not
    resolve the geometry (the largest ``h_dev`` of its first solve reaches
    RESOLVED_H_DEV, it misses eps, or it raises GeometryError or
    ConvergenceError) ends the climb, and cfg.n starts over from
    ``initialize``.  ``max_iter`` caps each level, and the top level alone
    decides ``converged``.

    ``progress``, when given, receives one dict per outer step (k counted
    over all levels, n, error, gmres_iters, elapsed_ms).  Returns the full
    history whether or not the tolerance was met.
    """
    params = initialize(omega, cfg)
    coarse = []
    n = min(cfg.n, LADDER_START)
    while n < cfg.n:
        coarse.append(n)
        n *= 2
    result = PreimageResult(
        params=list(params),
        map=None,
        error_history=[],
        gmres_history=[],
        levels=[],
        converged=False,
        omega=omega,
        cfg=cfg,
    )
    start = params
    for n in coarse:
        try:
            resolved = _run_level(result, start, n, progress, coarse=True)
        except (GeometryError, ConvergenceError):  # OverlapError is a GeometryError
            resolved = False
        if not resolved:
            start = params
            break
        start = result.params
    result.converged = _run_level(result, start, cfg.n, progress)
    return result


def _run_level(result, params, n, progress, coarse=False):
    """Up to ``max_iter`` outer steps at n from ``params``, appended to the
    histories of ``result``; leaves the last solved parameters and map in
    it and the level in ``result.levels``, also when a step raises.
    Returns whether the level met eps.  A coarse level whose first solve's
    largest ``h_dev`` reaches RESOLVED_H_DEV stops there and returns False.
    """
    omega, cfg = result.omega, result.cfg
    targets_c = np.array([s.c for s in omega.slits])
    targets_l = np.array([s.ell for s in omega.slits])
    shrink = 1.0 - 0.5 * cfg.r
    steps, h_dev = 0, None
    try:
        while steps < cfg.max_iter:
            t0 = time.perf_counter()
            bp = build_preimage_boundary(params, n)
            md = build_map(bp, omega.theta)
            centers, lengths = extract_slit_images(md)
            result.params, result.map = list(params), md
            steps += 1
            h_dev = float(md.solution.h_dev.max())
            err = float(
                (np.abs(centers - targets_c) + np.abs(lengths - targets_l)).sum()
                / (2.0 * omega.m)
            )
            result.error_history.append(err)
            result.gmres_history.append(md.solution.stats.iterations)
            if progress is not None:
                progress(
                    {
                        "k": len(result.error_history),
                        "n": n,
                        "error": err,
                        "gmres_iters": md.solution.stats.iterations,
                        "elapsed_ms": 1e3 * (time.perf_counter() - t0),
                    }
                )
            if coarse and steps == 1 and h_dev >= RESOLVED_H_DEV:
                return False
            if err < cfg.eps:
                return True
            params = [
                EllipseParams(
                    z=p.z - (centers[j] - targets_c[j]),
                    a=p.a - shrink * (lengths[j] - targets_l[j]),
                    theta=p.theta,
                    r=p.r,
                )
                for j, p in enumerate(params)
            ]
        return False
    finally:
        result.levels.append(LadderLevel(n=n, steps=steps, h_dev=h_dev))
