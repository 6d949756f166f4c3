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

from .errors import ConvergenceError
from .geometry import EllipseParams, build_preimage_boundary
from .solver import DEFAULT_MAXIT, DEFAULT_TOL
from .stripmap import build_map, extract_slit_images


@dataclass(frozen=True)
class IterationConfig:
    """The numerics of one run; the only place their defaults are defined."""

    n: int = 1024
    r: float = 0.2
    eps: float = 1e-14
    max_iter: int = 100
    solver_tol: float = DEFAULT_TOL
    solver_maxit: int = DEFAULT_MAXIT

    def __post_init__(self):
        for name in ("n", "max_iter", "solver_maxit"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 8, got {self.n!r}")
        for name, hi, interval in (
            ("r", 1.0, "(0, 1]"),
            ("eps", math.inf, "(0, inf)"),
            ("solver_tol", 1e-6, "(0, 1e-6]"),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not (
                0.0 < value <= hi and math.isfinite(value)
            ):
                raise ValueError(f"{name} must be in {interval}, got {value!r}")


@dataclass
class PreimageResult:
    params: list
    map: object
    error_history: list
    gmres_history: list
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
                f"preimage iteration did not reach {self.cfg.eps} in "
                f"{self.cfg.max_iter} iterations (last error "
                f"{self.error_history[-1]:.3e})",
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


def iterate(omega, cfg=IterationConfig(), params=None, progress=None):
    """Run the fixed-point iteration until the mismatch drops below eps.

    ``progress``, when given, receives one dict per iteration
    (k, error, gmres_iters, elapsed_ms).  Returns the full history whether
    or not the tolerance was met; ``converged`` records which.
    """
    if params is None:
        params = initialize(omega, cfg)
    m = omega.m
    targets_c = np.array([s.c for s in omega.slits])
    targets_l = np.array([s.ell for s in omega.slits])
    theta = omega.theta
    error_history = []
    gmres_history = []
    converged = False
    md = None
    for k in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter()
        bp = build_preimage_boundary(params, cfg.n)
        md = build_map(bp, theta, tol=cfg.solver_tol, maxit=cfg.solver_maxit)
        centers, lengths = extract_slit_images(md)
        err = float(
            (np.abs(centers - targets_c) + np.abs(lengths - targets_l)).sum()
            / (2.0 * m)
        )
        error_history.append(err)
        gmres_history.append(md.solution.stats.iterations)
        if progress is not None:
            progress(
                {
                    "k": k,
                    "error": err,
                    "gmres_iters": md.solution.stats.iterations,
                    "elapsed_ms": 1e3 * (time.perf_counter() - t0),
                }
            )
        if err < cfg.eps:
            converged = True
            break
        shrink = 1.0 - 0.5 * cfg.r
        params = [
            EllipseParams(
                z=p.z - (centers[j] - targets_c[j]),
                a=p.a - shrink * (lengths[j] - targets_l[j]),
                theta=p.theta,
                r=p.r,
            )
            for j, p in enumerate(params)
        ]
    return PreimageResult(
        params=list(params),
        map=md,
        error_history=error_history,
        gmres_history=gmres_history,
        converged=converged,
        omega=omega,
        cfg=cfg,
    )
