"""Fixed-point search for the preimage domain of a given slit strip.

Each slit is replaced by a thin ellipse riding on it; mapping the resulting
smooth domain back onto a slit strip yields slightly wrong slit centers and
lengths, and the discrepancies are subtracted from the ellipse parameters.
All ellipses update simultaneously, with no damping.  The per-iteration
error is the mean mismatch of centers and lengths against the targets.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import OverlapError
from .geometry import EllipseParams, build_preimage_boundary
from .stripmap import build_map, extract_slit_images


@dataclass(frozen=True)
class IterationConfig:
    n: int = 1024
    r: float = 0.2
    eps: float = 1e-14
    max_iter: int = 100
    solver_tol: float = 1e-14
    solver_maxit: int = 100

    def __post_init__(self):
        if not (0.0 < self.r <= 1.0):
            raise ValueError(f"aspect ratio r must be in (0, 1], got {self.r}")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")


@dataclass
class PreimageResult:
    params: list
    map: object
    error_history: list
    gmres_history: list
    converged: bool
    omega: object = None

    @property
    def iterations(self):
        return len(self.error_history)


def initialize(omega, cfg):
    """Thin ellipses on the slits: center c_j, major axis (1 - r/2) ell_j."""
    shrink = 1.0 - 0.5 * cfg.r
    params = [
        EllipseParams(z=s.c, a=shrink * s.ell, theta=s.theta, r=cfg.r)
        for s in omega.slits
    ]
    try:
        build_preimage_boundary(params, cfg.n)
    except OverlapError as exc:
        raise OverlapError(f"{exc}; choose a smaller aspect ratio r") from exc
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
        images = extract_slit_images(md)
        centers = np.array([im.center for im in images])
        lengths = np.array([im.length for im in images])
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
    )
