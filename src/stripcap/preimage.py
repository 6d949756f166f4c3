"""Fixed-point search for the preimage domain of a given slit strip.

Each slit is replaced by a thin ellipse riding on it; mapping the resulting
smooth domain back onto a slit strip yields slightly wrong slit centers and
lengths, and the discrepancies are subtracted from the ellipse parameters.
All ellipses update simultaneously, with no damping.  The per-iteration
error is the mean mismatch of centers and lengths against the targets.
"""

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, GeometryError, MemoryLimitError, OverlapError
from .geometry import (
    EllipseParams,
    _check_pow2,
    as_int,
    as_real,
    build_preimage_boundary,
    clearance_ratio,
)
from .kernels import KernelSet, dense_bytes
from .solver import RESOLVED_H_DEV
from .stripmap import build_map, extract_slit_images

# n=128 resolves the four-slit and channel geometries (first-solve h_dev
# 3.4e-15 and 2.4e-11); each coarse level that does not costs one first solve
LADDER_START = 128


@dataclass(frozen=True)
class IterationConfig:
    """The numerics of one run; the only place their defaults are defined."""

    n: int = 1024
    r: float = 0.2
    eps: float = 1e-11
    max_iter: int = 100

    def __post_init__(self):
        # keep the gates' doubles: a float32 r would carry single precision on
        object.__setattr__(self, "n", _check_pow2(self.n, "n"))
        object.__setattr__(self, "max_iter", as_int("max_iter", self.max_iter, 1))
        object.__setattr__(self, "r", as_real("r", self.r, 0.0, 1.0, lo_open=True))
        object.__setattr__(self, "eps", as_real("eps", self.eps, 0.0, lo_open=True))


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
    last level, which is always at ``cfg.n``.

    The result also holds the kernel that ``map`` was solved on, and no
    older one, until ``take_kernel`` hands it to the next solve on the same
    geometry."""

    params: list
    map: object
    error_history: list
    gmres_history: list
    levels: list
    converged: bool
    omega: object
    cfg: IterationConfig
    _kernel: KernelSet = field(default=None, init=False, repr=False, compare=False)

    @property
    def iterations(self):
        return len(self.error_history)

    def take_kernel(self):
        """The kernel of ``map``, which the caller now owns and may
        ``reangle``; the result lets go of it.  When it holds none (taken
        before), one is assembled on ``map.bp``."""
        ks, self._kernel = self._kernel, None
        return ks if ks is not None else KernelSet(self.map.bp, self.map.theta)

    def require_converged(self):
        """Raise ConvergenceError unless the iteration met its tolerance."""
        if not self.converged:
            raise ConvergenceError(
                f"preimage iteration did not reach {self.cfg.eps} at "
                f"n={self.levels[-1].n} in {self.cfg.max_iter} iterations "
                f"(last error {self.error_history[-1]:.3e})",
                history=self.error_history,
            )


def _check_memory(m, n):
    """Raise MemoryLimitError when the dense N and M1 for m holes at n nodes
    per component exceed the machine's physical memory."""
    need = dense_bytes(m, n)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise MemoryLimitError(
            f"kernels for n={n}, m={m} need {need} bytes, more than the "
            f"{have} bytes of physical memory; choose a smaller n"
        )


def initialize(omega, cfg):
    """Thin ellipses on the slits: center c_j, major axis (1 - r/2) ell_j.
    An r too large for the slits raises OverlapError, which names
    ``clearance_ratio``'s bound when r exceeds it."""
    shrink = 1.0 - 0.5 * cfg.r
    params = [
        EllipseParams(z=s.c, a=shrink * s.ell, theta=s.theta, r=cfg.r)
        for s in omega.slits
    ]
    try:
        build_preimage_boundary(params, cfg.n)
    except OverlapError as exc:
        bound = clearance_ratio(omega)
        if bound < cfg.r:
            raise OverlapError(f"{exc}; facing parallel slits allow r <= {bound:.6g}") from None
        raise
    return params


def iterate(omega, cfg=IterationConfig(), progress=None):
    """Run the fixed-point iteration until the mismatch drops below eps.

    The run climbs the doubling ladder n0 = min(cfg.n, LADDER_START), 2 n0,
    ..., cfg.n, and each level starts from the parameters of the last
    resolved level below it, or from ``initialize`` while none has
    resolved.  A coarse level that does not resolve the geometry (the
    largest ``h_dev`` of its first solve reaches RESOLVED_H_DEV, it misses
    eps, or it raises GeometryError or ConvergenceError) hands nothing up.
    ``max_iter`` caps each level, and the top level alone decides
    ``converged``.

    ``progress``, when given, receives one dict per outer step (k counted
    over all levels, n, error, gmres_iters, elapsed_ms).  Returns the full
    history whether or not the tolerance was met.  A cfg.n whose kernels
    cannot fit in physical memory raises MemoryLimitError before any work.
    """
    _check_memory(omega.m, cfg.n)  # initialize already builds the boundary at cfg.n
    params = initialize(omega, cfg)
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
    n = min(cfg.n, LADDER_START)
    while n < cfg.n:
        try:
            if _run_level(result, start, n, progress, coarse=True):
                start = result.params
        except (GeometryError, ConvergenceError):  # OverlapError is a GeometryError
            pass  # unresolved, like a level that returns False
        n *= 2
    result.converged = _run_level(result, start, cfg.n, progress)
    return result


def _run_level(result, params, n, progress, coarse=False):
    """Up to ``max_iter`` outer steps at n from ``params``, appended to the
    histories of ``result``; leaves the last solved parameters and map in
    it and the level in ``result.levels``, also when a step raises.
    Returns whether the level resolved: it met eps, and a coarse level's
    first solve had a largest ``h_dev`` below RESOLVED_H_DEV (else it stops).
    ``result`` keeps the kernel of its map, and the last step's kernel is
    dropped before the next is assembled.
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
            # at most one kernel alive: the last step's goes before the next
            result._kernel = None
            ks = KernelSet(bp, omega.theta)
            md = build_map(ks)
            centers, lengths = extract_slit_images(md)
            result.params, result.map, result._kernel = list(params), md, ks
            del ks
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
