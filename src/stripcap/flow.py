"""Uniform potential flow past slit obstacles in the strip.

The complex potential is the conformal map from the slit strip onto a
horizontal-slit strip (the canonical map with all component angles zero),
composed with the inverse of the original map.  Obstacles and channel walls
then sit on level curves of the imaginary part.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import HALF_PI, as_int, as_points, as_real, point_segment_distance
from .stripmap import build_map, inverse_map


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            object.__setattr__(self, name, as_real(f"grid bound {name}", getattr(self, name)))
        for name in ("nx", "ny"):
            object.__setattr__(self, name, as_int(name, getattr(self, name), 2))
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("empty grid range")

    def axes(self):
        return (
            np.linspace(self.x_min, self.x_max, self.nx),
            np.linspace(self.y_min, self.y_max, self.ny),
        )


@dataclass
class FlowField:
    grid: GridSpec
    psi_values: np.ndarray  # shape (ny, nx), nan where masked
    slit_levels: np.ndarray
    failures: int = 0

    @property
    def mask(self):
        """True where the stream function is defined."""
        return np.isfinite(self.psi_values)


def horizontal_slit_map(pre):
    """Second canonical map from the converged preimage: all angles zero,
    solved on ``pre``'s kernel, which it takes and re-angles.  Raises
    ConvergenceError when the preimage iteration missed its tolerance."""
    pre.require_converged()
    return build_map(pre.take_kernel().reangle(np.zeros(pre.map.m + 1)))


def complex_potential(pre, upsilon, points):
    """W(z) on points of the slit strip: forward horizontal-slit map
    composed with the inverse of the original map.

    As in inverse_map, a non-finite point raises ValueError, a point outside
    the strip GeometryError, and a point inside it that the sampled outer
    boundary does not resolve gives nan+nanj.
    """
    pts, shaped = as_points(points)
    w = inverse_map(pre.map, pts)
    vals = np.full(pts.shape, complex(np.nan, np.nan))
    ok = np.isfinite(w)
    vals[ok] = upsilon.eval(w[ok])
    return shaped(vals)


def slit_stream_levels(upsilon):
    """Constant stream value carried by each obstacle (mean of Im on its
    image; the spread is a diagnostic, not removed)."""
    return np.array(
        [upsilon.zeta[j].imag.mean() for j in range(1, upsilon.m + 1)]
    )


def stream_grid(pre, upsilon, grid, exclusion=0.02):
    """Sample Im W on a rectangular grid, masking excluded points.

    Masked: outside the open strip, within ``exclusion`` (finite, >= 0) of
    any slit, or beyond the sampled outer boundary, where complex_potential
    gives NaN; the last kind is counted in ``failures``.  All unmasked
    points go through one batched complex_potential call.
    """
    exclusion = as_real("exclusion", exclusion, 0.0)
    xs, ys = grid.axes()
    X, Y = np.meshgrid(xs, ys)
    Z = X + 1j * Y
    mask = np.abs(Z.imag) < HALF_PI - 1e-12
    for s in pre.omega.slits:
        mask &= point_segment_distance(Z, s.a, s.b) > exclusion
    psi_values = np.full(Z.shape, np.nan)
    psi_values[mask] = complex_potential(pre, upsilon, Z[mask]).imag
    failures = int((mask & ~np.isfinite(psi_values)).sum())
    return FlowField(
        grid=grid,
        psi_values=psi_values,
        slit_levels=slit_stream_levels(upsilon),
        failures=failures,
    )
