"""The canonical map from a smooth-boundary domain onto a slit strip.

Given the sampled boundary of a domain G (unit disk minus m holes) and a
component angle vector, the map Phi sending G onto the strip with m
rectilinear slits of those inclinations is

    Phi(w) = -(i - alpha) f(i) + (w - alpha) f(w) + psi(w)

where f is analytic in G with boundary values A f = gamma + h + i rho
recovered from one boundary-integral solve and alpha is the base point of
A.  (With alpha = 0 this is the familiar -i f(i) + w f(w) + psi(w) form;
the shifted version is forced whenever 0 falls inside a hole, since the
slit images stay rectilinear only when the map pairs with the same base
point as A.)  Phi fixes the normalization Phi(+-1) = +-infinity and
Phi(i) = i pi/2; since i is a boundary node of the outer circle, f(i) is
read off the solved boundary data directly.
"""

import numpy as np

from .errors import GeometryError
from .geometry import (
    HALF_PI,
    as_array,
    as_points,
    psi,
    psi_inv,
    trig_derivative,
    trig_extrema,
    trig_interp,
    winding_number,
)
from .solver import cauchy_eval, solve_bie


def _near_poles(w):
    """Where w lies within 1e-13 of the poles +-1 of psi (the outer node at
    -1 is e^{i pi} = -1 + 1.2e-16i in floating point)."""
    return (np.abs(w - 1.0) < 1e-13) | (np.abs(w + 1.0) < 1e-13)


def strip_gamma(bp, theta):
    """Right-hand data for the slit-strip map, shape (m+1, n): 0 on the
    circle, the rotated height Im[e^{-i theta_j} psi(eta)] on each hole
    boundary."""
    theta = as_array("theta", theta, float)
    gamma = np.zeros((bp.m + 1, bp.n))
    for j in range(1, bp.m + 1):
        if _near_poles(bp.eta[j]).any():
            raise GeometryError(f"inner curve {j} touches the branch points +-1")
        gamma[j] = (np.exp(-1j * theta[j]) * psi(bp.eta[j])).imag
    return gamma


class MapData:
    """Solved state of one canonical map; immutable after construction."""

    def __init__(self, bp, theta, alpha, solution, f_boundary, f_at_i):
        self.bp = bp
        self.theta = np.asarray(theta, dtype=float)
        self.alpha = alpha
        self.solution = solution
        self.f_boundary = f_boundary
        self.f_at_i = f_at_i
        self.zeta = self._boundary_image()
        self.zeta_tilde = self._bounded_image()
        self.zeta_tilde_dot = trig_derivative(self.zeta_tilde)

    def _affine(self, w, f):
        """The part of Phi besides psi: -(i - alpha) f(i) + (w - alpha) f(w)."""
        return -(1j - self.alpha) * self.f_at_i + (w - self.alpha) * f

    def _boundary_image(self):
        """zeta(t) = Phi(eta(t)); the outer nodes at eta = +-1 get the exact
        limits +-infinity + i*0 (strip_gamma keeps the holes off them)."""
        eta = self.bp.eta
        poles = _near_poles(eta)
        vals = np.zeros_like(eta)
        vals[~poles] = psi(eta[~poles])
        zeta = self._affine(eta, self.f_boundary) + vals
        zeta[poles] = np.where(eta[poles].real > 0, np.inf, -np.inf)
        return zeta

    def _bounded_image(self):
        """psi_inv(zeta(t)) through the pole-free form

            tanh((a + psi(w))/2) = (e^a (1+w) - (1-w)) / (e^a (1+w) + (1-w))

        with a = Phi(w) - psi(w) from _affine; finite and smooth through
        w = +-1."""
        w = self.bp.eta
        B = np.exp(self._affine(w, self.f_boundary))
        p = B * (1.0 + w)
        q = 1.0 - w
        return (p - q) / (p + q)

    @property
    def m(self):
        return self.bp.m

    def eval(self, points):
        """Forward map Phi at strictly interior points of G.

        A non-finite point raises ValueError, and a point on or outside the
        unit circle, or on the boundary, GeometryError.  A point inside a
        hole is not detected and gives a meaningless value: a winding test
        per hole would cost the flow grid about half again (3.4 s against
        2.3 s for criterion 9's 400x200 grid on the channel at n=512).
        """
        pts, shaped = as_points(points)
        if (np.abs(pts) >= 1.0).any():
            raise GeometryError("evaluation point outside the unit disk")
        fvals = cauchy_eval(self.bp.eta, self.bp.eta_dot, self.f_boundary, pts)
        return shaped(self._affine(pts, fvals) + psi(pts))


def build_map(ks, level=None):
    """Solve the boundary integral equation on the caller's kernel ``ks``
    (``level`` as in ``solve_bie``) and assemble the map data for its
    geometry and angles.  The map keeps no reference to ``ks``."""
    bp, theta = ks.bp, ks.theta
    gamma = strip_gamma(bp, theta)
    sol = solve_bie(ks, gamma, level)
    f_boundary = (gamma + sol.h[:, None] + 1j * sol.rho) / ks.A
    # eta_0(n/4) = e^{i pi/2} = i exactly: f(i) is a boundary node value
    f_at_i = complex(f_boundary[0, bp.n // 4])
    return MapData(bp, theta, ks.alpha, sol, f_boundary, f_at_i)


def extract_slit_images(md):
    """Centers and lengths of the mapped slits, as two length-m arrays, from
    the boundary image.

    Projects u(t) = Re[e^{-i theta_j} zeta_j(t)], locates both extrema of
    its trigonometric interpolant by Newton refinement and reads zeta_j's
    interpolant there, so the extracted parameters are spectrally accurate
    (grid-level refinement would cap the preimage iteration around 1e-9).
    """
    centers = np.empty(md.m, dtype=complex)
    lengths = np.empty(md.m)
    for j in range(1, md.m + 1):
        rot = np.exp(-1j * md.theta[j])
        u = (rot * md.zeta[j]).real
        (t_lo, u_lo), (t_hi, u_hi) = trig_extrema(u)
        length = u_hi - u_lo
        if length < 1e-13:
            raise GeometryError(f"slit image {j} is degenerate")
        z_hi, z_lo = trig_interp(md.zeta[j], [t_hi, t_lo])
        centers[j - 1] = 0.5 * (z_hi + z_lo)
        lengths[j - 1] = length
    return centers, lengths


def inverse_map(md, points):
    """Phi^{-1} at points of the slit strip via the bounded companion domain.

    Works through g = Phi^{-1} o psi: the image zeta~(t) = psi_inv(zeta(t))
    bounds a domain inside the unit disk where g has boundary values eta(t),
    so g is recovered by the normalized Cauchy sum with spectrally
    differentiated zeta~.

    A non-finite point raises ValueError and a point outside the strip
    GeometryError.  A point inside it gives nan+nanj where the sampled outer
    boundary zeta~_0 does not wind around it once (near the walls far out,
    beyond what n nodes resolve) or where psi_inv rounds it to within 1e-13
    of the nodes +-1 of zeta~_0 (|Re z| beyond about 30.6, at every n).
    """
    pts, shaped = as_points(points)
    if np.any(np.abs(pts.imag) >= HALF_PI):
        raise GeometryError("point outside the strip")
    zt = psi_inv(pts)
    inside = (winding_number(md.zeta_tilde[0], zt) == 1) & ~_near_poles(zt)
    vals = np.full(pts.shape, complex(np.nan, np.nan))
    vals[inside] = cauchy_eval(md.zeta_tilde, md.zeta_tilde_dot, md.bp.eta, zt[inside])
    return shaped(vals)

