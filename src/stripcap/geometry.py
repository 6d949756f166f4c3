"""Slit-strip domains, smooth preimage boundaries, and FFT utilities.

Coordinates live in two worlds: the infinite strip ``|Im z| < pi/2`` with
rectilinear slits removed (the target domain), and the unit disk minus m
smooth holes (the preimage domain).  The elementary map between them is
``psi``/``psi_inv``.  Boundary curves are sampled at ``n`` equidistant
parameter nodes per component with spectral (FFT) differentiation, so ``n``
is restricted to powers of two.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, OverlapError

HALF_PI = 0.5 * np.pi


# ---------------------------------------------------------------------------
# elementary maps
# ---------------------------------------------------------------------------


def psi(w):
    """Map the unit disk onto the strip ``|Im| < pi/2``: log((1+w)/(1-w)).

    Principal branch; ``w = +-1`` are the poles and are rejected.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(w == 1.0) or np.any(w == -1.0):
        raise GeometryError("psi is singular at w = +1 and w = -1")
    out = np.log((1.0 + w) / (1.0 - w))
    if out.ndim == 0:
        return complex(out)
    return out


def psi_inv(zeta):
    """Inverse of :func:`psi`: tanh(zeta/2), entire on the strip."""
    out = np.tanh(np.asarray(zeta, dtype=complex) / 2.0)
    if out.ndim == 0:
        return complex(out)
    return out


def psi_inv_deriv(zeta):
    """d/dzeta tanh(zeta/2) = (1 - tanh(zeta/2)^2)/2."""
    th = np.tanh(np.asarray(zeta, dtype=complex) / 2.0)
    return 0.5 * (1.0 - th * th)


# ---------------------------------------------------------------------------
# FFT helpers (periodic, power-of-two grids)
# ---------------------------------------------------------------------------


def _check_pow2(n):
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"node count must be a power of two >= 8, got {n}")


def trig_derivative(samples):
    """Spectral derivative of 2*pi-periodic samples on an equidistant grid.

    Fourier coefficients are multiplied by ``i*k``; the Nyquist mode is
    zeroed.  Exact (to rounding) for trigonometric polynomials of degree
    below n/2.
    """
    samples = np.asarray(samples)
    n = samples.shape[-1]
    _check_pow2(n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    return np.fft.ifft(np.fft.fft(samples, axis=-1) * (1j * k), axis=-1)


def trig_interp(samples, tq):
    """Evaluate the trigonometric interpolant of ``samples`` at points ``tq``.

    The Nyquist coefficient is treated as a pure cosine so real data stay
    real.  Cost O(n) per query point; used for sub-grid refinement.
    """
    samples = np.asarray(samples)
    n = samples.shape[-1]
    _check_pow2(n)
    c = np.fft.fft(samples) / n
    tq = np.asarray(tq, dtype=float)
    k = np.fft.fftfreq(n, d=1.0 / n)
    # split off the Nyquist mode: c_{n/2} e^{-i(n/2)t} -> c_{n/2} cos((n/2) t)
    cn = c[n // 2]
    c = c.copy()
    c[n // 2] = 0.0
    ph = np.exp(1j * np.outer(tq, k))
    vals = ph @ c + cn * np.cos((n // 2) * tq)
    return vals


def trig_interp_maximizer(samples, sign=1.0):
    """Locate an extremum of the trig interpolant of real ``samples``.

    Starts from the grid arg-extremum and polishes with at most 30 Newton
    steps on the spectral derivative; returns (t_star, value).  ``sign=+1``
    finds the maximum, ``sign=-1`` the minimum.  Grid-level quadratic refinement alone
    leaves an O(h^4) bias in the extremum value, far above the preimage
    iteration's eps (1e-11 by default), hence the Newton polish.
    """
    u = np.asarray(samples, dtype=float)
    n = u.shape[0]
    _check_pow2(n)
    c = np.fft.fft(u) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    # the Nyquist mode is c_{n/2} cos((n/2) t), as in trig_interp: half its
    # coefficient at each of the wavenumbers -n/2 and +n/2
    c[n // 2] *= 0.5
    c = np.append(c, c[n // 2])
    k = np.append(k, n // 2)
    c1 = c * (1j * k)
    c2 = c1 * (1j * k)
    i0 = int(np.argmax(sign * u))
    t = 2.0 * np.pi * i0 / n
    h = 2.0 * np.pi / n
    scale = max(1.0, np.abs(u).max())
    for _ in range(30):
        ph = np.exp(1j * k * t)
        du = (c1 @ ph).real
        d2u = (c2 @ ph).real
        if sign * d2u >= 0.0:
            break  # left the basin; keep current point
        step = du / d2u
        step = np.clip(step, -h, h)
        t -= step
        if abs(du) < 1e-15 * scale:
            break
    ph = np.exp(1j * k * t)
    val = (c @ ph).real
    return t % (2.0 * np.pi), val


# ---------------------------------------------------------------------------
# domain description
# ---------------------------------------------------------------------------


def _norm_theta(th):
    """Wrap an angle into (-pi/2, pi/2]; a slit equals its reversal."""
    th = (th + HALF_PI) % np.pi - HALF_PI
    if th <= -HALF_PI + 0.0:  # boundary case from the modulo
        th += np.pi
    if th == -0.0:
        th = 0.0
    return th


@dataclass(frozen=True)
class SlitSpec:
    """One rectilinear slit [a, b] strictly inside the strip."""

    a: complex
    b: complex

    def __post_init__(self):
        for name in ("a", "b"):
            z = getattr(self, name)
            if not cmath.isfinite(z):
                raise GeometryError(f"slit endpoint {name} is not finite: {z}")
        if abs(self.a.imag) >= HALF_PI or abs(self.b.imag) >= HALF_PI:
            raise GeometryError(
                f"slit endpoints must satisfy |Im| < pi/2: {self.a}, {self.b}"
            )
        if self.a == self.b:
            raise GeometryError("slit endpoints coincide")

    @property
    def c(self):
        return 0.5 * (self.a + self.b)

    @property
    def ell(self):
        return abs(self.b - self.a)

    @property
    def theta(self):
        return _norm_theta(float(np.angle(self.b - self.a)))


def point_segment_distance(z, a, b):
    """Distance from point(s) z to the segment [a, b], vectorized."""
    z = np.asarray(z, dtype=complex)
    d = b - a
    t = np.clip(((z - a) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
    return np.abs(z - (a + t * d))


def segments_cross(p0, p1, q0, q1):
    """Whether [p0,p1] and [q0,q1] cross, by orientation signs; broadcasts."""

    def orient(o, u, v):
        # Im((u - o) conj(v - o)) > 0 with one product at the broadcast shape
        d = u - o
        return (d * np.conj(v)).imag > (d * np.conj(o)).imag

    return (orient(p0, p1, q0) != orient(p0, p1, q1)) & (
        orient(q0, q1, p0) != orient(q0, q1, p1)
    )


def segment_distance(p0, p1, q0, q1):
    """Exact minimum distance between segments [p0,p1] and [q0,q1] in C."""
    if segments_cross(p0, p1, q0, q1):
        return 0.0
    return float(
        min(
            point_segment_distance([q0, q1], p0, p1).min(),
            point_segment_distance([p0, p1], q0, q1).min(),
        )
    )


@dataclass(frozen=True)
class StripSlitDomain:
    """The strip minus m pairwise disjoint rectilinear slits."""

    slits: tuple

    def __init__(self, slits):
        slits = tuple(slits)
        if len(slits) < 1:
            raise GeometryError("need at least one slit")
        for i in range(len(slits)):
            for j in range(i + 1, len(slits)):
                d = segment_distance(
                    slits[i].a, slits[i].b, slits[j].a, slits[j].b
                )
                if d <= 1e-12:
                    raise OverlapError(
                        f"slits {i} and {j} are not disjoint (distance {d:.2e})"
                    )
        object.__setattr__(self, "slits", slits)

    @property
    def m(self):
        return len(self.slits)

    @property
    def theta(self):
        """Component angle vector (theta_0 = 0 for the unit circle)."""
        return np.array([0.0] + [s.theta for s in self.slits])

    @classmethod
    def from_dict(cls, data):
        slits = []
        for i, entry in enumerate(data["slits"]):
            try:
                (ax, ay), (bx, by) = entry["a"], entry["b"]
                ends = complex(ax, ay), complex(bx, by)
            except (KeyError, TypeError, ValueError):
                raise GeometryError(
                    f"slits[{i}] must be {{'a': [x, y], 'b': [x, y]}} with "
                    f"numbers x, y, got {entry!r}"
                ) from None
            slits.append(SlitSpec(*ends))
        return cls(slits)


@dataclass(frozen=True)
class EllipseParams:
    """Intermediate-domain ellipse: center z, major axis a, tilt theta, ratio r."""

    z: complex
    a: float
    theta: float
    r: float

    def __post_init__(self):
        if not (0.0 < self.r <= 1.0):
            raise GeometryError(f"aspect ratio must be in (0, 1], got {self.r}")
        if self.a <= 0.0:
            raise GeometryError(f"major axis must be positive, got {self.a}")


def parametrize_ellipse(p, n):
    """Samples of the ellipse boundary and its derivative at 2*pi*i/n.

    The parametrization z + 0.5*a*e^{i theta}(cos t - i r sin t) runs
    clockwise, which is the orientation required of inner components.
    """
    _check_pow2(n)
    t = 2.0 * np.pi * np.arange(n) / n
    rot = 0.5 * p.a * np.exp(1j * p.theta)
    eta = p.z + rot * (np.cos(t) - 1j * p.r * np.sin(t))
    eta_dot = -rot * (np.sin(t) + 1j * p.r * np.cos(t))
    return eta, eta_dot


# ---------------------------------------------------------------------------
# sampled boundaries
# ---------------------------------------------------------------------------


class BoundaryParametrization:
    """Sampled boundary of a multiply connected domain inside the unit disk.

    ``eta`` and ``eta_dot`` have shape (m+1, n): row 0 is the unit circle
    (counterclockwise), rows 1..m the hole boundaries (clockwise).  Immutable
    after construction.
    """

    def __init__(self, eta, eta_dot):
        eta = np.asarray(eta, dtype=complex)
        eta_dot = np.asarray(eta_dot, dtype=complex)
        if eta.shape != eta_dot.shape or eta.ndim != 2:
            raise ValueError("eta and eta_dot must share a 2-D shape")
        _check_pow2(eta.shape[1])
        self.eta = eta
        self.eta_dot = eta_dot
        self.eta.setflags(write=False)
        self.eta_dot.setflags(write=False)
        self.m = eta.shape[0] - 1
        self.n = eta.shape[1]

    @property
    def flat_eta(self):
        return self.eta.reshape(-1)

    @property
    def flat_eta_dot(self):
        return self.eta_dot.reshape(-1)


def pairwise_differences(nodes, targets):
    """Yield ``(rows, x, y)``, the real and imaginary parts of
    ``nodes[None, :] - targets[rows, None]``, for row slices of ``targets``
    of about 2^16 elements each.

    Every dense (targets x nodes) loop of the package -- kernel assembly,
    Cauchy sums and winding numbers -- takes its differences from here.
    ``x`` and ``y`` are views of two real buffers of about 512 KiB that are
    allocated once per call and overwritten for every chunk, so a
    consumer's passes over a chunk stay in cache.  Consumers may work on
    them in place but must not keep them past the next chunk.
    """
    nn, nt = nodes.shape[0], targets.shape[0]
    step = max(1, (1 << 16) // max(1, nn))
    xbuf = np.empty(min(step, nt) * nn)
    ybuf = np.empty_like(xbuf)
    for p0 in range(0, nt, step):
        rows = slice(p0, min(p0 + step, nt))
        size = (rows.stop - rows.start) * nn
        x = xbuf[:size].reshape(-1, nn)
        y = ybuf[:size].reshape(-1, nn)
        # a row copy and an in-place subtraction run faster than one
        # broadcast subtraction into ``out``
        x[...] = nodes.real
        x -= targets.real[rows, None]
        y[...] = nodes.imag
        y -= targets.imag[rows, None]
        yield rows, x, y


def winding_number(curve, w):
    """Discrete winding number of a sampled closed curve about point(s) w."""
    curve = np.asarray(curve)
    w_in = np.asarray(w, dtype=complex)
    scalar = w_in.ndim == 0
    wv = np.atleast_1d(w_in)
    res = np.empty(wv.shape[0], dtype=int)
    for rows, x, y in pairwise_differences(curve, wv):
        # the angle of z_{k+1} conj(z_k) is that of z_{k+1}/z_k, with no
        # division by a node that coincides with a point
        xn = np.roll(x, -1, axis=1)
        yn = np.roll(y, -1, axis=1)
        re = xn * x
        re += yn * y
        im = yn * x
        im -= xn * y
        res[rows] = np.rint(np.arctan2(im, re).sum(axis=1) / (2.0 * np.pi))
    return int(res[0]) if scalar else res


def build_preimage_boundary(params, n):
    """Boundary of the preimage domain from a list of ellipse parameters.

    Component 0 is the unit circle; components 1..m are psi_inv images of
    the ellipses, with derivatives by the chain rule.  Raises OverlapError
    if two of the resulting curves cross or one lies inside the other, and
    GeometryError if a curve leaves the strip or the open unit disk.
    """
    _check_pow2(n)
    t = 2.0 * np.pi * np.arange(n) / n
    m = len(params)
    eta = np.empty((m + 1, n), dtype=complex)
    eta_dot = np.empty((m + 1, n), dtype=complex)
    eta[0] = np.exp(1j * t)
    eta_dot[0] = 1j * eta[0]
    for j, p in enumerate(params, start=1):
        hat, hat_dot = parametrize_ellipse(p, n)
        if np.abs(hat.imag).max() >= HALF_PI:
            raise GeometryError(f"ellipse {j} leaves the strip")
        eta[j] = psi_inv(hat)
        eta_dot[j] = psi_inv_deriv(hat) * hat_dot
        if np.abs(eta[j]).max() >= 1.0:
            raise GeometryError(f"curve {j} touches the unit circle")
    # the sampled polylines overlap if two of their edges cross, or else if
    # one curve winds about a node of the other
    poly = eta[:, :: max(1, n // 256)]
    ends = np.roll(poly, -1, axis=1)
    advice = "choose a smaller aspect ratio r"
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if segments_cross(poly[i, :, None], ends[i, :, None], poly[j], ends[j]).any():
                raise OverlapError(f"preimage curves {i} and {j} intersect; {advice}")
            if winding_number(poly[i], poly[j, 0]) or winding_number(poly[j], poly[i, 0]):
                raise OverlapError(f"preimage curves {i} and {j} are nested; {advice}")
    return BoundaryParametrization(eta, eta_dot)
