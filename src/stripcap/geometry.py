"""Slit-strip domains, smooth preimage boundaries, and FFT utilities.

Coordinates live in two worlds: the infinite strip ``|Im z| < pi/2`` with
rectilinear slits removed (the target domain), and the unit disk minus m
smooth holes (the preimage domain).  The elementary map between them is
``psi``/``psi_inv``.  Boundary curves are sampled at ``n`` equidistant
parameter nodes per component with spectral (FFT) differentiation, so ``n``
is restricted to powers of two.
"""

import cmath
import os
import threading
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
    zeroed, as the derivative of its cosine (see ``_spectrum``) vanishes at
    every node.  Exact (to rounding) for trigonometric polynomials of degree
    below n/2.
    """
    samples = np.asarray(samples)
    n = samples.shape[-1]
    _check_pow2(n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    return np.fft.ifft(np.fft.fft(samples, axis=-1) * (1j * k), axis=-1)


def _spectrum(samples):
    """Coefficients c and wavenumbers k of the trigonometric interpolant
    sum_k c_k e^{ikt} of 2*pi-periodic samples on n equidistant nodes.

    The Nyquist mode is the cosine c_{n/2} cos((n/2) t), so real data stay
    real: half its coefficient sits at -n/2 and half at +n/2, and both
    arrays have n + 1 entries.
    """
    samples = np.asarray(samples)
    n = samples.shape[-1]
    _check_pow2(n)
    c = np.fft.fft(samples) / n
    c[n // 2] *= 0.5
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.append(c, c[n // 2]), np.append(k, n // 2)


def trig_interp(samples, tq):
    """Evaluate the trigonometric interpolant of ``samples`` at points ``tq``.

    Cost O(n) per query point; used for sub-grid refinement.
    """
    c, k = _spectrum(samples)
    return np.exp(1j * np.outer(np.asarray(tq, dtype=float), k)) @ c


def trig_extrema(samples):
    """Minimum and maximum of the trig interpolant of real ``samples``.

    Each starts from the grid arg-extremum and is polished with at most 30
    Newton steps on the spectral derivative; returns ((t_min, u_min),
    (t_max, u_max)).  Grid-level quadratic refinement alone leaves an
    O(h^4) bias in the extremum value, far above the preimage iteration's
    eps (1e-11 by default), hence the Newton polish.
    """
    u = np.asarray(samples, dtype=float)
    n = u.shape[0]
    c, k = _spectrum(u)
    c1 = c * (1j * k)
    c2 = c1 * (1j * k)
    h = 2.0 * np.pi / n
    scale = max(1.0, np.abs(u).max())
    extrema = []
    for sign in (-1.0, 1.0):
        t = 2.0 * np.pi * int(np.argmax(sign * u)) / n
        for _ in range(30):
            ph = np.exp(1j * k * t)
            du = (c1 @ ph).real
            d2u = (c2 @ ph).real
            if sign * d2u >= 0.0:
                break  # left the basin; keep current point
            t -= np.clip(du / d2u, -h, h)
            if abs(du) < 1e-15 * scale:
                break
        extrema.append((t % (2.0 * np.pi), (c @ np.exp(1j * k * t)).real))
    return tuple(extrema)


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
        for i, s in enumerate(slits):
            if not isinstance(s, SlitSpec):
                raise GeometryError(f"slits[{i}] must be a SlitSpec, got {s!r}")
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
        for name in ("z", "a", "theta"):
            v = getattr(self, name)
            if not cmath.isfinite(v):
                raise GeometryError(f"ellipse {name} is not finite: {v}")
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


# Every dense pairwise loop deals its row chunks to this many workers, one
# per CPU this process may run on: the calling thread and WORKERS - 1
# threads started for the call and joined before it returns
WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _chunks(nn, nt):
    """Row slices of ``nt`` targets against ``nn`` nodes, of about
    2^16 / WORKERS elements each, cut from the one-worker grid of about
    2^16 elements per chunk: each of its chunks splits into at most WORKERS
    pieces of at least two rows.  numpy's matmul sends a one-row chunk to
    BLAS gemv and a longer one to gemm, whose bits differ, so a row takes
    the same path for every worker count.  Targets that fit in one chunk
    stay whole: there a thread handoff costs more than it saves (cap4's
    winding tests took 0.04 s split, 0.02 s whole)."""
    step = max(1, (1 << 16) // max(1, nn))
    chunks = []
    for p0 in range(0, nt, step):
        k = min(step, nt - p0)
        parts = max(1, min(WORKERS, k // 2)) if nt > step else 1
        cuts = [p0 + k * i // parts for i in range(parts + 1)]
        chunks += map(slice, cuts[:-1], cuts[1:])
    return chunks


def pairwise_chunks(nodes, targets, body):
    """Call ``body(rows, x, y)`` for row slices ``rows`` that cover
    ``targets`` once, where ``x`` and ``y`` are the real and imaginary parts
    of ``nodes[None, :] - targets[rows, None]``.

    Every dense (targets x nodes) loop of the package -- kernel assembly,
    Cauchy sums and winding numbers -- is such a body.  The chunks are dealt
    round-robin to ``WORKERS`` workers: the calling thread and one thread
    started per further worker, all joined before the call returns, so no
    thread outlives it; a single chunk starts none.  Each worker refills
    two real buffers of its own for each of its chunks, so a body's passes
    over a chunk stay in cache.  A body may work on ``x`` and ``y`` in
    place but must not keep them.  It writes only to its own ``rows`` of
    its outputs, sets any ``np.errstate`` it needs itself (numpy keeps one
    per thread), and calls no other function of the package, so that a
    tracer's spans all stay on the calling thread.  Every entry comes from
    the same operations whatever the worker count, so results are
    bit-identical.  An exception in a body reaches the caller once every
    worker has finished: the caller's own first, else the one of the
    lowest-numbered worker.
    """
    nn = nodes.shape[0]
    chunks = _chunks(nn, targets.shape[0])
    workers = max(1, min(WORKERS, len(chunks)))
    errors = [None] * workers

    def work(first):
        mine = chunks[first::workers]
        xbuf = np.empty(max((rows.stop - rows.start for rows in mine), default=0) * nn)
        ybuf = np.empty_like(xbuf)
        for rows in mine:
            size = (rows.stop - rows.start) * nn
            x = xbuf[:size].reshape(-1, nn)
            y = ybuf[:size].reshape(-1, nn)
            # a row copy and an in-place subtraction run faster than one
            # broadcast subtraction into ``out``
            x[...] = nodes.real
            x -= targets.real[rows, None]
            y[...] = nodes.imag
            y -= targets.imag[rows, None]
            body(rows, x, y)

    def run(first):
        try:
            work(first)
        except BaseException as exc:
            errors[first] = exc

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc


def winding_number(curve, w):
    """Discrete winding number of a sampled closed curve about point(s) w."""
    curve = np.asarray(curve)
    w_in = np.asarray(w, dtype=complex)
    scalar = w_in.ndim == 0
    wv = np.atleast_1d(w_in)
    res = np.empty(wv.shape[0], dtype=int)

    def count(rows, x, y):
        # the angle of z_{k+1} conj(z_k) is that of z_{k+1}/z_k, with no
        # division by a node that coincides with a point
        xn = np.roll(x, -1, axis=1)
        yn = np.roll(y, -1, axis=1)
        re = xn * x
        re += yn * y
        im = yn * x
        im -= xn * y
        res[rows] = np.rint(np.arctan2(im, re).sum(axis=1) / (2.0 * np.pi))

    pairwise_chunks(curve, wv, count)
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
