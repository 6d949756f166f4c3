"""Slit-strip domains, smooth preimage boundaries, and FFT utilities.

Coordinates live in two worlds: the infinite strip ``|Im z| < pi/2`` with
rectilinear slits removed (the target domain), and the unit disk minus m
smooth holes (the preimage domain).  The elementary map between them is
``psi``/``psi_inv``.  Boundary curves are sampled at ``n`` equidistant
parameter nodes per component with spectral (FFT) differentiation, so ``n``
is restricted to powers of two.
"""

import os
import threading
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import GeometryError, MemoryLimitError, OverlapError

HALF_PI = 0.5 * np.pi


# ---------------------------------------------------------------------------
# elementary maps
# ---------------------------------------------------------------------------


def as_array(name, values, dtype):
    """``values`` as an array of ``dtype`` (float or complex), the one gate
    for arrays of numbers: a bool, string or object array, a complex array
    where ``dtype`` is float and a non-finite entry each raise ValueError
    naming ``name``.  An array that already has ``dtype`` comes back itself."""
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy's message for a ragged sequence names no array
        raise ValueError(f"{name} must be a rectangular array of numbers") from None
    if arr.dtype.kind not in ("iuf" if dtype is float else "iufc"):
        raise ValueError(f"{name} must hold {'real ' * (dtype is float)}numbers, not {arr.dtype}")
    arr = arr.astype(dtype, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr[~np.isfinite(arr)][:3]}")
    return arr


def as_complex(name, value):
    """``value`` as a Python complex, the gate for the complex fields of the
    geometry records: ``as_array``'s checks, and an array that is not a
    single number raises ValueError naming ``name``."""
    z = as_array(name, value, complex)
    if z.ndim:
        raise ValueError(f"{name} must be a number, not an array of shape {z.shape}")
    return complex(z)


def as_points(points):
    """``(flat, shaped)`` for evaluation points, the one gate every function
    that takes them goes through: ``flat`` holds the points of a scalar or of
    an array of any shape in one complex array, a non-finite point raises
    ValueError, and ``shaped(out)`` gives per-point results back as a Python
    scalar for a scalar and in the input's shape otherwise."""
    arr = as_array("evaluation points", points, complex)
    return arr.reshape(-1), lambda out: out.reshape(arr.shape) if arr.ndim else out.item()


def _is_number(value, kind):
    """Whether ``value`` is a ``kind`` (a ``numbers`` ABC) and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def as_int(name, value, lo):
    """``value`` as a Python int, the one gate for integer settings: a bool,
    a non-integer or a value below ``lo`` raises ValueError naming ``name``."""
    if not (_is_number(value, Integral) and value >= lo):
        raise ValueError(f"{name} must be an int >= {lo}, got {value!r}")
    return int(value)


def as_real(name, value, lo=-np.inf, hi=np.inf, lo_open=False, hi_open=False):
    """``value`` as a Python float, the one gate for real settings: a bool, a
    non-number, a non-finite value or one outside [lo, hi] (an end open when
    ``lo_open``/``hi_open``) raises ValueError naming ``name`` and the range."""
    try:
        x = float(value) if _is_number(value, Real) else np.nan
    except OverflowError:  # an int beyond the doubles
        x = np.nan
    if np.isfinite(x) and (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi):
        return x
    want = f"finite and {'>' if lo_open else '>='} {lo:.17g}" if lo > -np.inf else "a finite number"
    if hi < np.inf:
        want = f"in {'(' if lo_open else '['}{lo:.17g}, {hi:.17g}{')' if hi_open else ']'}"
    raise ValueError(f"{name} must be {want}, got {value!r}")


def check_memory(what, need, remedy):
    """The one memory rule: raise MemoryLimitError when ``what`` needs more
    than the machine's physical memory, ``need`` bytes, before any of it is
    allocated; the message names ``what`` and ends with ``remedy``."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise MemoryLimitError(
            f"{what} need {need} bytes, more than the {have} bytes of "
            f"physical memory; {remedy}"
        )


def psi(w):
    """Map the unit disk onto the strip ``|Im| < pi/2``: log((1+w)/(1-w)).

    Principal branch; ``w = +-1`` are the poles and are rejected.
    """
    w, shaped = as_points(w)
    if np.any(w == 1.0) or np.any(w == -1.0):
        raise GeometryError("psi is singular at w = +1 and w = -1")
    return shaped(np.log((1.0 + w) / (1.0 - w)))


def psi_inv(zeta):
    """Inverse of :func:`psi`: tanh(zeta/2), entire on the strip."""
    zeta, shaped = as_points(zeta)
    return shaped(np.tanh(zeta / 2.0))


# ---------------------------------------------------------------------------
# FFT helpers (periodic, power-of-two grids)
# ---------------------------------------------------------------------------


def _check_pow2(n, name="node count"):
    n = as_int(name, n, 8)
    if n & (n - 1):
        raise ValueError(f"{name} must be a power of two >= 8, got {n}")
    return n


def _node_count(samples):
    if samples.ndim == 0:
        raise ValueError(f"samples must be an array along the nodes, not the scalar {samples}")
    return _check_pow2(samples.shape[-1])


def trig_derivative(samples):
    """Spectral derivative of 2*pi-periodic samples on an equidistant grid.

    Fourier coefficients are multiplied by ``i*k``; the Nyquist mode is
    zeroed, as the derivative of its cosine (see ``_spectrum``) vanishes at
    every node.  Exact (to rounding) for trigonometric polynomials of degree
    below n/2.
    """
    samples = as_array("samples", samples, complex)
    n = _node_count(samples)
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    return np.fft.ifft(np.fft.fft(samples, axis=-1) * (1j * k), axis=-1)


def _spectrum(samples):
    """Coefficients c and wavenumbers k of the trigonometric interpolant
    sum_k c_k e^{ikt} of one row of 2*pi-periodic samples on n equidistant nodes.

    The Nyquist mode is the cosine c_{n/2} cos((n/2) t), so real data stay
    real: half its coefficient sits at -n/2 and half at +n/2, and both
    arrays have n + 1 entries.
    """
    samples = as_array("samples", samples, complex)
    n = _node_count(samples)
    if samples.ndim > 1:
        raise ValueError(f"samples must be one row of nodes, not an array of shape {samples.shape}")
    c = np.fft.fft(samples) / n
    c[n // 2] *= 0.5
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.append(c, c[n // 2]), np.append(k, n // 2)


def resample(samples, n):
    """Samples of the trigonometric interpolant of ``samples`` (along the
    last axis) at n equidistant nodes, n a power of two: spectral
    truncation when n is below the samples' count, zero-padding of the
    spectrum when above, and a copy when equal.

    Both directions keep ``_spectrum``'s Nyquist convention: padding splits
    the coarse Nyquist cosine into halves at -n0/2 and +n0/2, and
    truncation folds the fine modes at -n/2 and +n/2 onto the coarse
    Nyquist mode, so restricting after prolonging is the identity and
    prolongation agrees with ``trig_interp`` at the fine nodes.  Exact on
    trigonometric polynomials of degree below the smaller count's half;
    real samples give real ones.  No ``as_array``: per Krylov iteration, a
    ValueError would replace the ConvergenceError that ``iterate`` catches.
    """
    samples = np.asarray(samples)
    n0 = _node_count(samples)
    n = _check_pow2(n)
    if n == n0:
        return samples.copy()
    c = np.fft.fft(samples, axis=-1)
    h = min(n, n0) // 2
    out = np.zeros(samples.shape[:-1] + (n,), dtype=complex)
    out[..., :h] = c[..., :h]
    out[..., 1 - h :] = c[..., 1 - h :]
    if n > n0:
        out[..., h] = out[..., -h] = 0.5 * c[..., h]
    else:
        out[..., h] = c[..., h] + c[..., -h]
    out = np.fft.ifft(out, axis=-1) * (n / n0)
    return out if np.iscomplexobj(samples) else out.real


def trig_interp(samples, tq):
    """Evaluate the trigonometric interpolant of ``samples`` at points ``tq``.

    Cost O(n) per query point; used for sub-grid refinement.
    """
    c, k = _spectrum(samples)
    return np.exp(1j * np.outer(as_array("query points", tq, float), k)) @ c


def trig_extrema(samples):
    """Minimum and maximum of the trig interpolant of real ``samples``.

    Each starts from the grid arg-extremum and is polished with at most 30
    Newton steps on the spectral derivative; returns ((t_min, u_min),
    (t_max, u_max)).  Grid-level quadratic refinement alone leaves an
    O(h^4) bias in the extremum value, far above the preimage iteration's
    eps (1e-11 by default), hence the Newton polish.
    """
    u = as_array("samples", samples, float)
    n = u.size
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
        try:
            for name in ("a", "b"):
                z = as_complex(f"slit endpoint {name}", getattr(self, name))
                object.__setattr__(self, name, z)
        except ValueError as exc:
            raise GeometryError(str(exc)) from None
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
    """Exact minimum distance between segments [p0,p1] and [q0,q1] in C;
    broadcasts over arrays of segments, as ``segments_cross`` does."""
    ends = np.minimum(
        np.minimum(point_segment_distance(q0, p0, p1), point_segment_distance(q1, p0, p1)),
        np.minimum(point_segment_distance(p0, q0, q1), point_segment_distance(p1, q0, q1)),
    )
    return np.where(segments_cross(p0, p1, q0, q1), 0.0, ends)[()]


def _pairs(slits):
    """Endpoints a, b of every pair i < j of ``slits``, in row-major order:
    (i, j, a_i, b_i, a_j, b_j), the last four as arrays."""
    a = np.array([s.a for s in slits])
    b = np.array([s.b for s in slits])
    i, j = np.triu_indices(len(slits), 1)
    return i, j, a[i], b[i], a[j], b[j]


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
        i, j, pa, pb, qa, qb = _pairs(slits)
        d = segment_distance(pa, pb, qa, qb)
        close = np.flatnonzero(d <= 1e-12)
        if close.size:
            k = close[0]
            raise OverlapError(
                f"slits {i[k]} and {j[k]} are not disjoint (distance {d[k]:.2e})"
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
                ax, ay, bx, by = (as_real(f"slits[{i}]", v) for v in (ax, ay, bx, by))
                ends = complex(ax, ay), complex(bx, by)
            except (KeyError, TypeError, ValueError):
                raise GeometryError(
                    f"slits[{i}] must be {{'a': [x, y], 'b': [x, y]}} with "
                    f"finite numbers x, y, got {entry!r}"
                ) from None
            slits.append(SlitSpec(*ends))
        return cls(slits)


def clearance_ratio(domain):
    """The largest ellipse ratio r that facing parallel slits allow, the one
    clearance rule: r <= gap / (ell_i + ell_j) over parallel slits (their
    directions' cross product within 1e-12 of the product of their lengths,
    so that rounding in a tilted slit's endpoints does not hide a pair)
    whose projections onto that direction overlap by a positive length, so
    that their holes stay apart; 1.0 when no pair faces another."""
    _, _, pa, pb, qa, qb = _pairs(domain.slits)
    dp, dq = pb - pa, qb - qa
    lp, lq = np.abs(dp), np.abs(dq)
    parallel = np.abs((dq * np.conj(dp)).imag) <= 1e-12 * lp * lq
    # along p, which spans [0, tp]: q's ends at ta and tb
    tp, ta, tb = (((z - pa) * np.conj(dp)).real for z in (pb, qa, qb))
    facing = parallel & (np.maximum(ta, tb) > 0.0) & (np.minimum(ta, tb) < tp)
    ratios = segment_distance(pa, pb, qa, qb)[facing] / (lp + lq)[facing]
    return float(ratios.min(initial=1.0))


@dataclass(frozen=True)
class EllipseParams:
    """Intermediate-domain ellipse: center z, major axis a, tilt theta, ratio r."""

    z: complex
    a: float
    theta: float
    r: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "z", as_complex("ellipse z", self.z))
            object.__setattr__(self, "a", as_real("major axis a", self.a, 0.0, lo_open=True))
            object.__setattr__(self, "theta", as_real("ellipse theta", self.theta))
            object.__setattr__(self, "r", as_real("aspect ratio", self.r, 0.0, 1.0, lo_open=True))
        except ValueError as exc:
            raise GeometryError(str(exc)) from None


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
    (counterclockwise), rows 1..m the hole boundaries (clockwise).  Both
    must be finite and ``eta_dot`` nonzero at every node.  Immutable after
    construction.
    """

    def __init__(self, eta, eta_dot):
        eta = as_array("eta", eta, complex)
        eta_dot = as_array("eta_dot", eta_dot, complex)
        if eta.shape != eta_dot.shape or eta.ndim != 2:
            raise ValueError("eta and eta_dot must share a 2-D shape")
        _check_pow2(eta.shape[1])
        if (eta_dot == 0).any():
            raise ValueError("eta_dot must be nonzero at every node")
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
    """Discrete winding number of a sampled closed curve about point(s) w.

    A point outside the curve's bounding box winds 0 times, exactly: it is
    counted so without forming its products, which overflow for a finite
    point far enough away."""
    curve = as_array("curve", curve, complex)
    wv, shaped = as_points(w)
    res = np.zeros(wv.shape[0], dtype=int)
    cx, cy = curve.real, curve.imag
    near = np.flatnonzero(
        (cx.min(initial=np.inf) <= wv.real) & (wv.real <= cx.max(initial=-np.inf))
        & (cy.min(initial=np.inf) <= wv.imag) & (wv.imag <= cy.max(initial=-np.inf))
    )

    def count(rows, x, y):
        # the angle of z_{k+1} conj(z_k) is that of z_{k+1}/z_k, with no
        # division by a node that coincides with a point
        xn = np.roll(x, -1, axis=1)
        yn = np.roll(y, -1, axis=1)
        re = xn * x
        re += yn * y
        im = yn * x
        im -= xn * y
        res[near[rows]] = np.rint(np.arctan2(im, re).sum(axis=1) / (2.0 * np.pi))

    pairwise_chunks(curve, wv[near], count)
    return shaped(res)


def build_preimage_boundary(params, n):
    """Boundary of the preimage domain from a list of ellipse parameters.

    Component 0 is the unit circle; components 1..m are psi_inv images of
    the ellipses, with derivatives by the chain rule and psi_inv' =
    (1 - psi_inv^2)/2.  Raises OverlapError if two of the resulting curves
    cross or one lies inside the other, and GeometryError if a curve leaves
    the strip or the open unit disk.
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
        eta_dot[j] = 0.5 * (1.0 - eta[j] * eta[j]) * hat_dot
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
