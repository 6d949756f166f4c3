"""Generalized Neumann kernel and the split singular companion kernel.

Off the diagonal the kernels are direct samples of

    N(s,t)  = (1/pi) Im[ A(s)/A(t) * eta'(t)/(eta(t)-eta(s)) ]
    M(s,t)  = (1/pi) Re[ ... same argument ... ]

M is singular along the diagonal of each component; the stored matrix M1
carries the continuous remainder M(s,t) + cot((s-t)/2)/(2 pi) there (and M
itself across components).  The removed cotangent convolution is applied
spectrally as the Fourier multiplier i*sign(k), a convention pinned down by
the principal-value quadrature oracle in the tests.  Diagonal entries are
the limits

    N(t,t)  = (1/pi) Im[ eta''/(2 eta') - A'/A ]
    M1(t,t) = (1/pi) Re[ eta''/(2 eta') - A'/A ]

obtained from the Taylor expansion at s = t and cross-checked against a
finite-difference extrapolation in the tests.
"""

import itertools
import math
import mmap

import numpy as np

from .errors import GeometryError
from .geometry import pairwise_chunks, trig_derivative, winding_number


def default_alpha(bp):
    """Base point for A: the candidate tanh(x/2), x in {-3,...,3} step 0.5,
    that lies inside G and is farthest from all boundary curves (and more
    than 1e-12 from every node)."""
    candidates = np.tanh(np.arange(-3.0, 3.01, 0.5) / 2.0).astype(complex)
    winding = np.array([winding_number(curve, candidates) for curve in bp.eta])
    inside = (winding[0] == 1) & (winding[1:] == 0).all(axis=0)
    dist = np.abs(bp.flat_eta[None, :] - candidates[:, None]).min(axis=1)
    dist[~inside] = 0.0
    best = np.argmax(dist)  # the first of equally distant candidates
    if dist[best] <= 1e-12:
        raise GeometryError("no candidate base point lies inside the domain")
    return complex(candidates[best])


def _mapped(shape):
    """An uninitialized float array in an anonymous mapping of its own, which
    goes back to the system the moment the array dies.  glibc's malloc
    serves arrays below 32 MB from the heap once a freed mapping has raised
    its mmap threshold, and a freed kernel there can stay resident under the
    next, larger one: flow's peak RSS read 140 or 163 MB by that luck."""
    buf = mmap.mmap(-1, 8 * math.prod(shape), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):  # as numpy advises its own large arrays
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=float).reshape(shape)


def dense_bytes(m, n):
    """Bytes of the dense N and M1 that ``_assemble`` stores for m holes at
    n nodes per component: 16 ((m+1) n)^2."""
    return 2 * 8 * ((m + 1) * n) ** 2


def _assemble(eta, eta_dot, A, diag, n):
    """Fill and return the dense (N, M1) matrices; raises on coincident nodes.

    Off the diagonal C_ij = (1/pi) (A_i/A_j) eta'_j/(eta_j - eta_i) gives
    N = Im C and M1 = Re C.  The cot remainder cot(pi (i-j)/n)/(2 pi) only
    depends on (i - j) mod n, so it is one n x n circulant block added to
    each diagonal block of M1.  The diagonal entries are the limits ``diag``.
    """
    ntot = eta.shape[0]
    N, M1 = _mapped((ntot, ntot)), _mapped((ntot, ntot))
    col = eta_dot / A / np.pi

    def fill(rows, x, y):
        dz = np.empty(x.shape, dtype=complex)
        dz.real, dz.imag = x, y
        local = np.arange(rows.stop - rows.start)
        dz[local, rows.start + local] = 1.0  # any nonzero divisor: overwritten below
        if not dz.all():
            raise GeometryError("coincident boundary nodes while assembling kernels")
        c = (A[rows, None] * col[None, :]) / dz
        N[rows] = c.imag
        M1[rows] = c.real

    pairwise_chunks(eta, eta, fill)
    k = np.arange(1, n)
    c = np.concatenate([[0.0], 0.5 / np.pi / np.tan(np.pi * k / n)])
    i = np.arange(n)
    cot = c[(i[:, None] - i[None, :]) % n]
    for j0 in range(0, ntot, n):
        M1[j0 : j0 + n, j0 : j0 + n] += cot
    idx = np.arange(ntot)
    N[idx, idx] = diag.imag
    M1[idx, idx] = diag.real
    return N, M1


def _rotate(x, y, phi, tmp):
    """(x, y) <- (cos(phi) x - sin(phi) y, sin(phi) x + cos(phi) y) in place,
    as three shears x -= t y, y += s x, x -= t y with t = tan(phi/2) and
    s = sin(phi) (Paeth 1986); ``tmp`` is scratch of x's shape.  A turn by
    more than pi/2 first negates both, so that |t| <= 1."""
    phi = math.remainder(phi, 2.0 * math.pi)
    if abs(phi) > 0.5 * math.pi:
        np.negative(x, out=x)
        np.negative(y, out=y)
        phi -= math.copysign(math.pi, phi)
    t, s = math.tan(0.5 * phi), math.sin(phi)
    for dst, src, factor in ((x, y, -t), (y, x, s), (x, y, -t)):
        np.multiply(src, factor, out=tmp)
        dst += tmp


class KernelSet:
    """Assembled Nystrom data for one geometry and one angle vector theta.

    The base point ``alpha`` of A is chosen from the geometry alone
    (``default_alpha``), so every kernel on one geometry shares it.  Stores
    the dense N and M1 matrices plus everything needed to apply the
    discretized operators.

    A kernel is owned by whoever holds it and is not shared: ``iterate``
    assembles one per outer step and keeps the last in its result, and the
    solves that follow on the same geometry take it from there and
    ``reangle`` it in place, so one geometry is assembled once.
    """

    def __init__(self, bp, theta):
        self.bp = bp
        self.alpha = default_alpha(bp)
        self.theta = self._angles(theta)
        self.A = self._base_function()
        # spectral second derivative of eta and first derivative of A,
        # component by component, for the diagonal limits
        eta_ddot = trig_derivative(bp.eta_dot)
        A_dot = trig_derivative(self.A)
        diag = (
            eta_ddot / (2.0 * bp.eta_dot) - A_dot / self.A
        ).reshape(-1) / np.pi
        self.N, self.M1 = _assemble(
            bp.flat_eta, bp.flat_eta_dot, self.A.reshape(-1), diag, bp.n
        )
        self._w = 2.0 * np.pi / bp.n

    def _angles(self, theta):
        theta = np.array(theta, dtype=float)
        if theta.shape != (self.bp.m + 1,):
            raise ValueError(f"theta must have {self.bp.m + 1} entries")
        if not np.isfinite(theta).all():
            raise ValueError(f"theta must be finite, got {theta}")
        return theta

    def _base_function(self):
        """A(t) = e^{i(pi/2 - theta_j)} (eta(t) - alpha) on each component."""
        rot = np.exp(1j * (0.5 * np.pi - self.theta))
        return rot[:, None] * (self.bp.eta - self.alpha)

    def reangle(self, theta):
        """Turn this kernel, in place, into the one for the angles ``theta``
        on the same geometry; returns self.

        Row block j and column block k of C = M1 + iN carry the factor
        A_i/A_j, whose phase is e^{i(theta_k - theta_j)}.  New angles
        theta + d therefore multiply block (j, k) by e^{i phi} with
        phi = d_k - d_j: N' = cos(phi) N + sin(phi) M1 and
        M1' = cos(phi) M1 - sin(phi) N.  Diagonal blocks, with the diagonal
        limits and the cot circulant, keep every bit, and so does a block
        whose phi is 0.  The rotation runs as three shears, so one n x n
        temporary is all it allocates.
        """
        theta = self._angles(theta)
        d = theta - self.theta
        n = self.bp.n
        tmp = np.empty((n, n))
        for j, k in itertools.permutations(range(self.bp.m + 1), 2):
            phi = d[k] - d[j]
            if phi == 0.0:
                continue
            rows, cols = slice(j * n, (j + 1) * n), slice(k * n, (k + 1) * n)
            _rotate(self.M1[rows, cols], self.N[rows, cols], phi, tmp)
        self.theta = theta
        self.A = self._base_function()
        return self

    def _flat(self, x):
        """``x`` as float, and as one flat length-(m+1)n row per set of
        boundary values; any trailing shape but (m+1, n) raises ValueError,
        since the cot convolution would run across component boundaries."""
        x = np.asarray(x, dtype=float)
        rows = (self.bp.m + 1, self.bp.n)
        if x.shape[-2:] != rows:
            raise ValueError(
                f"boundary values must have shape (..., {rows[0]}, {rows[1]}), "
                f"got {x.shape}"
            )
        return x, x.reshape(x.shape[:-2] + (-1,))

    def apply_M(self, x):
        """Discretized singular operator: trapezoidal M1 plus cot convolution,
        on values of shape (m+1, n) or a block (k, m+1, n) of them."""
        x, flat = self._flat(x)
        out = (self._w * (flat @ self.M1.T)).reshape(x.shape)
        out += singular_cot_part(x)
        return out

    def apply_I_minus_N(self, x):
        """(I - N) x for values of shape (m+1, n) or a block (k, m+1, n)."""
        x, flat = self._flat(x)
        # for a block, x @ N.T took 19 ms against 24 ms for (N @ x.T).T at
        # ntot=5120, k=4 on 2 cores
        return (flat - self._w * (flat @ self.N.T)).reshape(x.shape)


def singular_cot_part(rows):
    """Per-component convolution with -cot((s-t)/2)/(2 pi).

    Acts on real samples along the last axis via the Fourier multiplier
    i*sign(k) (constant and Nyquist modes annihilated).  Exact on
    trigonometric polynomials of degree below n/2.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[-1]
    F = np.fft.rfft(rows, axis=-1)
    F *= 1j
    F[..., 0] = 0.0
    F[..., n // 2] = 0.0
    return np.fft.irfft(F, n=n, axis=-1)

