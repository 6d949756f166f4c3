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

import numpy as np

from .errors import GeometryError
from .geometry import pairwise_differences, trig_derivative, winding_number


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


def _assemble(eta, eta_dot, A, diag, n):
    """Fill and return the dense (N, M1) matrices; raises on coincident nodes.

    Off the diagonal C_ij = (1/pi) (A_i/A_j) eta'_j/(eta_j - eta_i) gives
    N = Im C and M1 = Re C.  The cot remainder cot(pi (i-j)/n)/(2 pi) only
    depends on (i - j) mod n, so it is one n x n circulant block added to
    each diagonal block of M1.  The diagonal entries are the limits ``diag``.
    """
    ntot = eta.shape[0]
    N = np.empty((ntot, ntot))
    M1 = np.empty((ntot, ntot))
    col = eta_dot / A / np.pi
    for rows, x, y in pairwise_differences(eta, eta):
        dz = np.empty(x.shape, dtype=complex)
        dz.real, dz.imag = x, y
        local = np.arange(rows.stop - rows.start)
        dz[local, rows.start + local] = 1.0  # any nonzero divisor: overwritten below
        if not dz.all():
            raise GeometryError("coincident boundary nodes while assembling kernels")
        c = (A[rows, None] * col[None, :]) / dz
        N[rows] = c.imag
        M1[rows] = c.real
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


class KernelSet:
    """Assembled Nystrom data for one geometry and one angle vector theta.

    The base point ``alpha`` of A is chosen from the geometry alone
    (``default_alpha``), so every kernel on one geometry shares it.  Stores
    the dense N and M1 matrices plus everything needed to apply the
    discretized operators.  Immutable once built; safe to share between
    concurrent solves.
    """

    def __init__(self, bp, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (bp.m + 1,):
            raise ValueError(f"theta must have {bp.m + 1} entries")
        self.bp = bp
        self.alpha = default_alpha(bp)
        # A(t) = e^{i(pi/2 - theta_j)} (eta(t) - alpha) on each component
        self.A = np.exp(1j * (0.5 * np.pi - theta))[:, None] * (bp.eta - self.alpha)
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

    def apply_M(self, x):
        """Discretized singular operator: trapezoidal M1 plus cot convolution.

        ``x`` is one vector (ntot,) or a block (k, ntot) of them, one per row.
        """
        x = np.asarray(x, dtype=float)
        out = self._w * (x @ self.M1.T)
        out += singular_cot_part(self.bp.split(x)).reshape(x.shape)
        return out

    def apply_I_minus_N(self, x):
        """(I - N) x for one vector (ntot,) or each row of a block (k, ntot)."""
        x = np.asarray(x, dtype=float)
        # a 1-D x makes the same GEMV as N @ x; for a block, x @ N.T took
        # 19 ms against 24 ms for (N @ x.T).T at ntot=5120, k=4 on 2 cores
        return x - self._w * (x @ self.N.T)


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

