"""Solving (I - N) rho = -M gamma and Cauchy evaluation of analytic data."""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GeometryError
from .geometry import pairwise_chunks
from .kernels import _mapped

TOL = 1e-14
# the crowded pair x=+-0.01, r=0.005, n=256 needs up to 284 Krylov iterations
KRYLOV_BUDGET = 400


@dataclass
class SolverStats:
    """Krylov iterations and their relative residual norms, shared by every
    right-hand side of a solve; ``residual`` is an array of k, one
    max|rhs - (I-N) rho| per right-hand side (k = 1 for a single one)."""

    iterations: int
    residual: np.ndarray
    history: list


@dataclass
class BieSolution:
    """One solved boundary integral equation, or a block of them.

    ``h`` holds the per-component means of the field [M rho - (I-N) gamma]/2
    and ``h_dev`` the per-component standard deviations of that field --
    the cheapest end-to-end consistency monitor the pipeline has.  For
    ``gamma`` of shape (m+1, n), ``rho`` has shape (m+1, n) and ``h``,
    ``h_dev`` shape (m+1,); a block ``gamma`` of shape (k, m+1, n) gives
    each of them a leading axis of length k.
    """

    rho: np.ndarray
    h: np.ndarray
    h_dev: np.ndarray
    stats: SolverStats


def _gmres_pass(matvec, b, x, r, atol, history):
    """One restart-free GMRES cycle (Saad & Schultz 1986) for A x = b from
    the iterate ``x``, whose residual ``r = b - A x`` the caller has;
    returns the new iterate and its true residual.

    Modified Gram-Schmidt Arnoldi builds the orthonormal basis ``v`` and
    the Hessenberg matrix ``h``; Givens rotations (``np.hypot``) reduce each
    new column of ``h`` to triangular form, so the last entry of the rotated
    |r| e1 in ``g`` is the least-squares residual.  The cycle stops when
    that residual reaches ``atol``, after ``KRYLOV_BUDGET`` iterations, or
    on breakdown (A maps the basis into itself, so the iterate is exact),
    and back substitution on the triangle gives the update.  Each
    iteration's least-squares residual relative to |b| goes to ``history``.
    """
    steps = min(KRYLOV_BUDGET, b.size)
    # the basis in a mapping of its own: freed to malloc's heap, flow's 8 MB
    # basis at n=512 raised glibc's trim threshold to 16 MB, so the heap
    # could keep that much resident, and flow's peak RSS read 140 or 154 MB
    # on the order of allocations alone
    v = _mapped((steps + 1, b.size))
    h = np.zeros((steps + 1, steps))
    rotations = []
    g = np.zeros(steps + 1)
    g[0] = np.linalg.norm(r)
    v[0] = r / g[0]
    bnorm = np.linalg.norm(b)
    for j in range(steps):
        w = matvec(v[j])
        wnorm = np.linalg.norm(w)
        for i in range(j + 1):
            h[i, j] = v[i] @ w
            w -= h[i, j] * v[i]
        h[j + 1, j] = np.linalg.norm(w)
        breakdown = h[j + 1, j] <= np.finfo(float).eps * wnorm
        if not breakdown:
            v[j + 1] = w / h[j + 1, j]
        for i, (c, s) in enumerate(rotations):
            hi, hn = h[i, j], h[i + 1, j]
            h[i, j], h[i + 1, j] = c * hi + s * hn, c * hn - s * hi
        d = np.hypot(h[j, j], h[j + 1, j])
        c, s = h[j, j] / d, h[j + 1, j] / d
        rotations.append((c, s))
        h[j, j] = d
        g[j], g[j + 1] = c * g[j], -s * g[j]
        history.append(abs(g[j + 1]) / bnorm)
        if abs(g[j + 1]) <= atol or breakdown:
            break
    y = np.zeros(j + 1)
    for i in range(j, -1, -1):
        y[i] = (g[i] - h[i, i + 1 : j + 1] @ y[i + 1 :]) / h[i, i]
    x = x + y @ v[: j + 1]
    return x, b - matvec(x)


def solve_bie(ks, gamma):
    """Solve (I - N) rho = -M gamma by restart-free GMRES, matrix-free, and
    read off the piecewise constants h of the field [M rho - (I-N) gamma]/2.

    ``gamma`` holds boundary values in component rows, shape (m+1, n), or is
    a block (k, m+1, n) of k right-hand sides that share one Krylov space:
    GMRES runs on the stacked system diag(I-N, ..., I-N), so each iteration
    costs one product of N with a (ntot x k) block (global GMRES).  Each
    right-hand side is scaled by the power of two nearest its norm, which is
    exact, so the joint tolerance holds every one alike; a single right-hand
    side runs as a block of one.

    GMRES runs to the relative residual ``TOL`` within ``KRYLOV_BUDGET``
    iterations.  A second pass starts from the first pass's iterate and runs
    only when that iterate's true residual misses ``TOL``, restoring the
    digit a Krylov basis can lose to rounding.  ``stats.iterations`` and
    ``stats.history`` count the Krylov iterations of both passes, and
    ``stats.residual`` holds the k true residuals; a solve costs those
    iterations plus two ``I-N`` products (the true residual and the field).
    The solve fails, with ConvergenceError naming the right-hand side and
    carrying the residual history, when one's true residual misses
    ``10 * TOL * max|rhs|`` of its own.  The theory makes the field exactly
    constant on each component, so ``h_dev`` is pure discretization/solver
    noise.
    """
    gamma = np.asarray(gamma, dtype=float)
    rows = (ks.bp.m + 1, ks.bp.n)
    if gamma.ndim not in (2, 3) or gamma.shape[-2:] != rows:
        raise ValueError(
            f"right-hand data must have shape {rows} or (k, {rows[0]}, "
            f"{rows[1]}), got {gamma.shape}"
        )
    if not np.all(np.isfinite(gamma)):
        raise ValueError("right-hand data contains non-finite values")
    # the Krylov vectors hold one flat row per right-hand side
    rhs = -ks.apply_M(gamma).reshape(-1, ks.bp.eta.size)
    norms = np.linalg.norm(rhs, axis=1)
    exps = np.zeros((rhs.shape[0], 1), dtype=int)
    exps[norms > 0, 0] = np.rint(np.log2(norms[norms > 0]))
    b = np.ldexp(rhs, -exps).reshape(-1)

    def matvec(z):
        return ks.apply_I_minus_N(z.reshape(gamma.shape)).reshape(-1)

    history = []
    x = np.zeros_like(b)
    r = b.copy()
    atol = TOL * np.linalg.norm(b)
    for _ in range(2):
        if np.linalg.norm(r) <= atol:
            break
        x, r = _gmres_pass(matvec, b, x, r, atol, history)
    rho = np.ldexp(x.reshape(rhs.shape), exps).reshape(gamma.shape)
    residual = np.abs(np.ldexp(r.reshape(rhs.shape), exps)).max(axis=1)
    target = 10.0 * TOL * np.abs(rhs).max(axis=1)
    missed = np.flatnonzero(residual > target)
    if missed.size:
        row = missed[0]
        raise ConvergenceError(
            f"GMRES stalled on right-hand side {row}: residual "
            f"{residual[row]:.3e} after {len(history)} iterations (target "
            f"{target[row]:.3e})",
            history=history,
        )
    field = 0.5 * (ks.apply_M(rho) - ks.apply_I_minus_N(gamma))
    stats = SolverStats(iterations=len(history), residual=residual, history=history)
    return BieSolution(
        rho=rho, h=field.mean(axis=-1), h_dev=field.std(axis=-1), stats=stats
    )


def cauchy_sums(bnodes, weights, values, targets):
    """Dense Cauchy sums at each target z, in row chunks:

        num(z) = sum_i v_i w_i / (b_i - z),   den(z) = sum_i w_i / (b_i - z),

    plus dmin(z) = min_i |b_i - z|.

    With b_i - z = x + iy and r = x^2 + y^2, 1/(b_i - z) = (x - iy)/r.  The
    chunk's planar parts from ``pairwise_chunks`` are divided by r in
    place; then, with v_i w_i = a_i + i b_i and w_i = c_i + i d_i, the four
    real parts [Re num, Im num, Re den, Im den] are x.[a, b, c, d] +
    y.[b, -a, d, -c]: two real products, no complex division and no
    ``np.abs``.
    """
    npts = targets.shape[0]
    sums = np.empty((npts, 4))
    dmin = np.empty(npts)
    vw = values * weights
    x_cols = np.column_stack([vw.real, vw.imag, weights.real, weights.imag])
    y_cols = np.column_stack([vw.imag, -vw.real, weights.imag, -weights.real])

    def add(rows, x, y):
        r = x * x
        r += y * y
        dmin[rows] = np.sqrt(r.min(axis=1))
        # an exactly-coincident node divides by zero; the caller rejects
        # that point via dmin, so its non-finite sums are never read
        with np.errstate(divide="ignore", invalid="ignore"):
            x /= r
            y /= r
            np.matmul(x, x_cols, out=sums[rows])
            sums[rows] += y @ y_cols

    pairwise_chunks(bnodes, targets, add)
    num, den = sums.view(np.complex128).T
    return num, den, dmin


def cauchy_eval(bnodes, bder, bvalues, points):
    """Normalized trapezoidal Cauchy sums at interior points.

    f(w) ~= [sum_i f_i eta'_i/(eta_i - w)] / [sum_i eta'_i/(eta_i - w)].
    The denominator equals 2*pi*i/(2*pi/n) for interior points, so the
    normalized form reproduces constants exactly and sharpens accuracy near
    the boundary.  Points near the boundary are not refined.

    Raises ValueError for a non-finite point and GeometryError when a point
    sits on the boundary (within 1e-13).
    """
    bnodes = np.asarray(bnodes, dtype=complex).reshape(-1)
    bder = np.asarray(bder, dtype=complex).reshape(-1)
    bvalues = np.asarray(bvalues, dtype=complex).reshape(-1)
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    if not np.isfinite(pts).all():
        raise ValueError(f"evaluation points must be finite, got {pts[~np.isfinite(pts)][:3]}")
    num, den, dmin = cauchy_sums(bnodes, bder, bvalues, pts)
    if (dmin < 1e-13).any():
        raise GeometryError("evaluation point lies on the boundary")
    return num / den
