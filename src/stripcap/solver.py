"""Solving (I - N) rho = -M gamma and Cauchy evaluation of analytic data."""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GeometryError
from .geometry import pairwise_differences

TOL = 1e-14
# the crowded pair x=+-0.01, r=0.005, n=256 needs up to 284 Krylov iterations
KRYLOV_BUDGET = 400


@dataclass
class SolverStats:
    """Krylov iterations and their relative residual norms, shared by every
    right-hand side of a solve; ``residual`` is max|rhs - (I-N) rho|, a
    float for one right-hand side and an array of k for a block of k."""

    iterations: int
    residual: object
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


def _givens(f, g):
    """The rotation (c, s, r) with [c s; -s c] [f; g] = [r; 0], by LAPACK's
    dlartg formula (entries far from under- and overflow, as a unit-vector
    Krylov basis gives)."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, np.copysign(1.0, g), abs(g)
    d = np.sqrt(f * f + g * g)
    r = np.copysign(d, f)
    return abs(f) / d, g / r, r


def _gmres_pass(matvec, b, x, r, ptol, history):
    """One restart-free GMRES cycle for A x = b from the iterate ``x``, whose
    residual ``r = b - A x`` the caller has; returns the new iterate and its
    true residual.

    The loop is scipy 1.17's ``gmres`` with ``restart`` = ``KRYLOV_BUDGET``
    and one cycle: modified Gram-Schmidt, Givens rotations and back
    substitution, in the same floating-point operations.  It stops when the
    least-squares residual reaches ``ptol``, and appends each iteration's
    residual relative to |b| to ``history``.
    """
    size = b.size
    restart = min(KRYLOV_BUDGET, size)
    bnrm2 = np.linalg.norm(b)
    eps = np.finfo(float).eps
    v = np.empty((restart + 1, size))
    # h[col] holds column col of the Hessenberg matrix
    h = np.zeros((restart, restart + 1))
    givens = np.zeros((restart, 2))
    v[0] = r
    tmp = np.linalg.norm(v[0])
    v[0] *= 1 / tmp
    S = np.zeros(restart + 1)
    S[0] = tmp
    breakdown = False
    for col in range(restart):
        w = matvec(v[col])
        h0 = np.linalg.norm(w)
        for k in range(col + 1):
            tmp = np.dot(v[k], w)
            h[col, k] = tmp
            w -= tmp * v[k]
        h1 = np.linalg.norm(w)
        h[col, col + 1] = h1
        v[col + 1] = w
        if h1 <= eps * h0:  # A maps the basis into itself: x is exact
            h[col, col + 1] = 0
            breakdown = True
        else:
            v[col + 1] *= 1 / h1
        for k in range(col):
            c, s = givens[k]
            n0, n1 = h[col, k], h[col, k + 1]
            h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
        c, s, mag = _givens(h[col, col], h[col, col + 1])
        givens[col] = c, s
        h[col, col], h[col, col + 1] = mag, 0
        tmp = -s * S[col]
        S[col], S[col + 1] = c * S[col], tmp
        presid = np.abs(tmp)
        history.append(presid / bnrm2)
        if presid <= ptol or breakdown:
            break
    if h[col, col] == 0:
        S[col] = 0
    y = S[: col + 1].copy()
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= h[k, k]
            tmp = y[k]
            y[:k] -= tmp * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    x = x + y @ v[: col + 1]
    return x, b - matvec(x)


def solve_bie(ks, gamma):
    """Solve (I - N) rho = -M gamma by restart-free GMRES, matrix-free, and
    read off the piecewise constants h of the field [M rho - (I-N) gamma]/2.

    ``gamma`` holds boundary values in component rows, shape (m+1, n), or is
    a block (k, m+1, n) of k right-hand sides that share one Krylov space:
    GMRES runs on the stacked system diag(I-N, ..., I-N), so each iteration
    costs one product of N with a (ntot x k) block (global GMRES).  Each
    right-hand side is scaled by the power of two nearest its norm, which is
    exact, so the joint tolerance holds every one alike and a block of one
    keeps the arithmetic of a single solve.

    GMRES runs to the relative residual ``TOL`` within ``KRYLOV_BUDGET``
    iterations.  A second pass starts from the first pass's iterate and runs
    only when that iterate's true residual misses ``TOL``, restoring the
    digit a Krylov basis can lose to rounding.  ``stats.iterations`` and
    ``stats.history`` count the Krylov iterations of both passes; a solve
    costs those plus two ``I-N`` products (the true residual and the field).
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
    bnrm2 = np.linalg.norm(b)
    atol = TOL * bnrm2
    # scipy's stopping bound for the least-squares residual, which can
    # differ from atol in the last bit
    ptol = bnrm2 * min(1.0, atol / bnrm2) if bnrm2 else 0.0
    for _ in range(2):
        if np.linalg.norm(r) <= atol:
            break
        x, r = _gmres_pass(matvec, b, x, r, ptol, history)
    rho = np.ldexp(x.reshape(rhs.shape), exps).reshape(gamma.shape)
    residual = np.abs(np.ldexp(r.reshape(rhs.shape), exps)).max(axis=1)
    target = 10.0 * TOL * np.abs(rhs).max(axis=1)
    missed = np.flatnonzero(residual > target)
    block = gamma.ndim == 3
    if missed.size:
        row = missed[0]
        where = f" on right-hand side {row}" if block else ""
        raise ConvergenceError(
            f"GMRES stalled{where}: residual {residual[row]:.3e} after "
            f"{len(history)} iterations (target {target[row]:.3e})",
            history=history,
        )
    field = 0.5 * (ks.apply_M(rho) - ks.apply_I_minus_N(gamma))
    stats = SolverStats(
        iterations=len(history),
        residual=residual if block else float(residual[0]),
        history=history,
    )
    return BieSolution(
        rho=rho, h=field.mean(axis=-1), h_dev=field.std(axis=-1), stats=stats
    )


def cauchy_sums(bnodes, weights, values, targets):
    """Dense Cauchy sums at each target z, in row chunks:

        num(z) = sum_i v_i w_i / (b_i - z),   den(z) = sum_i w_i / (b_i - z),

    plus dmin(z) = min_i |b_i - z|.

    With b_i - z = x + iy and r = x^2 + y^2, 1/(b_i - z) = (x - iy)/r.  The
    chunk's planar parts from ``pairwise_differences`` are divided by r in
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
    # an exactly-coincident node divides by zero; the caller rejects that
    # point via dmin, so its non-finite sums are never read
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows, x, y in pairwise_differences(bnodes, targets):
            r = x * x
            r += y * y
            dmin[rows] = np.sqrt(r.min(axis=1))
            x /= r
            y /= r
            np.matmul(x, x_cols, out=sums[rows])
            sums[rows] += y @ y_cols
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
