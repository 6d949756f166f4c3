"""Solving (I - N) rho = -M gamma and Cauchy evaluation of analytic data."""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConvergenceError, GeometryError
from .geometry import pairwise_differences

TOL = 1e-14
# the crowded pair x=+-0.01, r=0.005, n=256 needs up to 284 Krylov iterations
KRYLOV_BUDGET = 400


@dataclass
class SolverStats:
    iterations: int
    residual: float
    history: list


@dataclass
class BieSolution:
    """One solved boundary integral equation.

    ``h`` holds the per-component means of the field [M rho - (I-N) gamma]/2
    and ``h_dev`` the per-component standard deviations of that field --
    the cheapest end-to-end consistency monitor the pipeline has.
    """

    rho: np.ndarray
    h: np.ndarray
    h_dev: np.ndarray
    stats: SolverStats


def solve_bie(ks, gamma):
    """Solve (I - N) rho = -M gamma by restart-free GMRES, matrix-free, and
    read off the piecewise constants h of the field [M rho - (I-N) gamma]/2.

    GMRES runs to the relative residual ``TOL`` within ``KRYLOV_BUDGET``
    iterations, twice on the same system: the second call starts from the
    first call's iterate and iterates only when that iterate's true
    residual misses ``TOL``.  ``stats.iterations`` and ``stats.history``
    count the Krylov iterations of both calls.  The solve fails, with
    ConvergenceError carrying the residual history, only when the true
    residual misses ``10 * TOL * max|rhs|``.  The theory makes the field
    exactly constant on each component, so ``h_dev`` is pure
    discretization/solver noise.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(gamma)):
        raise ValueError("right-hand data contains non-finite values")
    rhs = -ks.apply_M(gamma)
    ntot = gamma.size
    op = LinearOperator((ntot, ntot), matvec=ks.apply_I_minus_N, dtype=float)
    history = []
    kwargs = {
        "rtol": TOL,
        "atol": 0.0,
        "restart": min(KRYLOV_BUDGET, ntot),
        "maxiter": 1,
        "callback": history.append,
        "callback_type": "pr_norm",
    }
    rho, _ = gmres(op, rhs, **kwargs)
    # scipy returns at once when b - A x0 meets rtol, so this rescue iterates
    # only when the Krylov basis lost a digit to rounding.  scipy's flag is
    # not consulted; the true residual decides.
    rho, _ = gmres(op, rhs, x0=rho, **kwargs)
    rhs_norm = np.abs(rhs).max()
    residual = np.abs(ks.apply_I_minus_N(rho) - rhs).max()
    if residual > 10.0 * TOL * rhs_norm:
        raise ConvergenceError(
            f"GMRES stalled: residual {residual:.3e} after "
            f"{len(history)} iterations (target {10 * TOL * rhs_norm:.3e})",
            history=history,
        )
    stats = SolverStats(
        iterations=len(history), residual=float(residual), history=history
    )
    field = 0.5 * (ks.apply_M(rho) - ks.apply_I_minus_N(gamma))
    rows = ks.bp.split(field)
    return BieSolution(
        rho=rho, h=rows.mean(axis=1), h_dev=rows.std(axis=1), stats=stats
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

    Raises GeometryError when a point sits on the boundary (within 1e-13).
    """
    bnodes = np.asarray(bnodes, dtype=complex).reshape(-1)
    bder = np.asarray(bder, dtype=complex).reshape(-1)
    bvalues = np.asarray(bvalues, dtype=complex).reshape(-1)
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    num, den, dmin = cauchy_sums(bnodes, bder, bvalues, pts)
    if (dmin < 1e-13).any():
        raise GeometryError("evaluation point lies on the boundary")
    return num / den
