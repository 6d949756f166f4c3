"""Solving (I - N) rho = -M gamma and Cauchy evaluation of analytic data."""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConvergenceError, GeometryError
from .geometry import pairwise_differences

TOL = 1e-14
# the crowded pair x=+-0.01, r=0.005, n=256 needs up to 278 Krylov iterations
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
    iterations.  One refinement pass always follows; the solve fails, with
    ConvergenceError carrying the residual history, only when the true
    residual misses ``10 * TOL * max|rhs|``.  The theory makes the field
    exactly constant on each component, so ``h_dev`` is pure
    discretization/solver noise.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(gamma)):
        raise ValueError("right-hand data contains non-finite values")
    rhs = -ks.apply_M(gamma)
    rhs_norm = np.abs(rhs).max()
    if rhs_norm == 0.0:
        rho = np.zeros_like(gamma)
        stats = SolverStats(iterations=0, residual=0.0, history=[])
    else:
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
        # one pass of iterative refinement: the Krylov basis loses about a
        # digit to rounding at rtol = 1e-14, and the correction restores it.
        # scipy's own convergence flag is not consulted; the true residual
        # decides.
        defect = rhs - ks.apply_I_minus_N(rho)
        corr, _ = gmres(op, defect, **{**kwargs, "callback": None})
        rho = rho + corr
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
    """
    npts = targets.shape[0]
    num = np.empty(npts, dtype=np.complex128)
    den = np.empty(npts, dtype=np.complex128)
    dmin = np.empty(npts)
    vw = values * weights
    # an exactly-coincident node divides by zero; the caller rejects that
    # point via dmin, so its non-finite sums are never read
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows, diff in pairwise_differences(bnodes, targets):
            dmin[rows] = np.abs(diff).min(axis=1)
            inv = 1.0 / diff
            num[rows] = inv @ vw
            den[rows] = inv @ weights
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
