"""Solving (I - N) rho = -M gamma and Cauchy evaluation of analytic data."""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GeometryError
from .geometry import as_array, as_points, pairwise_chunks, resample
from .kernels import _mapped, trapezoid_M

TOL = 1e-14
# the crowded pair x=+-0.01, r=0.005, n=256 needs up to 284 Krylov iterations
KRYLOV_BUDGET = 400
# the geometric middle of criterion 3's first-solve h_dev at n=128 (7.1e-5)
# and the crowded pair's at every n <= 512 (1.5e-3 and above); a level
# whose largest h_dev is below it resolves the geometry
RESOLVED_H_DEV = 3e-4
# the coarsest level of the two-grid preconditioner; levels double up to n/8
COARSE_START = 64


@dataclass
class SolverStats:
    """Krylov iterations and their relative residual norms, shared by every
    right-hand side of a solve; ``residual`` is an array of k, one
    max|rhs - (I-N) rho| per right-hand side (k = 1 for a single one).
    ``coarse_n`` is the preconditioner's level (None when none resolved)
    and ``coarse_h_dev`` the largest ``h_dev`` of the last coarse solve
    tried (None when no level was tried)."""

    residual: np.ndarray
    history: list
    coarse_n: int | None = None
    coarse_h_dev: float | None = None

    @property
    def iterations(self):
        return len(self.history)


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


def _field_stats(m_rho, n_gamma):
    """``(h, h_dev)``: the per-component means and standard deviations of
    the field [M rho - (I-N) gamma]/2, given M rho and (I-N) gamma."""
    field = 0.5 * (m_rho - n_gamma)
    return field.mean(axis=-1), field.std(axis=-1)


def _preconditioner(ks, gamma):
    """``(apply, nc, h_dev)``: the two-grid right preconditioner
    M^-1 = I + P[(I - N_c)^-1 - I]R for ``solve_bie`` on flat Krylov
    vectors of ``gamma``'s shape, its level and the last coarse ``h_dev``.

    Levels nc = COARSE_START, 2 COARSE_START, ... up to n/8 are tried in
    turn.  Each restricts ``ks``'s own N and M1 to every (n/nc)-th node:
    the cot remainder at node distance (n/nc) d is the one at nc nodes and
    distance d, so these are the kernel at nc nodes, and M applies as the
    fine one does (``trapezoid_M``).  The coarse problem for ``gamma``
    sampled at those nodes is solved directly, and the level resolves the
    geometry when that solve's largest ``h_dev`` is below RESOLVED_H_DEV
    (a NaN does not).  The first level that resolves is taken: M1_c goes,
    and I - N_c is the one (m+1) nc-square matrix kept.  R restricts by
    spectral truncation and P prolongs by zero-padded FFT (``resample``).
    With no level, or none resolved, ``apply`` returns its argument itself
    and nc is None.

    The coarse copies come from malloc's heap, not ``_mapped``: made while
    the fine kernel is alive, they fit in heap memory already resident,
    where fresh mappings raised flow's peak RSS by their 1.6 MB at n=512.
    Each application solves with I - N_c rather than multiplying by an
    inverse: a solve takes a third of an inverse's time, so up to three
    applications cost what the inverse does, and LAPACK's inverse first
    touches about 1.5 MB more of OpenBLAS's buffers, which stay resident
    (flow's peak RSS at n=512 rose 1.3 to 2.0 MB with it, 0.3 to 0.8 MB
    without).
    """
    n, h_dev = ks.bp.n, None
    shape = gamma.shape
    nc = COARSE_START
    while nc <= n // 8:
        step = n // nc
        A = ks.N[::step, ::step] * (-2.0 * np.pi / nc)
        A[np.diag_indices_from(A)] += 1.0
        M1 = ks.M1[::step, ::step].copy()
        g = gamma[..., ::step]
        rows = g.reshape(-1, A.shape[0])
        rho = np.linalg.solve(A, -trapezoid_M(M1, g).reshape(rows.shape).T).T.reshape(g.shape)
        _, dev = _field_stats(trapezoid_M(M1, rho), (rows @ A.T).reshape(g.shape))
        del M1
        h_dev = float(dev.max())
        if h_dev < RESOLVED_H_DEV:
            break
        nc *= 2
    else:
        return (lambda z: z), None, h_dev
    coarse = shape[:-1] + (nc,)

    def apply(z):
        c = resample(z.reshape(shape), nc).reshape(-1, A.shape[0])
        c = np.linalg.solve(A, c.T).T - c
        return z + resample(c.reshape(coarse), n).reshape(-1)

    return apply, nc, h_dev


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

    GMRES is right-preconditioned from the coarsest level that resolves the
    geometry (``_preconditioner``): it solves (I - N) M^-1 y = rhs and
    rho = M^-1 y, so its residuals are those of rho.  For n < 8
    COARSE_START = 512 no level exists, and where none resolves M^-1 is the
    identity: the solve is plain GMRES, bit for bit.  ``stats.coarse_n``
    and ``stats.coarse_h_dev`` tell which case ran.

    GMRES runs to the relative residual ``TOL`` within ``KRYLOV_BUDGET``
    iterations.  A second pass starts from the first pass's iterate and runs
    only when that iterate's true residual misses ``TOL``, restoring the
    digit a Krylov basis can lose to rounding.  ``stats.iterations`` and
    ``stats.history`` count the (preconditioned) Krylov iterations of both
    passes, and ``stats.residual`` holds the k true residuals; a solve costs
    those iterations plus two ``I-N`` products (the true residual and the
    field), and a preconditioned one a coarse solve per iteration and
    one for rho.
    The solve fails, with ConvergenceError naming the right-hand side and
    carrying the residual history, when one's true residual misses
    ``10 * TOL * max|rhs|`` of its own.  The theory makes the field exactly
    constant on each component, so ``h_dev`` is pure discretization/solver
    noise.
    """
    gamma = as_array("right-hand data", gamma, float)
    rows = (ks.bp.m + 1, ks.bp.n)
    if gamma.ndim not in (2, 3) or gamma.shape[-2:] != rows:
        raise ValueError(
            f"right-hand data must have shape {rows} or (k, {rows[0]}, "
            f"{rows[1]}), got {gamma.shape}"
        )
    # the Krylov vectors hold one flat row per right-hand side
    rhs = -ks.apply_M(gamma).reshape(-1, ks.bp.eta.size)
    norms = np.linalg.norm(rhs, axis=1)
    exps = np.zeros((rhs.shape[0], 1), dtype=int)
    exps[norms > 0, 0] = np.rint(np.log2(norms[norms > 0]))
    b = np.ldexp(rhs, -exps).reshape(-1)

    precondition, coarse_n, coarse_h_dev = _preconditioner(ks, gamma)

    def matvec(z):
        return ks.apply_I_minus_N(precondition(z).reshape(gamma.shape)).reshape(-1)

    history = []
    y = np.zeros_like(b)
    r = b.copy()
    atol = TOL * np.linalg.norm(b)
    for _ in range(2):
        if np.linalg.norm(r) <= atol:
            break
        y, r = _gmres_pass(matvec, b, y, r, atol, history)
    x = precondition(y)
    rho = np.ldexp(x.reshape(rhs.shape), exps).reshape(gamma.shape)
    residual = np.abs(np.ldexp(r.reshape(rhs.shape), exps)).max(axis=1)
    target = 10.0 * TOL * np.abs(rhs).max(axis=1)
    missed = np.flatnonzero(~(residual <= target))  # a NaN residual misses too
    if missed.size:
        row = missed[0]
        raise ConvergenceError(
            f"GMRES stalled on right-hand side {row}: residual "
            f"{residual[row]:.3e} after {len(history)} iterations (target "
            f"{target[row]:.3e})",
            history=history,
        )
    h, h_dev = _field_stats(ks.apply_M(rho), ks.apply_I_minus_N(gamma))
    stats = SolverStats(
        residual=residual, history=history, coarse_n=coarse_n, coarse_h_dev=coarse_h_dev
    )
    return BieSolution(rho=rho, h=h, h_dev=h_dev, stats=stats)


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

    Raises ValueError for a non-finite point or boundary entry and
    GeometryError when a point sits on the boundary (within 1e-13).
    """
    bnodes = as_array("bnodes", bnodes, complex).reshape(-1)
    bder = as_array("bder", bder, complex).reshape(-1)
    bvalues = as_array("bvalues", bvalues, complex).reshape(-1)
    pts, shaped = as_points(points)
    num, den, dmin = cauchy_sums(bnodes, bder, bvalues, pts)
    if (dmin < 1e-13).any():
        raise GeometryError("evaluation point lies on the boundary")
    return shaped(num / den)
