"""Integral-equation solver and Cauchy evaluation tests."""

import tracemalloc
import warnings

import numpy as np
import pytest

from stripcap import geometry
from stripcap.errors import ConvergenceError, GeometryError
from stripcap.geometry import (
    BoundaryParametrization,
    EllipseParams,
    StripSlitDomain,
    build_preimage_boundary,
    parametrize_ellipse,
)
from stripcap.kernels import KernelSet
from stripcap.preimage import IterationConfig, initialize
from stripcap.solver import cauchy_eval, cauchy_sums, solve_bie
from stripcap.stripmap import strip_gamma

from conftest import FOUR_SLITS


def circle_bp(n=128):
    t = 2 * np.pi * np.arange(n) / n
    eta = np.exp(1j * t)[None, :]
    eta_dot = 1j * np.exp(1j * t)[None, :]
    # t in a component row, the shape of boundary data
    return BoundaryParametrization(eta, eta_dot), t[None, :]


def four_slit_system(n=128):
    """The strip-map system on the four-slit initial ellipses."""
    omega = StripSlitDomain(FOUR_SLITS)
    params = initialize(omega, IterationConfig(n=n))
    bp = build_preimage_boundary(params, n)
    return KernelSet(bp, omega.theta), strip_gamma(bp, omega.theta)


class TestSolveRho:
    def test_circle_dirichlet_oracle(self):
        # A = eta on the unit circle; boundary data of the analytic f(w) = w^2
        # is A f = e^{3it}, so gamma = cos 3t must produce rho = sin 3t, h = 0
        bp, t = circle_bp()
        ks = KernelSet(bp, np.array([np.pi / 2]))
        sol = solve_bie(ks, np.cos(3 * t))
        assert np.abs(sol.rho - np.sin(3 * t)).max() < 1e-12
        assert np.abs(sol.h).max() < 1e-13
        assert np.abs(sol.h_dev).max() < 1e-13

    def test_linearity(self):
        bp, t = circle_bp(64)
        ks = KernelSet(bp, np.array([np.pi / 2]))
        g1 = np.cos(2 * t) + 0.3 * np.sin(5 * t)
        g2 = np.sin(t) - np.cos(4 * t)
        r1 = solve_bie(ks, g1).rho
        r2 = solve_bie(ks, g2).rho
        r12 = solve_bie(ks, 2.0 * g1 - 0.5 * g2).rho
        assert np.abs(r12 - (2.0 * r1 - 0.5 * r2)).max() < 1e-11

    def test_zero_rhs_short_circuit(self):
        bp, t = circle_bp(64)
        ks = KernelSet(bp, np.array([np.pi / 2]))
        sol = solve_bie(ks, np.zeros_like(t))
        assert np.abs(sol.rho).max() == 0.0
        assert sol.stats.iterations == 0
        # constants lie in the kernel of M up to roundoff
        assert np.abs(solve_bie(ks, np.ones_like(t)).rho).max() < 1e-12

    def test_invalid_inputs(self):
        bp, t = circle_bp(64)
        ks = KernelSet(bp, np.array([np.pi / 2]))
        with pytest.raises(ValueError):
            solve_bie(ks, np.full_like(t, np.nan))

    def test_maxit_exhaustion_raises(self, monkeypatch):
        # on the circle alone GMRES finishes in two steps (I - N is identity
        # plus rank one), so use a two-component geometry with a tiny budget
        import stripcap.solver as solver

        monkeypatch.setattr(solver, "KRYLOV_BUDGET", 2)
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        he, hd = parametrize_ellipse(EllipseParams(z=0.3, a=0.5, theta=0.2, r=0.4), n)
        bp = BoundaryParametrization(
            np.vstack([np.exp(1j * t), he]),
            np.vstack([1j * np.exp(1j * t), hd]),
        )
        ks = KernelSet(bp, np.array([np.pi / 2, np.pi / 2]))
        gamma = np.log(np.abs(bp.eta - 0.3))
        with pytest.raises(ConvergenceError) as exc:
            solve_bie(ks, gamma)
        assert len(exc.value.history) >= 1

    def test_second_call_costs_no_krylov_pass(self):
        # the first pass forms the true residual of its iterate, which
        # already meets TOL, so no second pass runs: the solve's matvecs are
        # its Krylov iterations, that residual and the field's (I-N) gamma
        ks, gamma = four_slit_system()
        apply = ks.apply_I_minus_N
        calls = []

        def counted(x):
            calls.append(1)
            return apply(x)

        ks.apply_I_minus_N = counted
        sol = solve_bie(ks, gamma)
        assert sol.stats.iterations > 0
        assert len(calls) == sol.stats.iterations + 2

    def test_second_call_rescues_a_spoilt_iterate(self, monkeypatch):
        # a first pass that ends 1e-9 off is repaired by the second pass,
        # whose Krylov iterations count in the stats
        import stripcap.solver as solver

        ks, gamma = four_slit_system()
        clean = solve_bie(ks, gamma)
        real_pass = solver._gmres_pass
        calls = []

        def spoilt_first(matvec, b, x, r, atol, history):
            x, r = real_pass(matvec, b, x, r, atol, history)
            calls.append(1)
            if len(calls) == 1:
                x = x + 1e-9
                r = b - matvec(x)
            return x, r

        monkeypatch.setattr(solver, "_gmres_pass", spoilt_first)
        sol = solve_bie(ks, gamma)
        assert len(calls) == 2
        assert sol.stats.residual <= 10 * solver.TOL * np.abs(ks.apply_M(gamma)).max()
        assert np.abs(sol.rho - clean.rho).max() < 1e-12
        assert sol.stats.iterations > clean.stats.iterations
        assert len(sol.stats.history) == sol.stats.iterations

    def test_breakdown_on_the_identity(self):
        # A = I maps the first basis vector into the basis: the pass stops
        # after one iteration at the exact x, without dividing by the zero
        # Hessenberg entry (atol = 0 leaves breakdown as the only exit)
        import stripcap.solver as solver

        b = np.random.default_rng(5).standard_normal(200)
        history = []
        x, r = solver._gmres_pass(lambda v: v.copy(), b, np.zeros_like(b), b.copy(), 0.0, history)
        assert len(history) == 1
        assert np.abs(x - b).max() <= 1e-15 * np.abs(b).max()
        assert np.array_equal(r, b - x)

    def test_matches_scipy_gmres(self):
        # the in-house pass is scipy's restart-free gmres loop: on the same
        # system it takes the same iterations to the same iterate
        linalg = pytest.importorskip("scipy.sparse.linalg")
        import stripcap.solver as solver

        ks, gamma = four_slit_system()
        rhs = -ks.apply_M(gamma).reshape(-1)
        op = linalg.LinearOperator(
            ks.N.shape, dtype=float,
            matvec=lambda z: ks.apply_I_minus_N(z.reshape(gamma.shape)).reshape(-1),
        )
        history = []
        ref, _ = linalg.gmres(
            op, rhs, rtol=solver.TOL, atol=0.0,
            restart=min(solver.KRYLOV_BUDGET, rhs.size), maxiter=1,
            callback=history.append, callback_type="pr_norm",
        )
        sol = solve_bie(ks, gamma)
        assert sol.stats.iterations == len(history)
        assert np.abs(sol.rho.reshape(-1) - ref).max() <= 1e-14 * np.abs(ref).max()


class TestBlockSolve:
    """The right-hand sides of a (k, m+1, n) gamma share one Krylov space."""

    @staticmethod
    def block_system():
        # the strip-map data plus the capacity data of two plates, on the
        # four-slit initial ellipses
        ks, gamma = four_slit_system()
        eta = ks.bp.eta
        rows = [gamma, np.log(np.abs(eta - ks.bp.eta[1].mean())),
                np.log(np.abs(eta - ks.bp.eta[3].mean()))]
        return ks, np.array(rows)

    def test_block_equals_single_solves(self):
        ks, gammas = self.block_system()
        block = solve_bie(ks, gammas)
        assert block.rho.shape == gammas.shape
        assert block.h.shape == block.h_dev.shape == (3, ks.bp.m + 1)
        assert block.stats.residual.shape == (3,)
        for k, gamma in enumerate(gammas):
            single = solve_bie(ks, gamma)
            for got, ref in ((block.rho[k], single.rho), (block.h[k], single.h)):
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_one_row_block_bit_identical(self):
        ks, gamma = four_slit_system()
        single = solve_bie(ks, gamma)
        block = solve_bie(ks, gamma[None, :])
        assert block.rho.shape == (1,) + gamma.shape
        assert block.h.shape == (1, ks.bp.m + 1)
        assert np.array_equal(block.rho[0], single.rho)
        assert np.array_equal(block.h[0], single.h)
        assert np.array_equal(block.h_dev[0], single.h_dev)
        assert block.stats.history == single.stats.history
        assert block.stats.residual[0] == single.stats.residual

    def test_rows_of_unlike_norms_meet_their_own_gates(self):
        # without the per-row scaling the 1e-8 row would be held only to
        # the joint tolerance, 1e-8 of its own: its residual stops at 3e-16
        ks, gammas = self.block_system()
        gammas = gammas[:2]
        rhs = -ks.apply_M(gammas)
        scale = np.array([1.0, 1e-8]) / np.linalg.norm(rhs.reshape(2, -1), axis=1)
        gammas *= scale[:, None, None]
        sol = solve_bie(ks, gammas)
        rhs = -ks.apply_M(gammas)
        for k in range(2):
            residual = np.abs(rhs[k] - ks.apply_I_minus_N(sol.rho[k])).max()
            assert residual <= 10 * 1e-14 * np.abs(rhs[k]).max()
            assert sol.stats.residual[k] <= 10 * 1e-14 * np.abs(rhs[k]).max()

    def test_zero_row(self):
        ks, gammas = self.block_system()
        gammas[1] = 0.0
        sol = solve_bie(ks, gammas)
        assert not sol.rho[1].any()
        assert sol.stats.residual[1] == 0.0
        assert np.abs(sol.rho[0] - solve_bie(ks, gammas[0]).rho).max() < 1e-12

    def test_block_stall_names_the_row(self, monkeypatch):
        import stripcap.solver as solver

        monkeypatch.setattr(solver, "KRYLOV_BUDGET", 2)
        ks, gammas = self.block_system()
        with pytest.raises(ConvergenceError, match="right-hand side 0") as exc:
            solve_bie(ks, gammas)
        assert len(exc.value.history) == 4

    def test_shape_checked(self):
        # a flat vector, too few component rows and a (k, ntot) block are
        # all rejected by name of the expected (m+1, n) = (5, 64)
        ks, gamma = four_slit_system(64)
        flat = gamma.reshape(-1)
        for bad in (flat, gamma[:-1], np.stack([flat] * 3),
                    gamma.reshape(1, 1, -1), gamma.reshape(-1, 2)):
            with pytest.raises(ValueError, match=r"shape \(5, 64\)"):
                solve_bie(ks, bad)


class TestCauchyEval:
    def test_polynomial_reproduction(self):
        bp, t = circle_bp(128)
        rng = np.random.default_rng(3)
        pts = 0.5 * (rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40))
        coeff = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f = lambda w: np.polyval(coeff, w)
        vals = cauchy_eval(bp.flat_eta, bp.flat_eta_dot, f(bp.flat_eta), pts)
        assert np.abs(vals - f(pts)).max() < 1e-12

    def test_geometric_convergence(self):
        # f(w) = 1/(w - 2) is analytic in the disk; trapezoidal Cauchy sums
        # converge geometrically in n
        errs = []
        pts = np.array([0.3 + 0.4j, -0.5j, 0.1])
        for n in (16, 32, 64):
            bp, t = circle_bp(n)
            f = 1.0 / (bp.flat_eta - 2.0)
            vals = cauchy_eval(bp.flat_eta, bp.flat_eta_dot, f, pts)
            errs.append(np.abs(vals - 1.0 / (pts - 2.0)).max())
        assert errs[1] < 0.1 * errs[0]
        assert errs[2] < 0.1 * errs[1]
        assert errs[2] < 1e-9

    def test_constant_exact_near_boundary(self):
        bp, t = circle_bp(64)
        pts = np.array([0.999, 0.999999 * np.exp(0.3j)])
        vals = cauchy_eval(
            bp.flat_eta, bp.flat_eta_dot, np.ones(bp.flat_eta.size), pts
        )
        assert np.abs(vals - 1.0).max() < 1e-13

    def test_on_boundary_rejected(self):
        bp, t = circle_bp(64)
        with pytest.raises(GeometryError):
            cauchy_eval(
                bp.flat_eta, bp.flat_eta_dot, np.ones(bp.flat_eta.size),
                np.array([bp.flat_eta[5]]),
            )

    def test_non_finite_point_rejected(self):
        bp, t = circle_bp(64)
        with pytest.raises(ValueError, match="evaluation points must be finite"):
            cauchy_eval(
                bp.flat_eta, bp.flat_eta_dot, np.ones(bp.flat_eta.size),
                np.array([0.1, np.nan]),
            )

    def test_no_points(self):
        bp, t = circle_bp(64)
        vals = cauchy_eval(
            bp.flat_eta, bp.flat_eta_dot, np.ones(bp.flat_eta.size),
            np.array([], dtype=complex),
        )
        assert vals.shape == (0,)

    def test_multiply_connected_reproduction(self):
        # disk minus one elliptical hole; f(w) = 1/(w - z0) with the pole z0
        # hidden inside the hole is analytic on the domain and must be
        # reproduced from its boundary samples on circle + hole together
        n = 256
        t = 2 * np.pi * np.arange(n) / n
        p = EllipseParams(z=0.3, a=0.5, theta=0.2, r=0.4)
        he, hd = parametrize_ellipse(p, n)
        eta = np.vstack([np.exp(1j * t), he])
        eta_dot = np.vstack([1j * np.exp(1j * t), hd])
        bp = BoundaryParametrization(eta, eta_dot)
        z0 = 0.3 + 0.02j
        f = lambda w: 1.0 / (w - z0)
        pts = np.array([-0.6, 0.8j, 0.3 + 0.6j, -0.2 - 0.5j])
        vals = cauchy_eval(bp.flat_eta, bp.flat_eta_dot, f(bp.flat_eta), pts)
        assert np.abs(vals - f(pts)).max() < 1e-10


class TestCauchySums:
    @staticmethod
    def problem(nb=2560, nt=2000, seed=4):
        rng = np.random.default_rng(seed)
        nodes = np.exp(2j * np.pi * np.arange(nb) / nb)
        weights = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        values = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        targets = 0.95 * np.sqrt(rng.uniform(size=nt)) * np.exp(2j * np.pi * rng.uniform(size=nt))
        return nodes, weights, values, targets

    def test_matches_complex_division(self):
        nodes, weights, values, targets = self.problem()
        num, den, dmin = cauchy_sums(nodes, weights, values, targets)
        inv = 1.0 / (nodes[None, :] - targets[:, None])
        ref_num, ref_den = inv @ (values * weights), inv @ weights
        assert np.abs(num - ref_num).max() <= 1e-13 * np.abs(ref_num).max()
        assert np.abs(den - ref_den).max() <= 1e-13 * np.abs(ref_den).max()
        ref_dmin = np.abs(nodes[None, :] - targets[:, None]).min(axis=1)
        assert np.abs(dmin - ref_dmin).max() <= 1e-15

    def test_coincident_node(self):
        nodes, weights, values, targets = self.problem(nt=50)
        targets[17] = nodes[123]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, dmin = cauchy_sums(nodes, weights, values, targets)
            assert dmin[17] == 0.0 and (np.delete(dmin, 17) > 0.0).all()
            with pytest.raises(GeometryError, match="boundary"):
                cauchy_eval(nodes, weights, values, targets)

    def test_bit_identical_for_any_worker_count(self, monkeypatch):
        # 2002 targets end the one-worker grid (25 rows of 2560 nodes) in a
        # two-row chunk: split into single rows, it would go through BLAS
        # gemv rather than gemm
        nodes, weights, values, targets = self.problem(nt=2002)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(geometry, "WORKERS", workers)
            results.append(cauchy_sums(nodes, weights, values, targets))
        for got in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(got, results[0]))

    def test_coincident_node_in_a_pool_chunk(self, monkeypatch):
        # the worker thread's division by zero warns under its own errstate
        # unless the body sets one
        monkeypatch.setattr(geometry, "WORKERS", 2)
        nodes, weights, values, targets = self.problem(nt=50)
        assert any(c.start <= 17 < c.stop for c in geometry._chunks(nodes.size, 50)[1::2])
        targets[17] = nodes[123]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, dmin = cauchy_sums(nodes, weights, values, targets)
            assert dmin[17] == 0.0 and (np.delete(dmin, 17) > 0.0).all()
            with pytest.raises(GeometryError, match="boundary"):
                cauchy_eval(nodes, weights, values, targets)

    def test_transient_memory_bounded(self):
        # beyond its (targets x 4) sums and the targets-long dmin and result,
        # cauchy_eval holds each worker's two real buffers and at most two
        # chunk temporaries of their size; chunks of about 2^16 / W elements
        # for W workers keep these near 2 MiB together for any W, and 1 MiB
        # covers the small per-node and per-chunk arrays
        nodes, weights, values, targets = self.problem(nt=20000)
        tracemalloc.start()
        try:
            vals = cauchy_eval(nodes, weights, values, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = targets.size * (4 * 8 + 8) + vals.nbytes
        assert peak - outputs <= 2 * 2**20 + 2**20
