"""Integral-equation solver and Cauchy evaluation tests."""

import numpy as np
import pytest

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
from stripcap.solver import cauchy_eval, solve_bie
from stripcap.stripmap import strip_gamma

from conftest import FOUR_SLITS


def circle_bp(n=128):
    t = 2 * np.pi * np.arange(n) / n
    eta = np.exp(1j * t)[None, :]
    eta_dot = 1j * np.exp(1j * t)[None, :]
    return BoundaryParametrization(eta, eta_dot), t


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
        gamma = np.log(np.abs(bp.flat_eta - 0.3))
        with pytest.raises(ConvergenceError) as exc:
            solve_bie(ks, gamma)
        assert len(exc.value.history) >= 1

    def test_scipy_info_flag_ignored_when_residual_met(self, monkeypatch):
        # scipy may report info != 0 for an iterate that already meets the
        # true-residual target; only that target decides
        import stripcap.solver as solver

        real_gmres = solver.gmres

        def flagged_gmres(*args, **kwargs):
            x, _ = real_gmres(*args, **kwargs)
            return x, 1

        monkeypatch.setattr(solver, "gmres", flagged_gmres)
        bp, t = circle_bp(64)
        ks = KernelSet(bp, np.array([np.pi / 2]))
        sol = solve_bie(ks, np.cos(3 * t))
        assert np.abs(sol.rho - np.sin(3 * t)).max() < 1e-12
        assert sol.stats.residual <= 10 * 1e-14 * np.abs(ks.apply_M(np.cos(3 * t))).max()

    def test_second_call_costs_no_krylov_pass(self):
        # the second gmres call restarts from the first one's iterate, which
        # already meets TOL, so it adds no Krylov iteration: the solve's
        # matvecs are its Krylov iterations plus a handful of residuals
        ks, gamma = four_slit_system()
        apply = ks.apply_I_minus_N
        calls = []

        def counted(x):
            calls.append(1)
            return apply(x)

        ks.apply_I_minus_N = counted
        sol = solve_bie(ks, gamma)
        assert sol.stats.iterations > 0
        assert len(calls) <= sol.stats.iterations + 5

    def test_second_call_rescues_a_spoilt_iterate(self, monkeypatch):
        # a first pass that ends 1e-9 off is repaired by the second call,
        # whose Krylov iterations count in the stats
        import stripcap.solver as solver

        ks, gamma = four_slit_system()
        clean = solve_bie(ks, gamma)
        real_gmres = solver.gmres
        calls = []

        def spoilt_first(*args, **kwargs):
            x, info = real_gmres(*args, **kwargs)
            calls.append(1)
            return (x + 1e-9 if len(calls) == 1 else x), info

        monkeypatch.setattr(solver, "gmres", spoilt_first)
        sol = solve_bie(ks, gamma)
        assert len(calls) == 2
        assert sol.stats.residual <= 10 * solver.TOL * np.abs(ks.apply_M(gamma)).max()
        assert np.abs(sol.rho - clean.rho).max() < 1e-12
        assert sol.stats.iterations > clean.stats.iterations
        assert len(sol.stats.history) == sol.stats.iterations


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
