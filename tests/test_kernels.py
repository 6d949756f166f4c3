import tracemalloc
import warnings

import numpy as np
import pytest

import stripcap as sc
from stripcap.geometry import BoundaryParametrization, psi_inv, psi_inv_deriv
from stripcap.kernels import KernelSet, singular_cot_part

from conftest import FOUR_SLITS


def circle_bp(n=128):
    t = 2 * np.pi * np.arange(n) / n
    eta = np.exp(1j * t)[None, :]
    return BoundaryParametrization(eta, 1j * eta)


def two_component_bp(n=128):
    """Unit circle plus one off-center ellipse-image hole."""
    params = [sc.EllipseParams(z=0.3 + 0.2j, a=0.7, theta=0.4, r=0.35)]
    return sc.build_preimage_boundary(params, n)


def flat_nodes(bp):
    """The parameter t of every node, component after component."""
    return np.tile(2 * np.pi * np.arange(bp.n) / bp.n, bp.m + 1)


class TestClosedForms:
    def test_circle_N_is_constant(self):
        bp = circle_bp()
        ks = KernelSet(bp, theta=[np.pi / 2])  # alpha = 0, so A = eta
        assert np.abs(ks.N + 1.0 / (2 * np.pi)).max() < 1e-13

    def test_circle_M1_vanishes(self):
        bp = circle_bp()
        ks = KernelSet(bp, theta=[np.pi / 2])
        assert np.abs(ks.M1).max() < 1e-12


class TestDiagonal:
    def test_diagonal_is_off_diagonal_limit(self):
        """Richardson-extrapolate N(t0+h, t0) towards h -> 0 and compare with
        the stored diagonal entry (an independent oracle for the Taylor
        limit)."""
        bp = two_component_bp(256)
        ks = KernelSet(bp, theta=[np.pi / 2, np.pi / 2])
        # continuous parametrization of the hole for off-grid samples
        p = sc.EllipseParams(z=0.3 + 0.2j, a=0.7, theta=0.4, r=0.35)

        def eta_of(t):
            hat = p.z + 0.5 * p.a * np.exp(1j * p.theta) * (
                np.cos(t) - 1j * p.r * np.sin(t)
            )
            return psi_inv(hat)

        def eta_dot_of(t):
            hat = p.z + 0.5 * p.a * np.exp(1j * p.theta) * (
                np.cos(t) - 1j * p.r * np.sin(t)
            )
            hat_dot = -0.5 * p.a * np.exp(1j * p.theta) * (
                np.sin(t) + 1j * p.r * np.cos(t)
            )
            return psi_inv_deriv(hat) * hat_dot

        t0 = 2 * np.pi * 17 / bp.n
        alpha = ks.alpha

        def A_of(t):
            return eta_of(t) - alpha

        def N_off(s, t):
            return (
                A_of(s) / A_of(t) * eta_dot_of(t) / (eta_of(t) - eta_of(s))
            ).imag / np.pi

        vals = np.array([N_off(t0 + h, t0) for h in (1e-3, 5e-4)])
        extrap = 2 * vals[1] - vals[0]
        idx = bp.n + 17  # flat index of node 17 on component 1
        assert ks.N[idx, idx] == pytest.approx(extrap, abs=1e-5)


class TestConjugation:
    def test_exact_on_trig_polynomials(self):
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        # multiplier i*sign(k): cos kt -> -sin kt, sin kt -> cos kt
        for k in (1, 3, 11):
            out = singular_cot_part(np.cos(k * t)[None, :])[0]
            assert np.abs(out + np.sin(k * t)).max() < 1e-12
            out = singular_cot_part(np.sin(k * t)[None, :])[0]
            assert np.abs(out - np.cos(k * t)).max() < 1e-12

    def test_annihilates_constants(self):
        out = singular_cot_part(np.ones((1, 32)))
        assert np.abs(out).max() < 1e-14

    def test_sign_pinned_by_principal_value_quadrature_circle(self):
        """On the unit circle with A = eta the full kernel is
        M(s,t) = -cot((s-t)/2)/(2 pi), so the discretized operator must
        agree with a brute-force midpoint-offset trapezoidal principal-value
        quadrature of that kernel."""
        n = 256
        bp = circle_bp(n)
        ks = KernelSet(bp, theta=[np.pi / 2])
        t = 2 * np.pi * np.arange(n) / n
        gamma = np.exp(np.cos(t)) * np.sin(t + 0.3)
        got = ks.apply_M(gamma)
        h = 2 * np.pi / n
        t_off = t + 0.5 * h  # offset nodes never hit the singularity
        gamma_off = np.exp(np.cos(t_off)) * np.sin(t_off + 0.3)
        brute = np.empty(n)
        for i in range(n):
            kern = -np.cos(0.5 * (t[i] - t_off)) / np.sin(0.5 * (t[i] - t_off))
            brute[i] = (kern * gamma_off).sum() * h / (2 * np.pi)
        assert np.abs(got - brute).max() < 1e-10

    def test_sign_pinned_by_principal_value_quadrature_two_components(self):
        """Same oracle on a two-component geometry with a generic A: the
        direct kernel M(s,t) = (1/pi) Re[A(s)/A(t) eta'(t)/(eta(t)-eta(s))]
        integrated by the midpoint-offset rule must match apply_M."""
        n = 256
        p = sc.EllipseParams(z=0.3 + 0.2j, a=0.7, theta=0.4, r=0.35)
        bp = sc.build_preimage_boundary([p], n)
        theta = np.array([0.0, 0.4])
        ks = KernelSet(bp, theta=theta)
        alpha = ks.alpha
        t = 2 * np.pi * np.arange(n) / n
        h = 2 * np.pi / n
        t_off = t + 0.5 * h

        def boundary(tq):
            eta = np.empty((2, tq.size), dtype=complex)
            eta_dot = np.empty((2, tq.size), dtype=complex)
            eta[0] = np.exp(1j * tq)
            eta_dot[0] = 1j * eta[0]
            hat = p.z + 0.5 * p.a * np.exp(1j * p.theta) * (
                np.cos(tq) - 1j * p.r * np.sin(tq)
            )
            hat_dot = -0.5 * p.a * np.exp(1j * p.theta) * (
                np.sin(tq) + 1j * p.r * np.cos(tq)
            )
            eta[1] = psi_inv(hat)
            eta_dot[1] = psi_inv_deriv(hat) * hat_dot
            return eta, eta_dot

        eta_off, eta_dot_off = boundary(t_off)
        phase = np.exp(1j * (0.5 * np.pi - theta))
        A_off = phase[:, None] * (eta_off - alpha)
        gamma = np.cos(np.tile(t, 2)) + 0.5 * np.sin(2 * np.tile(t, 2))
        gamma_off = np.cos(np.tile(t_off, 2)) + 0.5 * np.sin(
            2 * np.tile(t_off, 2)
        )
        flat_eta_off = eta_off.reshape(-1)
        flat_dot_off = eta_dot_off.reshape(-1)
        flat_A_off = A_off.reshape(-1)
        A_s = ks.A.reshape(-1)
        eta_s = bp.flat_eta
        brute = np.empty(bp.eta.size)
        for i in range(bp.eta.size):
            kern = (
                A_s[i] / flat_A_off * flat_dot_off / (flat_eta_off - eta_s[i])
            ).real / np.pi
            brute[i] = (kern * gamma_off).sum() * h
        got = ks.apply_M(gamma)
        assert np.abs(got - brute).max() < 1e-8


class TestOperators:
    def test_N_oracle_against_plain_quadrature(self):
        """x - apply_I_minus_N(x) is precisely the trapezoidal rule with the
        stored N; verify against the direct formula off the diagonal plus the
        stored diagonal (rules out indexing/transposition mistakes)."""
        bp = two_component_bp(64)
        ks = KernelSet(bp, theta=[np.pi / 2, 0.1])
        x = np.cos(2 * flat_nodes(bp))
        eta = bp.flat_eta
        dot = bp.flat_eta_dot
        A = ks.A.reshape(-1)
        ntot = bp.eta.size
        Nref = np.empty((ntot, ntot))
        for i in range(ntot):
            with np.errstate(divide="ignore", invalid="ignore"):
                row = (A[i] / A * dot / (eta - eta[i])).imag / np.pi
            row[i] = ks.N[i, i]
            Nref[i] = row
        assert np.abs(ks.N - Nref).max() < 1e-13
        ref = (2 * np.pi / bp.n) * (Nref @ x)
        assert np.abs(x - ks.apply_I_minus_N(x) - ref).max() < 1e-12


class TestAssembly:
    def test_kernel_matrices_finite_and_consistent(self):
        bp = two_component_bp(64)
        ks = KernelSet(bp, np.array([np.pi / 2, np.pi / 2]))
        assert np.all(np.isfinite(ks.N))
        assert np.all(np.isfinite(ks.M1))
        x = np.cos(3 * flat_nodes(bp))
        direct = x - ks.N @ x * (2 * np.pi / 64)
        assert np.abs(ks.apply_I_minus_N(x) - direct).max() < 1e-12

    def test_M1_oracle_against_direct_formula(self):
        """Off the diagonal M1 is Re C plus cot((t_i - t_j)/2)/(2 pi) within
        a component and Re C alone across components."""
        bp = two_component_bp(64)
        ks = KernelSet(bp, theta=[np.pi / 2, 0.1])
        eta, dot, A = bp.flat_eta, bp.flat_eta_dot, ks.A.reshape(-1)
        t, comp = flat_nodes(bp), np.arange(bp.eta.size) // bp.n
        for i in (0, 5, 63, 64, 100):
            off = np.arange(bp.eta.size) != i
            ref = (A[i] / A[off] * dot[off] / (eta[off] - eta[i])).real / np.pi
            same = comp[off] == comp[i]
            ref[same] += 0.5 / np.pi / np.tan(0.5 * (t[i] - t[off][same]))
            assert np.abs(ks.M1[i, off] - ref).max() < 1e-11

    def test_transient_memory_bounded(self):
        # beyond the stored N and M1, assembly holds at most three complex
        # (rows x nodes) temporaries of one 2^21-element chunk (32 MiB each)
        cfg = sc.IterationConfig(n=512)
        dom = sc.StripSlitDomain(FOUR_SLITS)
        bp = sc.build_preimage_boundary(sc.initialize(dom, cfg), cfg.n)
        tracemalloc.start()
        try:
            ks = KernelSet(bp, np.full(bp.m + 1, np.pi / 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        transient = peak - ks.N.nbytes - ks.M1.nbytes
        assert transient <= 3 * 32 * 2**20 + 4 * 2**20

    def test_coincident_holes_rejected(self):
        one = two_component_bp(64)
        bp = BoundaryParametrization(  # the hole twice, node for node
            np.vstack([one.eta, one.eta[1:]]),
            np.vstack([one.eta_dot, one.eta_dot[1:]]),
        )
        with pytest.raises(sc.GeometryError, match="coincident"):
            KernelSet(bp, np.full(3, np.pi / 2))


class TestConstruction:
    def test_no_interior_candidate_rejected(self):
        # a hole covering the whole real diameter leaves no candidate
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        outer = np.exp(1j * t)
        hole = 0.999 * np.exp(-1j * t)
        bp = BoundaryParametrization(
            np.vstack([outer, hole]), np.vstack([1j * outer, -1j * hole])
        )
        with pytest.raises(sc.GeometryError, match="base point"):
            KernelSet(bp, [np.pi / 2, np.pi / 2])

    def test_node_on_candidate_emits_no_warning(self):
        # the pair [-2.1, -0.1], [0.1, 2.1] at r=0.2 puts an ellipse node at
        # 2.0, so a boundary node sits exactly on the candidate tanh(1.0);
        # the winding number about it must not divide by zero
        dom = sc.StripSlitDomain([sc.SlitSpec(-2.1, -0.1), sc.SlitSpec(0.1, 2.1)])
        cfg = sc.IterationConfig(n=64, r=0.2)
        bp = sc.build_preimage_boundary(sc.initialize(dom, cfg), cfg.n)
        assert np.abs(bp.flat_eta - np.tanh(1.0)).min() == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ks = KernelSet(bp, [np.pi / 2] * 3)
        assert ks.alpha != np.tanh(1.0)

    def test_theta_shape_validated(self):
        bp = two_component_bp(64)
        with pytest.raises(ValueError, match="theta"):
            KernelSet(bp, [np.pi / 2])
