import os
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import stripcap as sc
from stripcap import geometry
from stripcap.geometry import BoundaryParametrization, psi_inv, psi_inv_deriv
from stripcap.kernels import KernelSet, singular_cot_part

from conftest import CHANNEL_SLITS, FOUR_SLITS


def circle_bp(n=128):
    t = 2 * np.pi * np.arange(n) / n
    eta = np.exp(1j * t)[None, :]
    return BoundaryParametrization(eta, 1j * eta)


def two_component_bp(n=128):
    """Unit circle plus one off-center ellipse-image hole."""
    params = [sc.EllipseParams(z=0.3 + 0.2j, a=0.7, theta=0.4, r=0.35)]
    return sc.build_preimage_boundary(params, n)


def channel_bp(n=128):
    """The channel's initial ellipses at n: five components, mixed angles."""
    dom = sc.StripSlitDomain(CHANNEL_SLITS)
    return dom, sc.build_preimage_boundary(sc.initialize(dom, sc.IterationConfig(n=n)), n)


def blocks(bp):
    """(j, k, index) of every n x n block of an assembled matrix."""
    n = bp.n
    return [
        (j, k, np.s_[j * n : (j + 1) * n, k * n : (k + 1) * n])
        for j in range(bp.m + 1)
        for k in range(bp.m + 1)
    ]


def resident_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def node_params(bp):
    """The parameter t of every node, in component rows."""
    return np.tile(2 * np.pi * np.arange(bp.n) / bp.n, (bp.m + 1, 1))


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
        got = ks.apply_M(gamma[None])[0]
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

        def data(tq):
            # unlike signals on the two components: a cot convolution run
            # across the whole vector, not per component, misses the oracle
            return np.vstack([
                np.cos(tq) + 0.5 * np.sin(2 * tq),
                np.exp(np.sin(tq)) - 0.3 * np.cos(3 * tq),
            ])

        gamma = data(t)
        gamma_off = data(t_off).reshape(-1)
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
        got = ks.apply_M(gamma).reshape(-1)
        assert np.abs(got - brute).max() < 1e-8


class TestOperators:
    def test_N_oracle_against_plain_quadrature(self):
        """x - apply_I_minus_N(x) is precisely the trapezoidal rule with the
        stored N; verify against the direct formula off the diagonal plus the
        stored diagonal (rules out indexing/transposition mistakes)."""
        bp = two_component_bp(64)
        ks = KernelSet(bp, theta=[np.pi / 2, 0.1])
        x = np.cos(2 * node_params(bp))
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
        ref = (2 * np.pi / bp.n) * (Nref @ x.reshape(-1))
        assert np.abs((x - ks.apply_I_minus_N(x)).reshape(-1) - ref).max() < 1e-12

    def test_shape_checked(self):
        # a flat vector, too few component rows and a (k, ntot) block are
        # all rejected by name of the expected (m+1, n) = (2, 64)
        bp = two_component_bp(64)
        ks = KernelSet(bp, theta=[np.pi / 2, 0.1])
        flat = np.cos(node_params(bp)).reshape(-1)
        for bad in (flat, flat[:64][None], np.stack([flat] * 3)):
            for apply in (ks.apply_M, ks.apply_I_minus_N):
                with pytest.raises(ValueError, match=r"shape \(\.\.\., 2, 64\)"):
                    apply(bad)


class TestAssembly:
    def test_kernel_matrices_finite_and_consistent(self):
        bp = two_component_bp(64)
        ks = KernelSet(bp, np.array([np.pi / 2, np.pi / 2]))
        assert np.all(np.isfinite(ks.N))
        assert np.all(np.isfinite(ks.M1))
        x = np.cos(3 * node_params(bp))
        direct = x.reshape(-1) - ks.N @ x.reshape(-1) * (2 * np.pi / 64)
        assert np.abs(ks.apply_I_minus_N(x).reshape(-1) - direct).max() < 1e-12

    def test_M1_oracle_against_direct_formula(self):
        """Off the diagonal M1 is Re C plus cot((t_i - t_j)/2)/(2 pi) within
        a component and Re C alone across components."""
        bp = two_component_bp(64)
        ks = KernelSet(bp, theta=[np.pi / 2, 0.1])
        eta, dot, A = bp.flat_eta, bp.flat_eta_dot, ks.A.reshape(-1)
        t, comp = node_params(bp).reshape(-1), np.arange(bp.eta.size) // bp.n
        for i in (0, 5, 63, 64, 100):
            off = np.arange(bp.eta.size) != i
            ref = (A[i] / A[off] * dot[off] / (eta[off] - eta[i])).real / np.pi
            same = comp[off] == comp[i]
            ref[same] += 0.5 / np.pi / np.tan(0.5 * (t[i] - t[off][same]))
            assert np.abs(ks.M1[i, off] - ref).max() < 1e-11

    def test_transient_memory_bounded(self):
        # beyond the stored N and M1, assembly holds each worker's two real
        # buffers and at most three complex temporaries of one chunk; chunks
        # of about 2^16 / W elements for W workers keep these near 1 MiB of
        # buffers and 3 MiB of temporaries for any W, plus 4 MiB for the
        # n x n cot circulant (2 MiB at n=512) and the small per-node arrays;
        # N and M1 live in their own mappings, which tracemalloc does not see
        cfg = sc.IterationConfig(n=512)
        dom = sc.StripSlitDomain(FOUR_SLITS)
        bp = sc.build_preimage_boundary(sc.initialize(dom, cfg), cfg.n)
        tracemalloc.start()
        try:
            KernelSet(bp, np.full(bp.m + 1, np.pi / 2))
            transient = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert transient <= 2 * 2**19 + 3 * 2**20 + 4 * 2**20

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux /proc")
    def test_dead_kernel_leaves_no_resident_memory(self):
        # 13 MB arrays at n=256: below malloc's 32 MB mmap ceiling, so after
        # the first kernel dies the next one could come from the heap, where
        # an array allocated after it and still alive would keep it resident
        cfg = sc.IterationConfig(n=256)
        dom = sc.StripSlitDomain(FOUR_SLITS)
        bp = sc.build_preimage_boundary(sc.initialize(dom, cfg), cfg.n)
        theta = np.full(bp.m + 1, np.pi / 2)
        KernelSet(bp, theta)
        ks = KernelSet(bp, theta)
        stored = ks.N.nbytes + ks.M1.nbytes
        later = np.ones(2**17)
        before = resident_bytes()
        del ks
        assert before - resident_bytes() >= 0.99 * stored
        assert later.all()

    def test_reangle_transient_memory_bounded(self):
        # re-angling every coupling block of the four-slit kernel at n=512
        # allocates its one n x n scratch block; two blocks bound it
        cfg = sc.IterationConfig(n=512)
        dom = sc.StripSlitDomain(FOUR_SLITS)
        bp = sc.build_preimage_boundary(sc.initialize(dom, cfg), cfg.n)
        ks = KernelSet(bp, np.full(bp.m + 1, np.pi / 2))
        tracemalloc.start()
        try:
            ks.reangle(np.linspace(0.0, 0.4, bp.m + 1))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current <= 2 * 8 * bp.n**2

    def test_bit_identical_for_any_worker_count(self, monkeypatch):
        _, bp = channel_bp(128)
        theta = np.linspace(0.0, 1.0, bp.m + 1)
        kernels = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(geometry, "WORKERS", workers)
            kernels.append(KernelSet(bp, theta))
        for ks in kernels[1:]:
            assert np.array_equal(ks.N, kernels[0].N)
            assert np.array_equal(ks.M1, kernels[0].M1)

    def test_coincident_nodes_in_a_pool_chunk(self, monkeypatch):
        # one hole runs through one point twice, at rows 260 and 300 of 384;
        # the caller gets the worker thread's error, and the next call works
        monkeypatch.setattr(geometry, "WORKERS", 2)
        good = two_component_bp(128)
        eta, eta_dot = np.vstack([good.eta, good.eta[1:]]), np.vstack([good.eta_dot, good.eta_dot[1:]])
        eta[2] = 0.5 * good.eta[1] - 0.2  # a second hole, clear of the first
        eta[2, 44] = eta[2, 4]
        worker_rows = geometry._chunks(384, 384)[1::2]
        assert all(any(c.start <= i < c.stop for c in worker_rows) for i in (260, 300))
        with pytest.raises(sc.GeometryError, match="coincident"):
            KernelSet(BoundaryParametrization(eta, eta_dot), np.full(3, np.pi / 2))
        ks = KernelSet(good, np.full(2, np.pi / 2))
        monkeypatch.setattr(geometry, "WORKERS", 1)
        ref = KernelSet(good, np.full(2, np.pi / 2))
        assert np.array_equal(ks.N, ref.N) and np.array_equal(ks.M1, ref.M1)

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
        # a non-finite angle is named, not left to warn or spread NaN
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="theta must be finite"):
                KernelSet(bp, [np.pi / 2, bad])


class TestReangle:
    @pytest.mark.parametrize(
        "theta",
        [[0.0] * 5, [np.pi / 2] * 5, [0.0, 2.5, -2.0, 0.0, 1.0]],
        ids=["zero", "half-pi", "turns-past-half-pi"],
    )
    def test_matches_fresh_assembly(self, theta):
        # the channel's mixed angles turn every coupling block by its own phase
        dom, bp = channel_bp()
        theta = np.array(theta)
        ks = KernelSet(bp, dom.theta)
        N, M1 = ks.N.copy(), ks.M1.copy()
        assert ks.reangle(theta) is ks
        fresh = KernelSet(bp, theta)
        for j, k, b in blocks(bp):
            if j == k:
                assert np.array_equal(ks.N[b], N[b]) and np.array_equal(ks.M1[b], M1[b])
            scale = np.abs(fresh.M1[b] + 1j * fresh.N[b]).max()
            assert np.abs(ks.N[b] - fresh.N[b]).max() <= 1e-13 * scale
            assert np.abs(ks.M1[b] - fresh.M1[b]).max() <= 1e-13 * scale
        assert np.abs(ks.A - fresh.A).max() <= 1e-13 * np.abs(fresh.A).max()
        assert ks.alpha == fresh.alpha
        assert np.array_equal(ks.theta, theta)

    def test_half_turn_negates_coupling_blocks(self):
        # phi = +-pi, where the plain shear's tan(phi/2) overflows
        dom, bp = channel_bp(64)
        ks = KernelSet(bp, dom.theta)
        N, M1 = ks.N.copy(), ks.M1.copy()
        ks.reangle(dom.theta + np.array([np.pi, 0.0, 0.0, 0.0, 0.0]))
        for j, k, b in blocks(bp):
            sign = -1.0 if (j == 0) != (k == 0) else 1.0
            assert np.array_equal(ks.N[b], sign * N[b])
            assert np.array_equal(ks.M1[b], sign * M1[b])

    def test_same_angles_change_no_bit(self):
        dom, bp = channel_bp()
        ks = KernelSet(bp, dom.theta)
        before = [x.copy() for x in (ks.N, ks.M1, ks.A, ks.theta)]
        ks.reangle(list(dom.theta))
        for x, y in zip((ks.N, ks.M1, ks.A, ks.theta), before):
            assert np.array_equal(x, y)

    def test_theta_shape_validated(self):
        ks = KernelSet(two_component_bp(64), [np.pi / 2, 0.1])
        with pytest.raises(ValueError, match="theta"):
            ks.reangle([0.0])
        N, M1 = ks.N.copy(), ks.M1.copy()
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="theta must be finite"):
                ks.reangle([np.pi / 2, bad])
        assert np.array_equal(ks.N, N) and np.array_equal(ks.M1, M1)


@pytest.fixture
def kernels_built(monkeypatch):
    """Weak references to every KernelSet built from now on, and the number
    of earlier ones still alive when each was built."""
    refs, alive_before = [], []
    init = KernelSet.__init__

    def tracked(self, *args, **kwargs):
        alive_before.append(sum(ref() is not None for ref in refs))
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(KernelSet, "__init__", tracked)
    return refs, alive_before


def alive(refs):
    return sum(ref() is not None for ref in refs)


class TestOneKernelPerGeometry:
    """Each outer step assembles one kernel, the iteration keeps only the
    last, and the solves that follow on its geometry take it over."""

    def test_iterate_keeps_one_kernel_alive(self, kernels_built):
        refs, alive_before = kernels_built
        res = sc.iterate(sc.StripSlitDomain(CHANNEL_SLITS), sc.IterationConfig(n=256))
        assert res.converged and len(res.levels) == 2
        assert len(refs) == res.iterations
        assert alive_before == [0] * res.iterations
        assert alive(refs) == 1

    def test_capacity_assembles_once_per_step_and_keeps_nothing(self, kernels_built):
        refs, alive_before = kernels_built
        spec = sc.CondenserSpec(sc.StripSlitDomain(FOUR_SLITS))
        res = sc.capacity(spec, sc.IterationConfig(n=256))
        assert len(refs) == res.preimage.iterations  # the charges add none
        assert max(alive_before) == 0
        assert alive(refs) == 0

    def test_horizontal_slit_map_takes_the_kernel(self, kernels_built):
        refs, _ = kernels_built
        cfg = sc.IterationConfig(n=128, r=0.2, eps=1e-11)
        pre = sc.iterate(sc.StripSlitDomain(CHANNEL_SLITS), cfg)
        steps = len(refs)
        ups = sc.horizontal_slit_map(pre)
        assert len(refs) == steps and alive(refs) == 0
        # a second map on the same result assembles its own, and keeps none
        again = sc.horizontal_slit_map(pre)
        assert len(refs) == steps + 1 and alive(refs) == 0
        assert np.abs(again.zeta[1:] - ups.zeta[1:]).max() <= 1e-10
