import numpy as np
import pytest

import stripcap as sc
from stripcap.geometry import (
    HALF_PI,
    point_segment_distance,
    psi_inv_deriv,
    segment_distance,
    segments_cross,
    trig_interp,
    trig_interp_maximizer,
    winding_number,
)


class TestStripMaps:
    def test_psi_psi_inv_round_trip(self):
        # the disk coordinate saturates towards +-1 like 1 - 2e^{-|Re z|},
        # so the recoverable accuracy decays by exactly that factor: demand
        # eps-level accuracy relative to the representable resolution
        rng = np.random.default_rng(0)
        z = rng.uniform(-20, 20, 200) + 1j * rng.uniform(-1.5, 1.5, 200)
        back = sc.psi(sc.psi_inv(z))
        limit = 20 * np.finfo(float).eps * np.exp(np.abs(z.real)) + 1e-13
        assert np.all(np.abs(back - z) < limit)

    def test_psi_psi_inv_round_trip_moderate(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-8, 8, 200) + 1j * rng.uniform(-1.5, 1.5, 200)
        back = sc.psi(sc.psi_inv(z))
        assert np.abs(back - z).max() < 1e-12

    def test_psi_inv_is_tanh_half(self):
        z = 0.3 + 0.2j
        assert sc.psi_inv(z) == pytest.approx(np.tanh(z / 2))

    def test_psi_inv_deriv_matches_finite_difference(self):
        z = np.array([0.1 + 0.4j, -1.0 - 0.2j, 2.0 + 1.0j])
        h = 1e-6
        fd = (sc.psi_inv(z + h) - sc.psi_inv(z - h)) / (2 * h)
        assert np.abs(psi_inv_deriv(z) - fd).max() < 1e-9

    def test_psi_maps_circle_to_walls(self):
        t = 2 * np.pi * np.arange(8, 264) / 512
        w = np.exp(1j * t)
        assert np.abs(np.abs(sc.psi(w).imag) - HALF_PI).max() < 1e-12


class TestTrigTools:
    def test_derivative_exact_on_trig_polynomials(self):
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        f = 2 + np.cos(3 * t) - 4 * np.sin(7 * t)
        df = -3 * np.sin(3 * t) - 28 * np.cos(7 * t)
        assert np.abs(sc.trig_derivative(f) - df).max() < 1e-12

    def test_derivative_complex_samples(self):
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        f = np.exp(1j * t) + 0.5 * np.exp(-3j * t)
        df = 1j * np.exp(1j * t) - 1.5j * np.exp(-3j * t)
        assert np.abs(sc.trig_derivative(f) - df).max() < 1e-12

    def test_interp_reproduces_nodes_and_off_grid(self):
        n = 32
        t = 2 * np.pi * np.arange(n) / n
        f = np.cos(2 * t) + 3 * np.sin(5 * t)
        assert np.abs(trig_interp(f, t) - f).max() < 1e-12
        tq = np.array([0.123, 1.456, 5.0])
        ref = np.cos(2 * tq) + 3 * np.sin(5 * tq)
        assert np.abs(trig_interp(f, tq) - ref).max() < 1e-12

    def test_maximizer_finds_exact_extremum(self):
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        f = 3 + np.cos(t - 1.234)
        t_hi, u_hi = trig_interp_maximizer(f, sign=+1.0)
        t_lo, u_lo = trig_interp_maximizer(f, sign=-1.0)
        assert u_hi == pytest.approx(4.0, abs=1e-13)
        assert u_lo == pytest.approx(2.0, abs=1e-13)
        assert t_hi % (2 * np.pi) == pytest.approx(1.234, abs=1e-10)

    def test_maximizer_multimodal(self):
        n = 128
        t = 2 * np.pi * np.arange(n) / n
        f = np.cos(t) + 0.3 * np.cos(2 * t - 0.7)
        _, u_hi = trig_interp_maximizer(f, sign=+1.0)
        dense = np.linspace(0, 2 * np.pi, 2_000_001)
        ref = (np.cos(dense) + 0.3 * np.cos(2 * dense - 0.7)).max()
        assert u_hi == pytest.approx(ref, abs=1e-10)


class TestSlitSpec:
    def test_derived_quantities(self):
        s = sc.SlitSpec(2 - 1j, 3.5 + 0.5j)
        assert s.c == pytest.approx(2.75 - 0.25j)
        assert s.ell == pytest.approx(abs(1.5 + 1.5j))
        assert s.theta == pytest.approx(np.pi / 4)

    def test_theta_normalized_to_half_open_interval(self):
        # direction does not matter: theta lives in (-pi/2, pi/2]
        assert sc.SlitSpec(1, 0).theta == pytest.approx(0.0)
        assert sc.SlitSpec(1j, -1j).theta == pytest.approx(np.pi / 2)
        up = sc.SlitSpec(0, 1 + 1j).theta
        down = sc.SlitSpec(1 + 1j, 0).theta
        assert up == pytest.approx(down)

    def test_rejects_endpoints_outside_strip(self):
        with pytest.raises(sc.GeometryError):
            sc.SlitSpec(0, 2j)

    def test_rejects_degenerate(self):
        with pytest.raises(sc.GeometryError):
            sc.SlitSpec(1 + 0.1j, 1 + 0.1j)

    def test_rejects_non_finite_endpoints(self):
        with pytest.raises(sc.GeometryError, match="endpoint a is not finite"):
            sc.SlitSpec(complex(np.nan, 0.0), 1.0)
        with pytest.raises(sc.GeometryError, match="endpoint b is not finite"):
            sc.SlitSpec(0.0, complex(np.inf, 0.1))
        with pytest.raises(sc.GeometryError, match="endpoint b is not finite"):
            sc.SlitSpec(0.0, complex(0.0, np.nan))


class TestDistances:
    def test_point_segment_distance_vectorized(self):
        z = np.array([0.0, 1 + 1j, 3.0, -1.0])
        d = point_segment_distance(z, 0.0, 2.0)
        assert d == pytest.approx([0.0, 1.0, 1.0, 1.0])

    def test_segment_distance_crossing_is_zero(self):
        assert segment_distance(-1, 1, -1j, 1j) == 0.0

    def test_segment_distance_parallel(self):
        assert segment_distance(0, 1, 1j, 1 + 1j) == pytest.approx(1.0)

    def test_segment_distance_endpoint_gap(self):
        assert segment_distance(0, 1, 2, 3) == pytest.approx(1.0)

    def test_segments_cross_broadcasts(self):
        # one segment against three: crossing, parallel, beyond its end
        q0 = np.array([-1j, 1j, 2 - 1j])
        q1 = np.array([1j, 1 + 1j, 2 + 1j])
        assert list(segments_cross(-1, 1, q0, q1)) == [True, False, False]
        # every pair of 40 random segments against the orientation signs
        # formed directly as Im((u - o) conj(v - o))
        rng = np.random.default_rng(2)
        p0, p1, q0, q1 = rng.normal(size=(4, 40)) + 1j * rng.normal(size=(4, 40))
        p0, p1 = p0[:, None], p1[:, None]

        def left(o, u, v):
            return ((u - o) * np.conj(v - o)).imag > 0

        ref = (left(p0, p1, q0) != left(p0, p1, q1)) & (
            left(q0, q1, p0) != left(q0, q1, p1)
        )
        assert 0 < ref.sum() < ref.size
        assert np.array_equal(segments_cross(p0, p1, q0, q1), ref)


class TestDomain:
    def test_overlapping_slits_rejected(self):
        with pytest.raises(sc.OverlapError):
            sc.StripSlitDomain([sc.SlitSpec(-1, 1), sc.SlitSpec(-1j, 1j)])

    def test_from_dict(self):
        dom = sc.StripSlitDomain.from_dict(
            {"slits": [{"a": [-1, -0.5], "b": [1, 0.25]}, {"a": [0, 1], "b": [1, 1]}]}
        )
        assert dom.slits == (
            sc.SlitSpec(-1 - 0.5j, 1 + 0.25j),
            sc.SlitSpec(1j, 1 + 1j),
        )

    def test_theta_vector_starts_with_zero(self):
        dom = sc.StripSlitDomain([sc.SlitSpec(-1j, 1j)])
        assert dom.theta[0] == 0.0
        assert dom.theta[1] == pytest.approx(np.pi / 2)

    def test_needs_at_least_one_slit(self):
        with pytest.raises(sc.GeometryError):
            sc.StripSlitDomain([])


class TestEllipse:
    def test_parametrization_is_closed_clockwise(self):
        p = sc.EllipseParams(z=0.5 + 0.1j, a=0.8, theta=0.3, r=0.2)
        hat, hat_dot = sc.parametrize_ellipse(p, 128)
        # clockwise orientation: winding number about the center is -1
        assert winding_number(hat, np.array([p.z]))[0] == -1

    def test_parametrization_derivative_is_spectral(self):
        p = sc.EllipseParams(z=-0.2j, a=0.5, theta=-0.8, r=0.3)
        hat, hat_dot = sc.parametrize_ellipse(p, 64)
        assert np.abs(sc.trig_derivative(hat) - hat_dot).max() < 1e-12

    def test_axis_lengths(self):
        p = sc.EllipseParams(z=0, a=1.0, theta=0.0, r=0.25)
        hat, _ = sc.parametrize_ellipse(p, 256)
        assert hat.real.max() == pytest.approx(0.5, abs=1e-12)
        assert hat.imag.max() == pytest.approx(0.125, abs=1e-12)


class TestWinding:
    def test_unit_circle(self):
        t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        curve = np.exp(1j * t)
        w = winding_number(curve, np.array([0.0, 0.5j, 2.0]))
        assert list(w) == [1, 1, 0]
        # more points than one row chunk holds (2^21 // 64 = 32768); the
        # 64-gon's inradius cos(pi/64) exceeds 0.99
        rng = np.random.default_rng(5)
        radius = np.concatenate([rng.uniform(0, 0.99, 20000), rng.uniform(1.01, 2, 20000)])
        pts = radius * np.exp(2j * np.pi * rng.uniform(size=radius.size))
        w = winding_number(curve[::4], pts)
        assert w.shape == (40000,)
        assert np.array_equal(w, (radius < 1).astype(int))


class TestPreimageBoundary:
    def test_structure(self):
        params = [sc.EllipseParams(z=0.4j, a=0.6, theta=0.2, r=0.2)]
        bp = sc.build_preimage_boundary(params, 64)
        assert bp.m == 1
        assert bp.n == 64
        assert np.abs(np.abs(bp.eta[0]) - 1.0).max() < 1e-14
        assert np.abs(bp.eta[1]).max() < 1.0

    def test_split_round_trip(self):
        params = [sc.EllipseParams(z=0.4j, a=0.6, theta=0.2, r=0.2)]
        bp = sc.build_preimage_boundary(params, 64)
        flat = np.arange(bp.eta.size, dtype=float)
        assert np.array_equal(bp.split(flat).reshape(-1), flat)

    def test_overlapping_ellipses_rejected(self):
        crossing = [
            sc.EllipseParams(z=-0.05, a=0.8, theta=0.0, r=0.5),
            sc.EllipseParams(z=0.05, a=0.8, theta=0.0, r=0.5),
        ]
        # the second hole lies inside the first: no edges cross
        nested = [
            sc.EllipseParams(z=0, a=1.0, theta=0, r=1.0),
            sc.EllipseParams(z=0.15j, a=0.05, theta=np.pi / 2, r=1.0),
        ]
        for params, what in ((crossing, "intersect"), (nested, "nested")):
            with pytest.raises(sc.OverlapError, match=what):
                sc.build_preimage_boundary(params, 128)

    def test_ellipse_leaving_strip_rejected(self):
        params = [sc.EllipseParams(z=1.5j, a=0.5, theta=np.pi / 2, r=0.5)]
        with pytest.raises(sc.GeometryError):
            sc.build_preimage_boundary(params, 64)

    def test_n_must_be_power_of_two(self):
        params = [sc.EllipseParams(z=0.0, a=0.5, theta=0.0, r=0.2)]
        with pytest.raises(ValueError):
            sc.build_preimage_boundary(params, 100)
