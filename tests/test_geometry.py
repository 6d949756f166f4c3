import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import stripcap as sc
from stripcap import geometry
from stripcap.geometry import (
    HALF_PI,
    _spectrum,
    clearance_ratio,
    pairwise_chunks,
    point_segment_distance,
    resample,
    segment_distance,
    segments_cross,
    trig_extrema,
    trig_interp,
    winding_number,
)

# a direction whose slits' thetas round apart
T04 = np.exp(0.4j)

# 16 nodes of a 2 pi period, and complex samples on them
T16 = 2 * np.pi * np.arange(16) / 16
TURN16 = np.exp(1j * T16)

# (call, samples, message): samples that trig_interp and trig_extrema reject
# with a ValueError naming them, through as_array and the one-row rule
BAD_SAMPLES = {
    "trig_extrema-complex": (trig_extrema, TURN16, "^samples must hold real numbers"),
    "trig_extrema-complex-list": (trig_extrema, list(TURN16), "^samples must hold real numbers"),
    "trig_extrema-strings": (trig_extrema, ["a"] * 16, "^samples must hold real numbers"),
    "trig_interp-strings": (lambda v: trig_interp(v, [0.5]), ["a"] * 16, "^samples must hold numbers"),
    "trig_extrema-nan": (trig_extrema, np.full(16, np.nan), "^samples must be finite"),
    "trig_interp-nan": (lambda v: trig_interp(v, [0.5]), np.full(16, np.nan), "^samples must be finite"),
    "trig_extrema-2d": (trig_extrema, np.ones((2, 16)), "^samples must be one row of nodes"),
    "trig_interp-2d": (lambda v: trig_interp(v, [0.5]), np.ones((2, 16)), "^samples must be one row"),
    "trig_interp-nan-query": (lambda v: trig_interp(v, [np.nan]), TURN16, "^query points must be finite"),
}

# absolute, so that a child process imports this package
SRC = str(Path(sc.__file__).resolve().parents[1])


def run_child(code, timeout=60):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error"),
        timeout=timeout,
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
        # build_preimage_boundary's eta_dot, by psi_inv' = (1 - psi_inv^2)/2,
        # against a central difference of eta(t) = psi_inv(ellipse(t))
        p = sc.EllipseParams(z=0.3 + 0.2j, a=0.7, theta=0.4, r=0.35)
        bp = sc.build_preimage_boundary([p], 64)
        t = 2 * np.pi * np.arange(64) / 64

        rot = 0.5 * p.a * np.exp(1j * p.theta)

        def eta(t):
            return sc.psi_inv(p.z + rot * (np.cos(t) - 1j * p.r * np.sin(t)))

        h = 1e-6
        assert np.abs(bp.eta[1] - eta(t)).max() < 1e-15
        assert np.abs(bp.eta_dot[1] - (eta(t + h) - eta(t - h)) / (2 * h)).max() < 1e-9

    def test_psi_maps_circle_to_walls(self):
        t = 2 * np.pi * np.arange(8, 264) / 512
        w = np.exp(1j * t)
        assert np.abs(np.abs(sc.psi(w).imag) - HALF_PI).max() < 1e-12

    @pytest.mark.parametrize("pole", [1.0, -1.0, [0.5, 1.0]])
    def test_psi_rejects_its_poles(self, pole):
        with pytest.raises(sc.GeometryError, match="singular at w = \\+1 and w = -1"):
            sc.psi(pole)


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

    @pytest.mark.parametrize(
        "call",
        [
            sc.trig_derivative,
            lambda v: resample(v, 16),
            lambda v: trig_interp(v, [0.5]),
            trig_extrema,
        ],
        ids=["trig_derivative", "resample", "trig_interp", "trig_extrema"],
    )
    @pytest.mark.parametrize("value", [1.0, np.array(2.5)], ids=["scalar", "0-d"])
    def test_scalar_samples_named(self, call, value):
        # a scalar has no node axis: a named ValueError, not an IndexError
        with pytest.raises(ValueError, match="samples must be an array along the nodes"):
            call(value)

    @pytest.mark.parametrize("call, samples, message", BAD_SAMPLES.values(), ids=BAD_SAMPLES)
    def test_bad_samples_named(self, call, samples, message):
        # no ComplexWarning, numpy message, IndexError or NaN result
        with pytest.raises(ValueError, match=message):
            call(samples)

    def test_derivative_matches_interpolant_at_nodes(self):
        # trig_derivative zeroes the Nyquist mode, and the derivative of the
        # cosine _spectrum takes it for, -5.6 sin(8t), vanishes at every node
        n = 16
        t = 2 * np.pi * np.arange(n) / n
        f = np.sin(3 * t) + 0.5 * np.cos(5 * t - 0.2) + 0.7 * np.cos(8 * t)
        c, k = _spectrum(f)
        ref = np.exp(1j * np.outer(t, k)) @ (c * (1j * k))
        assert np.abs(sc.trig_derivative(f) - ref).max() < 1e-13

    def test_extrema_exact(self):
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        f = 3 + np.cos(t - 1.234)
        (t_lo, u_lo), (t_hi, u_hi) = trig_extrema(f)
        assert u_hi == pytest.approx(4.0, abs=1e-13)
        assert u_lo == pytest.approx(2.0, abs=1e-13)
        assert t_hi % (2 * np.pi) == pytest.approx(1.234, abs=1e-10)

    def test_extrema_nyquist_mode(self):
        # the Nyquist mode is the cosine trig_interp takes it for, not a
        # constant: the maximum of cos(t - pi/8) - 0.3 cos(8t) is 1.3
        n = 16
        t = 2 * np.pi * np.arange(n) / n
        f = np.cos(t - 2 * np.pi / n) - 0.3 * np.cos(8 * t)
        _, (t_hi, u_hi) = trig_extrema(f)
        assert t_hi == pytest.approx(2 * np.pi / n, abs=1e-12)
        assert u_hi == pytest.approx(1.3, abs=1e-13)
        assert u_hi == pytest.approx(trig_interp(f, [t_hi])[0].real, abs=1e-14)

    def test_extrema_multimodal(self):
        n = 128
        t = 2 * np.pi * np.arange(n) / n
        f = np.cos(t) + 0.3 * np.cos(2 * t - 0.7)
        _, (_, u_hi) = trig_extrema(f)
        dense = np.linspace(0, 2 * np.pi, 2_000_001)
        ref = (np.cos(dense) + 0.3 * np.cos(2 * dense - 0.7)).max()
        assert u_hi == pytest.approx(ref, abs=1e-10)


class TestResample:
    """``resample`` restricts by spectral truncation and prolongs by
    zero-padding, with ``_spectrum``'s Nyquist convention both ways."""

    @staticmethod
    def trig_poly(n, degree, seed=0):
        # a complex trigonometric polynomial of the given degree at n nodes
        rng = np.random.default_rng(seed)
        k = np.arange(-degree, degree + 1)
        c = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
        return np.exp(1j * np.outer(2 * np.pi * np.arange(n) / n, k)) @ c

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_exact_below_half_the_coarse_count(self, dtype):
        # degree 7 < 16/2: both directions give the polynomial's own samples
        fine = self.trig_poly(64, 7)
        coarse = fine[::4]
        if dtype is float:
            fine, coarse = fine.real, coarse.real
        down, up = resample(fine, 16), resample(coarse, 64)
        assert down.dtype == up.dtype == np.dtype(dtype)
        assert np.abs(down - coarse).max() < 1e-13
        assert np.abs(up - fine).max() < 1e-13

    def test_restrict_after_prolong_is_identity(self):
        # random coarse data carry a Nyquist mode, which the round trip keeps
        x = np.random.default_rng(1).standard_normal((3, 16))
        assert np.abs(resample(resample(x, 128), 16) - x).max() < 1e-15
        assert np.array_equal(resample(x, 16), x)

    def test_prolongation_is_the_trig_interpolant(self):
        n = 16
        t = 2 * np.pi * np.arange(64) / 64
        nyquist = np.cos(8 * 2 * np.pi * np.arange(n) / n)
        for x in (nyquist, np.random.default_rng(2).standard_normal(n)):
            assert np.abs(resample(x, 64) - trig_interp(x, t).real).max() < 1e-14

    def test_truncation_folds_the_coarse_nyquist_modes(self):
        # e^{8it} and e^{-8it} both read (-1)^j on 16 nodes: truncation keeps
        # their sum there, and drops e^{9it}
        t = 2 * np.pi * np.arange(64) / 64
        fine = np.exp(8j * t) + 2 * np.exp(-8j * t) + np.exp(9j * t)
        expect = 3.0 * (-1.0) ** np.arange(16)
        assert np.abs(resample(fine, 16) - expect).max() < 1e-14

    @pytest.mark.parametrize("size, n", [(12, 8), (16, 24), (16, 4)])
    def test_power_of_two_sizes_only(self, size, n):
        # as _check_pow2 rejects them: not a power of two, or below 8
        with pytest.raises(ValueError, match="node count must be"):
            resample(np.ones(size), n)


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
        with pytest.raises(sc.GeometryError, match="endpoint a must be finite"):
            sc.SlitSpec(complex(np.nan, 0.0), 1.0)
        with pytest.raises(sc.GeometryError, match="endpoint b must be finite"):
            sc.SlitSpec(0.0, complex(np.inf, 0.1))
        with pytest.raises(sc.GeometryError, match="endpoint b must be finite"):
            sc.SlitSpec(0.0, complex(0.0, np.nan))

    def test_rejects_bool_and_non_number_endpoints(self):
        with pytest.raises(sc.GeometryError, match="endpoint a must hold numbers, not bool"):
            sc.SlitSpec(True, 2)
        with pytest.raises(sc.GeometryError, match="endpoint b must hold numbers, not <U1"):
            sc.SlitSpec(0.0, "1")


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

    def test_segment_distance_broadcasts(self):
        # one segment against three: crossing, parallel, beyond its end
        q0 = np.array([-1j, 1j, 2 - 1j])
        q1 = np.array([1j, 1 + 1j, 2 + 1j])
        d = segment_distance(0, 1, q0, q1)
        assert d.shape == (3,)
        assert list(d) == pytest.approx([0.0, 1.0, 1.0])
        # every pair of 20 random segments against the pair loop: 0 if they
        # cross, else the nearest of the four endpoints; the same arithmetic,
        # but numpy's complex product can round an array-by-array operand
        # pair differently in the last bit, so equal to a few ulps
        rng = np.random.default_rng(3)
        p0, p1, q0, q1 = rng.normal(size=(4, 20)) + 1j * rng.normal(size=(4, 20))
        ref = [
            [
                0.0 if segments_cross(a, b, c, e) else min(
                    *point_segment_distance([c, e], a, b), *point_segment_distance([a, b], c, e)
                )
                for c, e in zip(q0, q1)
            ]
            for a, b in zip(p0, p1)
        ]
        d = segment_distance(p0[:, None], p1[:, None], q0, q1)
        ref = np.array(ref)
        assert 0 < (ref == 0.0).sum() < ref.size
        assert np.array_equal(d == 0.0, ref == 0.0)
        assert np.abs(d - ref).max() <= 4 * np.finfo(float).eps * ref.max()

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

    def test_first_touching_pair_named(self):
        # pairs are checked in the order (0, 1), (0, 2), (1, 2), (1, 3), ...
        slits = [(-3, -2), (-1, 0), (0, 1), (0.5 + 0.5j, 0.5 - 0.5j)]
        with pytest.raises(sc.OverlapError, match=r"^slits 1 and 2 are not disjoint \(distance 0"):
            sc.StripSlitDomain([sc.SlitSpec(a, b) for a, b in slits])

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

    def test_entry_that_is_not_a_slit_rejected(self):
        with pytest.raises(sc.GeometryError, match=r"slits\[1\] must be a SlitSpec, got \(0, 1\)"):
            sc.StripSlitDomain([sc.SlitSpec(-1j, 1j), (0, 1)])

    @pytest.mark.parametrize(
        "entry",
        [
            pytest.param({"a": [0, 1]}, id="b-missing"),
            pytest.param({"a": 1, "b": [1, 0]}, id="a-number"),
            pytest.param({"a": [0, 1, 2], "b": [1, 0]}, id="a-triple"),
            pytest.param({"a": [0, "1"], "b": [1, 0]}, id="a-string"),
            pytest.param({"a": [0, True], "b": [1, 0]}, id="a-bool"),
            pytest.param({"a": [0, float("nan")], "b": [1, 0]}, id="a-nan"),
            pytest.param([0, 1], id="list"),
        ],
    )
    def test_from_dict_malformed_entry_rejected(self, entry):
        good = {"a": [-1, 0.5], "b": [1, 0.5]}
        with pytest.raises(sc.GeometryError, match=r"^slits\[1\] must be \{'a': \[x, y\]"):
            sc.StripSlitDomain.from_dict({"slits": [good, entry]})


class TestClearanceRatio:
    @pytest.mark.parametrize("x", [0.01, 0.1, 0.3, 1.5])
    def test_side_by_side_pair(self, x):
        # gap 2x over the lengths 2 + 2: the old two_vertical rule x/2, bit for bit
        dom = sc.StripSlitDomain([sc.SlitSpec(s - 1j, s + 1j) for s in (-x, x)])
        assert clearance_ratio(dom) == min(1.0, 0.5 * x)

    @pytest.mark.parametrize(
        "slits, bound",
        [
            # the vertical slit is 0.1 from the first, but not parallel to it
            pytest.param(
                [(-1, 0.5), (-0.5 + 0.3j, 1.5 + 0.3j), (0.1j, 0.2j)], 0.3 / 3.5, id="closest-pair"
            ),
            # both along 1 + i, the second shifted by 0.125 (i - 1)
            pytest.param(
                [(-0.5 - 0.5j, 0.5 + 0.5j), (-0.625 - 0.375j, 0.375 + 0.625j)], 0.0625, id="tilted"
            ),
            pytest.param([(-1, 1)], 1.0, id="one-slit"),
            pytest.param([(-2, -1), (1, 2)], 1.0, id="collinear"),
            pytest.param([(-2 + 0.1j, -1 + 0.1j), (-1, 0)], 1.0, id="projections-touch"),
            pytest.param([(-1, 1), (-0.5 + 1j, 0.5 + 1.2j)], 1.0, id="not-parallel"),
            # both along e^{0.4i}, 0.2 apart: their thetas differ in the last
            # bits (0.3999999999999999 and 0.40000000000000013)
            pytest.param(
                [(-0.5 * T04, 0.5 * T04), ((-0.5 + 0.2j) * T04, (0.5 + 0.2j) * T04)], 0.1,
                id="tilted-rounded",
            ),
        ],
    )
    def test_facing_pairs(self, slits, bound):
        dom = sc.StripSlitDomain([sc.SlitSpec(a, b) for a, b in slits])
        assert clearance_ratio(dom) == pytest.approx(bound, rel=1e-15)


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

    @pytest.mark.parametrize(
        "fields, message",
        [
            pytest.param({"r": 0.0}, "aspect ratio", id="0.5-0.0-aspect ratio"),
            pytest.param({"a": 0.0}, "major axis", id="0.0-0.2-major axis"),
            pytest.param({"a": -0.5}, "major axis", id="-0.5-0.2-major axis"),
            pytest.param({"z": complex(np.nan, 0.1)}, "ellipse z must be finite", id="nan-z"),
            pytest.param({"z": complex(0.1, np.inf)}, "ellipse z must be finite", id="inf-z"),
            pytest.param({"a": np.nan}, "major axis a must be finite", id="nan-a"),
            pytest.param({"a": np.inf}, "major axis a must be finite", id="inf-a"),
            pytest.param({"theta": np.nan}, "ellipse theta must be a finite", id="nan-theta"),
            pytest.param({"theta": -np.inf}, "ellipse theta must be a finite", id="inf-theta"),
        ],
    )
    def test_degenerate_ellipse_rejected(self, fields, message):
        with pytest.raises(sc.GeometryError, match=message):
            sc.EllipseParams(**{"z": 0.1, "a": 0.5, "theta": 0.0, "r": 0.2, **fields})

    @pytest.mark.parametrize(
        "name, message",
        [
            # the ids keep the names these cases have always run under
            pytest.param(
                "z", "ellipse z must hold numbers, not bool", id="z-ellipse z is not finite: True"
            ),
            pytest.param(
                "a",
                "major axis a must be finite and > 0, got True",
                id="a-ellipse a is not finite: True",
            ),
            pytest.param(
                "theta",
                "ellipse theta must be a finite number, got True",
                id="theta-ellipse theta is not finite: True",
            ),
            ("r", r"aspect ratio must be in \(0, 1\], got True"),
        ],
    )
    def test_bool_field_rejected(self, name, message):
        with pytest.raises(sc.GeometryError, match=message):
            sc.EllipseParams(**{"z": 0.1, "a": 0.5, "theta": 0.0, "r": 0.2, name: True})


class TestWinding:
    def test_unit_circle(self):
        t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        curve = np.exp(1j * t)
        w = winding_number(curve, np.array([0.0, 0.5j, 2.0]))
        assert list(w) == [1, 1, 0]
        # many row chunks (2^16 // 64 = 1024 points each); the 64-gon's
        # inradius cos(pi/64) exceeds 0.99
        rng = np.random.default_rng(5)
        radius = np.concatenate([rng.uniform(0, 0.99, 20000), rng.uniform(1.01, 2, 20000)])
        pts = radius * np.exp(2j * np.pi * rng.uniform(size=radius.size))
        w = winding_number(curve[::4], pts)
        assert w.shape == (40000,)
        assert np.array_equal(w, (radius < 1).astype(int))

    def test_bit_identical_for_any_worker_count(self, monkeypatch):
        rng = np.random.default_rng(8)
        t = 2 * np.pi * np.arange(512) / 512
        curve = np.exp(1j * t) * (1 + 0.3 * np.cos(3 * t))
        pts = rng.uniform(-1.5, 1.5, 30001) + 1j * rng.uniform(-1.5, 1.5, 30001)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(geometry, "WORKERS", workers)
            results.append(winding_number(curve, pts))
        assert all(np.array_equal(r, results[0]) for r in results[1:])

    def test_matches_complex_turn_formula(self):
        # the planar turn angles agree with angle(z_{k+1} conj(z_k)) of the
        # complex differences, point for point
        rng = np.random.default_rng(11)
        t = 2 * np.pi * np.arange(64) / 64
        curve = np.exp(1j * t) * (1 + 0.3 * np.cos(3 * t))
        pts = rng.uniform(-2, 2, 40000) + 1j * rng.uniform(-2, 2, 40000)
        z = curve[None, :] - pts[:, None]
        turn = np.roll(z, -1, axis=1) * np.conj(z)
        ref = np.rint(np.angle(turn).sum(axis=1) / (2 * np.pi)).astype(int)
        w = winding_number(curve, pts)
        assert np.array_equal(w, ref)
        assert set(np.unique(w)) == {0, 1}


class TestPairwiseDifferences:
    @staticmethod
    def record(nodes, targets):
        """Every body call as (thread, rows, x, y, x buffer, y buffer)."""
        calls = []

        def body(rows, x, y):
            # copies: each worker overwrites its two buffers for every chunk
            calls.append((threading.get_ident(), rows, x.copy(), y.copy(), x.base, y.base))

        pairwise_chunks(nodes, targets, body)
        return sorted(calls, key=lambda c: c[1].start)

    @pytest.mark.parametrize(
        "nn, nt",
        [(1000, 200), (1000, 1), (70000, 3), (1000, 0)],
        ids=["ragged-last-chunk", "one-target", "more-nodes-than-a-chunk", "no-targets"],
    )
    def test_matches_direct_differences(self, nn, nt, monkeypatch):
        rng = np.random.default_rng(nn + nt)
        nodes = rng.standard_normal(nn) + 1j * rng.standard_normal(nn)
        targets = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
        direct = nodes[None, :] - targets[:, None]
        for workers in (1, 2, 3):
            monkeypatch.setattr(geometry, "WORKERS", workers)
            calls = self.record(nodes, targets)
            bounds = [0] + [c[1].stop for c in calls]
            assert [c[1].start for c in calls] == bounds[:-1] and bounds[-1] == nt
            x = np.vstack([c[2] for c in calls] or [np.empty((0, nn))])
            y = np.vstack([c[3] for c in calls] or [np.empty((0, nn))])
            assert np.array_equal(x, direct.real)
            assert np.array_equal(y, direct.imag)

    def test_buffers_reused(self, monkeypatch):
        nn = 512
        nodes = np.exp(2j * np.pi * np.arange(nn) / nn)
        targets = np.linspace(-0.5, 0.5, 1000).astype(complex)
        step = 2**16 // nn
        for workers in (1, 2, 3):
            monkeypatch.setattr(geometry, "WORKERS", workers)
            calls = self.record(nodes, targets)
            by_worker = {}
            for thread, rows, _, _, xb, yb in calls:
                by_worker.setdefault(id(xb), []).append((thread, rows, xb, yb))
            # one pair of buffers per worker, holding its longest chunk of
            # about 2^16 / workers elements; the caller is one of the workers
            assert len(by_worker) == workers
            assert threading.get_ident() in {c[0] for c in calls}
            for chunks in by_worker.values():
                _, _, xb, yb = chunks[0]
                longest = max(r.stop - r.start for _, r, _, _ in chunks)
                assert xb.size == yb.size == longest * nn <= -(-step // workers) * nn
                assert all(y is yb and t == chunks[0][0] for t, _, _, y in chunks)
            buffers = [b for chunks in by_worker.values() for b in chunks[0][2:]]
            for a in range(len(buffers)):
                for b in range(a + 1, len(buffers)):
                    assert not np.shares_memory(buffers[a], buffers[b])

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_one_row_chunks_as_with_one_worker(self, workers, monkeypatch):
        # numpy's matmul gives a one-row chunk to BLAS gemv and a longer one
        # to gemm, whose bits differ: any worker count keeps a row on the
        # path one worker takes
        def single_rows(nn, nt):
            return {c.start for c in geometry._chunks(nn, nt) if c.stop - c.start == 1}

        for nn, nt in [(1000, 66), (1000, 67), (1000, 200), (2560, 30001), (70000, 3), (5, 1)]:
            monkeypatch.setattr(geometry, "WORKERS", 1)
            one = single_rows(nn, nt)
            monkeypatch.setattr(geometry, "WORKERS", workers)
            assert single_rows(nn, nt) == one, (nn, nt)

    def test_one_chunk_runs_inline(self, monkeypatch):
        # one point, the 13 base-point candidates against 1024 nodes (one
        # chunk of up to 64 rows) and no targets at all: the body runs on
        # the calling thread and no thread is started
        def no_start(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(geometry, "WORKERS", 2)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        curve = 0.9 * np.exp(2j * np.pi * np.arange(1024) / 1024)
        assert winding_number(curve, 0.1) == 1
        assert winding_number(curve, np.tanh(np.arange(-3.0, 3.01, 0.5) / 2.0)).sum() == 11
        for nt in (64, 0):
            calls = self.record(curve, np.linspace(-0.5, 0.5, nt).astype(complex))
            assert {c[0] for c in calls} <= {threading.get_ident()}
            assert sum(c[1].stop - c[1].start for c in calls) == nt

    def test_error_waits_for_every_worker(self, monkeypatch):
        monkeypatch.setattr(geometry, "WORKERS", 2)
        nodes = np.exp(2j * np.pi * np.arange(512) / 512)
        targets = np.linspace(-0.5, 0.5, 1000).astype(complex)
        done = []

        def body(rows, x, y):
            if threading.current_thread() is threading.main_thread():
                raise ValueError("the caller's chunk failed")
            time.sleep(0.005)
            done.append(rows.start)

        with pytest.raises(ValueError, match="caller's chunk"):
            pairwise_chunks(nodes, targets, body)
        # the other worker ran every chunk it was dealt
        assert sorted(done) == [c.start for c in geometry._chunks(512, 1000)[1::2]]

        # when the caller and a worker both fail, the caller's error wins
        def both(rows, x, y):
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.005)
                raise ValueError("the caller's chunk failed")
            raise RuntimeError("a worker's chunk failed")

        with pytest.raises(ValueError, match="caller's chunk"):
            pairwise_chunks(nodes, targets, both)

        # among workers, the lowest-numbered one's error wins, whichever
        # fails first
        monkeypatch.setattr(geometry, "WORKERS", 3)
        owner = {c.start: w % 3 for w, c in enumerate(geometry._chunks(512, 1000))}

        def workers_fail(rows, x, y):
            worker = owner[rows.start]
            if worker == 1:
                time.sleep(0.02)
            if worker:
                raise RuntimeError(f"worker {worker} failed")

        with pytest.raises(RuntimeError, match="worker 1 failed"):
            pairwise_chunks(nodes, targets, workers_fail)

    def test_fork_after_a_threaded_call(self):
        # a child forked after a threaded call must not wait on its
        # parent's threads: the timeout turns a deadlock into a failure
        code = textwrap.dedent(
            """
            import os
            import numpy as np
            from stripcap import geometry
            geometry.WORKERS = 2
            curve = np.exp(2j * np.pi * np.arange(512) / 512)
            pts = np.linspace(-2.0, 2.0, 5000) + 0.1j
            ref = geometry.winding_number(curve, pts)
            pid = os.fork()
            if pid == 0:
                same = np.array_equal(geometry.winding_number(curve, pts), ref)
                os._exit(0 if same else 1)
            _, status = os.waitpid(pid, 0)
            raise SystemExit(os.waitstatus_to_exitcode(status))
            """
        )
        assert run_child(code).returncode == 0

    def test_more_workers_than_cores(self):
        # four workers with a short switch interval: a lost or misplaced
        # row breaks equality with the one-worker results
        code = textwrap.dedent(
            """
            import sys
            import numpy as np
            from stripcap import geometry
            from stripcap.solver import cauchy_sums
            rng = np.random.default_rng(3)
            nodes = np.exp(2j * np.pi * np.arange(1000) / 1000)
            weights = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
            pts = 0.9 * rng.uniform(-1, 1, 8001) + 0.5j * rng.uniform(-1, 1, 8001)
            geometry.WORKERS = 1
            ref = geometry.winding_number(nodes, pts), *cauchy_sums(nodes, weights, weights, pts)
            geometry.WORKERS = 4
            sys.setswitchinterval(1e-6)
            for _ in range(3):
                got = geometry.winding_number(nodes, pts), *cauchy_sums(nodes, weights, weights, pts)
                assert all(np.array_equal(a, b) for a, b in zip(got, ref))
            """
        )
        proc = run_child(code)
        assert proc.returncode == 0, proc.stderr


class TestPreimageBoundary:
    def test_structure(self):
        params = [sc.EllipseParams(z=0.4j, a=0.6, theta=0.2, r=0.2)]
        bp = sc.build_preimage_boundary(params, 64)
        assert bp.m == 1
        assert bp.n == 64
        assert np.abs(np.abs(bp.eta[0]) - 1.0).max() < 1e-14
        assert np.abs(bp.eta[1]).max() < 1.0

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

    def test_boundary_shapes_must_match(self):
        eta = np.exp(2j * np.pi * np.arange(8) / 8)[None, :]
        with pytest.raises(ValueError, match="eta and eta_dot must share a 2-D shape"):
            sc.BoundaryParametrization(eta, 1j * eta[:, :7])

    def test_n_must_be_power_of_two(self):
        params = [sc.EllipseParams(z=0.0, a=0.5, theta=0.0, r=0.2)]
        with pytest.raises(ValueError):
            sc.build_preimage_boundary(params, 100)
