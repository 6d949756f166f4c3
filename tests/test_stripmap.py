"""Conformal map from the preimage domain onto the slit strip."""

from types import SimpleNamespace

import numpy as np
import pytest

from stripcap.errors import GeometryError
from stripcap.geometry import HALF_PI, StripSlitDomain, build_preimage_boundary, psi
from stripcap.kernels import KernelSet, default_alpha
from stripcap.stripmap import (
    build_map,
    extract_slit_images,
    inverse_map,
    strip_gamma,
)


class TestBoundaryImage:
    def test_walls(self, four_slit_pre):
        # outer circle must land on the two strip walls Im = +-pi/2
        zeta0 = four_slit_pre.map.zeta[0]
        finite = np.isfinite(zeta0)  # w = +-1 are the poles mapping to -+inf
        assert finite.sum() >= zeta0.size - 2
        assert np.abs(np.abs(zeta0[finite].imag) - HALF_PI).max() < 1e-10

    def test_outer_poles(self, four_slit_pre):
        # eta_0 = +-1 sit at nodes 0 and n/2; the node at -1 is e^{i pi},
        # which is not exactly -1 in floating point
        zeta0 = four_slit_pre.map.zeta[0]
        n = zeta0.size
        assert np.flatnonzero(~np.isfinite(zeta0)).tolist() == [0, n // 2]
        assert zeta0[0].real == np.inf and zeta0[n // 2].real == -np.inf

    def test_slit_flatness(self, four_slit_pre):
        md = four_slit_pre.map
        for j, zj in enumerate(md.zeta[1:]):
            th = md.theta[j + 1]
            rot = np.exp(-1j * th) * zj
            assert rot.imag.max() - rot.imag.min() < 1e-10

    def test_slit_images_match_targets(self, four_slit_pre):
        md = four_slit_pre.map
        centers, lengths = extract_slit_images(md)
        slits = four_slit_pre.omega.slits
        assert centers.shape == lengths.shape == (len(slits),)
        for center, length, slit in zip(centers, lengths, slits):
            assert abs(center - slit.c) < 1e-9
            assert abs(length - slit.ell) < 1e-9

    def test_mirror_symmetry(self, four_slit_pre):
        # the four-slit geometry is symmetric under z -> -conj(z); the map
        # with the shared normalization inherits the symmetry, so points of
        # the imaginary axis stay on the imaginary axis
        md = four_slit_pre.map
        for y in (0.2, 0.8, -0.5):
            w = np.tanh(1j * y / 2.0)
            val = md.eval(np.array([w]))[0]
            assert abs(val.real) < 1e-9


class TestEval:
    def test_round_trip(self, four_slit_pre):
        md = four_slit_pre.map
        rng = np.random.default_rng(7)
        z = rng.uniform(-1.5, 1.5, 60) + 1j * rng.uniform(-1.2, 1.2, 60)
        omega = four_slit_pre.omega
        keep = np.array(
            [
                min(
                    abs(zz - s.c) - 0.4 * s.ell for s in omega.slits
                ) > 0.15
                for zz in z
            ]
        )
        z = z[keep]
        w = inverse_map(md, z)
        back = md.eval(w)
        assert np.abs(back - z).max() < 1e-8

    def test_outside_strip_rejected(self, four_slit_pre):
        with pytest.raises(GeometryError):
            inverse_map(four_slit_pre.map, np.array([0.5 + 2.0j]))

    def test_unresolved_point_is_nan(self, channel_128_pre):
        # inside the strip, but beyond what the outer boundary resolves at
        # n=128: NaN in both parts, since a flow grid reads the imaginary part
        w = inverse_map(channel_128_pre.map, 6.0 + 1.55j)
        assert isinstance(w, complex)
        assert np.isnan(w.real) and np.isnan(w.imag)

    def test_far_out_point_is_nan(self, four_slit_pre):
        # beyond |Re z| ~ 30.6, tanh(z/2) rounds to within 1e-13 of +-1,
        # the nodes of the bounded outer image, at every n
        w = inverse_map(four_slit_pre.map, np.array([30.0, 36.0, -36.0 + 1.0j]))
        assert np.isfinite(w[0])
        assert np.isnan(w[1:].real).all() and np.isnan(w[1:].imag).all()

    @pytest.mark.parametrize(
        "point", [np.nan, complex(np.nan, 0.1), np.inf, -np.inf, complex(np.inf, np.inf)]
    )
    def test_non_finite_point_rejected(self, four_slit_pre, point):
        with pytest.raises(ValueError, match="evaluation points must be finite"):
            inverse_map(four_slit_pre.map, np.array([0.1, point]))

    def test_eval_on_boundary_rejected(self, four_slit_pre):
        md = four_slit_pre.map
        with pytest.raises(GeometryError):
            md.eval(np.array([md.bp.flat_eta[3]]))

    @pytest.mark.parametrize("points", [[0.1, 1e300], [2.0], [0.1, 1.0]])
    def test_eval_outside_unit_disk_rejected(self, one_slit_pre, points):
        # rejected before the Cauchy sums, which overflow at 1e300
        with pytest.raises(GeometryError, match="outside the unit disk"):
            one_slit_pre.map.eval(np.array(points))

    def test_eval_non_finite_point_rejected(self, four_slit_pre):
        with pytest.raises(ValueError, match="evaluation points must be finite"):
            four_slit_pre.map.eval(np.array([0.1, np.nan]))


class TestHelpers:
    def test_degenerate_slit_image_rejected(self):
        # a hole whose image is one point has no slit to measure
        circle = np.exp(2j * np.pi * np.arange(64) / 64)
        md = SimpleNamespace(m=1, theta=np.zeros(2), zeta=np.vstack([circle, np.full(64, 0.3 + 0.1j)]))
        with pytest.raises(GeometryError, match="slit image 1 is degenerate"):
            extract_slit_images(md)

    def test_strip_gamma_shape(self, four_slit_pre):
        bp = four_slit_pre.map.bp
        theta = np.concatenate([[0.0], [s.theta for s in four_slit_pre.omega.slits]])
        gam = strip_gamma(bp, theta)
        assert gam.shape == (bp.m + 1, bp.n)
        assert np.all(np.isfinite(gam))

    def test_default_alpha_interior(self, four_slit_pre):
        bp = four_slit_pre.map.bp
        a = default_alpha(bp)
        # the map pairs with the base point its kernel chose
        assert four_slit_pre.map.alpha == a
        assert abs(a) < 1.0
        # not inside any hole: distance to every hole boundary is positive
        for comp in bp.eta[1:]:
            assert np.abs(comp - a).min() > 1e-3

    def test_zero_theta_map_is_horizontal(self, channel_pre):
        # a second map with all angles zero sends every hole to a horizontal
        # slit: quasi-ellipse images have constant imaginary part
        md = channel_pre.map
        ups = build_map(KernelSet(md.bp, np.zeros(md.m + 1)))
        for zj in ups.zeta[1:]:
            assert zj.imag.max() - zj.imag.min() < 1e-10
