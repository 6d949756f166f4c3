"""Uniform potential flow past slit obstacles."""

import warnings

import numpy as np
import pytest

import stripcap.flow as flowmod
from stripcap.errors import ConvergenceError, MemoryLimitError
from stripcap.geometry import SlitSpec, StripSlitDomain
from stripcap.preimage import IterationConfig, iterate
from stripcap.flow import (
    FlowField,
    GridSpec,
    complex_potential,
    horizontal_slit_map,
    slit_stream_levels,
    stream_grid,
)


class TestLevels:
    def test_levels_match_boundary_images(self, channel_pre):
        ups = horizontal_slit_map(channel_pre)
        levels = slit_stream_levels(ups)
        assert levels.shape == (channel_pre.map.m,)
        for j, zj in enumerate(ups.zeta[1:]):
            assert np.abs(zj.imag - levels[j]).max() < 1e-10

    def test_levels_inside_strip(self, channel_pre):
        levels = slit_stream_levels(horizontal_slit_map(channel_pre))
        assert np.all(np.abs(levels) < np.pi / 2)

    def test_unconverged_preimage_rejected(self):
        dom = StripSlitDomain([SlitSpec(-0.5j, 0.5j)])
        pre = iterate(dom, IterationConfig(n=64, eps=1e-30, max_iter=1))
        with pytest.raises(ConvergenceError, match="did not reach"):
            horizontal_slit_map(pre)


class TestComplexPotential:
    def test_far_field_decay(self, channel_pre):
        # far from the obstacles the channel flow is undisturbed: W(z) ~ z + c
        # with a real constant c, and the disturbance dies like e^{-|x|}
        # (slowest transverse mode of the width-pi strip)
        ups = horizontal_slit_map(channel_pre)
        ys = np.linspace(-1.3, 1.3, 7)
        errs = []
        for x0 in (6.0, 10.0, 14.0):
            e = 0.0
            for sgn in (1.0, -1.0):
                W = complex_potential(channel_pre, ups, sgn * x0 + 1j * ys)
                e = max(e, np.abs(W.imag - ys).max())
            errs.append(e)
        assert errs[0] < 5e-3
        assert errs[2] < 2e-6
        # four units of x buy a factor e^{-4} ~ 0.018; allow generous slack
        assert errs[1] < 0.1 * errs[0]
        assert errs[2] < 0.1 * errs[1]

    def test_near_slit_continuity(self, channel_pre):
        # stepping off a hole boundary in the preimage, Im Upsilon tends to
        # that hole's level linearly in the offset; Richardson extrapolation
        # in the offset removes the linear term
        ups = horizontal_slit_map(channel_pre)
        levels = slit_stream_levels(ups)
        bp = channel_pre.map.bp
        for j in range(channel_pre.map.m):
            eta = bp.eta[j + 1]
            etad = bp.eta_dot[j + 1]
            k = eta.size // 3
            nrm = -1j * etad[k] / abs(etad[k])
            v1 = ups.eval(np.array([eta[k] + 1e-4 * nrm]))[0].imag
            v2 = ups.eval(np.array([eta[k] + 5e-5 * nrm]))[0].imag
            extrap = 2.0 * v2 - v1
            assert abs(extrap - levels[j]) < 1e-6


class TestStreamGrid:
    def test_identity_free_channel(self, one_slit_pre):
        # with the slit masked away, psi must be smooth and odd-symmetric for
        # the symmetric single-slit geometry: psi(x, 0) = 0 away from it
        ups = horizontal_slit_map(one_slit_pre)
        grid = GridSpec(-3.0, 3.0, -1.2, 1.2, 25, 11)
        field = stream_grid(one_slit_pre, ups, grid)
        xs, ys = grid.axes()
        iy = np.argmin(np.abs(ys))
        row = field.psi_values[iy]
        ok = field.mask[iy] & (np.abs(xs) > 1.0)
        assert ok.sum() > 5
        assert np.abs(row[ok]).max() < 1e-8

    def test_masking(self, channel_pre):
        ups = horizontal_slit_map(channel_pre)
        grid = GridSpec(-3.0, 3.0, -1.5, 1.5, 31, 21)
        field = stream_grid(channel_pre, ups, grid, exclusion=0.05)
        xs, ys = grid.axes()
        X, Y = np.meshgrid(xs, ys)
        # all strip-interior far-away points are unmasked, wall-adjacent rows
        # stay inside the strip
        far = (np.abs(X) > 2.8) & (np.abs(Y) < 1.4)
        assert field.mask[far].all()
        assert np.isfinite(field.psi_values[field.mask]).all()
        assert np.isnan(field.psi_values[~field.mask]).all()
        # points within the exclusion distance of a slit are masked
        s = channel_pre.omega.slits[0]
        mid = 0.5 * (s.a + s.b)
        d = np.abs(X + 1j * Y - mid)
        assert not field.mask[d < 0.03].any()

    def test_unresolved_point_is_nan(self, channel_128_pre, monkeypatch):
        # 6 + 1.55i is inside the strip and far from every slit, but at n=128
        # it fails the inverse map's outer-boundary test: complex_potential
        # gives nan+nanj there and finite values elsewhere, and stream_grid
        # masks and counts that one point from a single batched call
        pre = channel_128_pre
        ups = horizontal_slit_map(pre)
        grid = GridSpec(5.0, 6.0, 1.45, 1.55, 3, 3)
        xs, ys = grid.axes()
        X, Y = np.meshgrid(xs, ys)
        Z = X + 1j * Y
        bad = Z == 6.0 + 1.55j
        batched = complex_potential(pre, ups, Z.reshape(-1)).reshape(Z.shape)
        assert np.isnan(batched[bad].real).all() and np.isnan(batched[bad].imag).all()
        assert np.isfinite(batched[~bad]).all()
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return complex_potential(*args, **kwargs)

        monkeypatch.setattr(flowmod, "complex_potential", spy)
        field = stream_grid(pre, ups, grid)
        assert len(calls) == 1
        assert field.failures == 1
        assert np.isnan(field.psi_values[bad]).all()
        assert not field.mask[bad].any()
        assert field.mask[~bad].all()
        assert np.array_equal(field.psi_values[~bad], batched[~bad].imag)

    def test_far_out_columns_unresolved(self):
        # tanh(z/2) rounds every point beyond |Re z| ~ 30.6 to within 1e-13
        # of +-1, nodes of the bounded outer image: nan and counted, not an
        # error
        pre = iterate(StripSlitDomain([SlitSpec(-0.5, 0.5)]), IterationConfig(n=64))
        grid = GridSpec(-40.0, 40.0, -1.5, 1.5, 201, 31)
        field = stream_grid(pre, horizontal_slit_map(pre), grid)
        xs, ys = grid.axes()
        X, Y = np.meshgrid(xs, ys)
        far = np.abs(X) > 30.6
        assert field.failures == far.sum()
        assert np.isnan(field.psi_values[far]).all()
        assert field.mask[~far & (np.abs(Y) > 0.05)].all()

    def test_non_finite_point_rejected(self, channel_128_pre):
        ups = horizontal_slit_map(channel_128_pre)
        with pytest.raises(ValueError, match="evaluation points must be finite"):
            complex_potential(channel_128_pre, ups, np.array([0.1, np.inf]))

    def test_all_unresolved_batch(self, channel_128_pre):
        ups = horizontal_slit_map(channel_128_pre)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W = complex_potential(channel_128_pre, ups, np.full(3, 6.0 + 1.55j))
        assert W.shape == (3,)
        assert np.isnan(W.real).all() and np.isnan(W.imag).all()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -0.1])
    def test_bad_exclusion_rejected(self, one_slit_pre, value):
        ups = horizontal_slit_map(one_slit_pre)
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)
        with pytest.raises(ValueError, match="exclusion"):
            stream_grid(one_slit_pre, ups, grid, exclusion=value)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, -1.0, 1.0, 1, 5)
        with pytest.raises(ValueError, match="^empty grid range: x_min 1.0 is not below x_max -1"):
            GridSpec(1.0, -1.0, -1.0, 1.0, 5, 5)
        with pytest.raises(ValueError, match="^empty grid range: y_min 1.0 is not below y_max 1"):
            GridSpec(-1.0, 1.0, 1.0, 1.0, 5, 5)

    def test_oversized_grid_refused(self):
        # 10^12 points, refused by the record itself, so before any array
        # of stream_grid's exists
        with pytest.raises(MemoryLimitError, match="^the 1000000 x 1000000 points of a flow grid"):
            GridSpec(-1.0, 1.0, -1.0, 1.0, 10**6, 10**6)

    @pytest.mark.parametrize("name", ["nx", "ny"])
    @pytest.mark.parametrize("value", [5.5, 5.0, "5", None, True, 1])
    def test_bad_point_count_rejected(self, name, value):
        counts = dict(nx=5, ny=5)
        counts[name] = value
        with pytest.raises(ValueError, match=f"{name} must be an int >= 2"):
            GridSpec(-1.0, 1.0, -1.0, 1.0, **counts)

    def test_numpy_point_count_accepted(self):
        nx, ny = GridSpec(-1.0, 1.0, -1.0, 1.0, np.int64(4), np.int32(3)).axes()
        assert (nx.size, ny.size) == (4, 3)

    @pytest.mark.parametrize("bound", ["x_min", "x_max", "y_min", "y_max"])
    @pytest.mark.parametrize("value", [float("-inf"), float("inf"), float("nan")])
    def test_non_finite_bound_rejected(self, bound, value):
        limits = dict(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0)
        limits[bound] = value
        with pytest.raises(ValueError, match=f"grid bound {bound} must be a finite number"):
            GridSpec(**limits, nx=5, ny=5)
