"""Fixed-point iteration for the smooth preimage domain."""

import numpy as np
import pytest

import stripcap.preimage as preimage
from stripcap.errors import OverlapError
from stripcap.geometry import SlitSpec, StripSlitDomain
from stripcap.preimage import IterationConfig, PreimageResult, initialize, iterate


def single_slit_domain():
    return StripSlitDomain([SlitSpec(-0.5j, 0.5j)])


class TestIterationConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 64.0),
            ("n", 48),
            ("n", 4),
            ("n", True),
            ("max_iter", 0),
            ("max_iter", 2.5),
            ("eps", float("nan")),
            ("eps", float("inf")),
            ("r", 0.0),
            ("r", "0.2"),
        ],
    )
    def test_invalid_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            IterationConfig(**{field: value})

    def test_numpy_scalars_accepted(self):
        cfg = IterationConfig(
            n=np.int64(64), r=np.float64(0.1), eps=np.float64(1e-6), max_iter=np.int32(5)
        )
        assert cfg.n == 64 and cfg.eps == 1e-6 and cfg.max_iter == 5


class TestInitialize:
    def test_ellipses_on_slits(self):
        omega = single_slit_domain()
        cfg = IterationConfig(n=64, r=0.2)
        params = initialize(omega, cfg)
        assert len(params) == 1
        p = params[0]
        s = omega.slits[0]
        assert p.z == s.c
        assert p.theta == pytest.approx(s.theta)
        assert p.a == pytest.approx((1.0 - 0.1) * s.ell)
        assert p.r == cfg.r

    def test_overlap_advice(self):
        omega = StripSlitDomain(
            [SlitSpec(-1.0 - 0.05j, 1.0 - 0.05j), SlitSpec(-1.0 + 0.05j, 1.0 + 0.05j)]
        )
        with pytest.raises(OverlapError, match="smaller aspect ratio"):
            initialize(omega, IterationConfig(n=64, r=0.5))
        # a T: the short slit's ellipse lies inside the long one's
        omega = StripSlitDomain([SlitSpec(-1.0, 1.0), SlitSpec(0.1j, 0.2j)])
        with pytest.raises(OverlapError, match="smaller aspect ratio"):
            initialize(omega, IterationConfig(n=64, r=0.5))


class TestIterate:
    def test_converges_single_slit(self, one_slit_pre):
        assert one_slit_pre.converged
        assert one_slit_pre.iterations <= 100
        assert one_slit_pre.error_history[-1] < 1e-14

    def test_history_integrity(self, one_slit_pre):
        hist = one_slit_pre.error_history
        assert len(hist) == one_slit_pre.iterations
        assert all(e > 0 for e in hist)
        assert len(one_slit_pre.gmres_history) == len(hist)
        # converged exactly when the last recorded error beat eps
        assert one_slit_pre.converged == (hist[-1] < 1e-14)

    def test_fixed_point_reentry(self, one_slit_pre):
        # restarting from converged parameters must stop immediately
        omega = one_slit_pre.omega
        cfg = IterationConfig(n=256, eps=1e-12)
        again = iterate(omega, cfg, params=one_slit_pre.params)
        assert again.converged
        assert again.iterations == 1

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_params_length_checked(self, monkeypatch, count):
        # a wrong-length params is rejected by name, before any solve
        monkeypatch.setattr(
            preimage, "build_map", lambda *a, **k: pytest.fail("solved")
        )
        omega = StripSlitDomain([SlitSpec(-1.0, -0.5), SlitSpec(0.5, 1.0)])
        cfg = IterationConfig(n=64)
        params = (initialize(omega, cfg) * 2)[:count]
        with pytest.raises(ValueError, match=f"^params holds {count} ellipses .* 2 slits"):
            iterate(omega, cfg, params=params)

    def test_max_iter_cap(self):
        omega = single_slit_domain()
        cfg = IterationConfig(n=64, eps=1e-30, max_iter=3)
        res = iterate(omega, cfg)
        assert not res.converged
        assert res.iterations == 3

    def test_progress_callback(self):
        omega = single_slit_domain()
        seen = []
        iterate(omega, IterationConfig(n=64, eps=1e-10), progress=seen.append)
        assert len(seen) >= 1
        for rec in seen:
            assert set(rec) >= {"k", "error", "gmres_iters", "elapsed_ms"}
        assert [rec["k"] for rec in seen] == list(range(1, len(seen) + 1))

    def test_smaller_r_fewer_iterations(self):
        omega = single_slit_domain()
        iters = {}
        for r in (0.1, 0.3):
            res = iterate(omega, IterationConfig(n=128, r=r, eps=1e-13))
            assert res.converged
            iters[r] = res.iterations
        assert iters[0.1] <= iters[0.3]

    def test_result_carries_domain(self, one_slit_pre):
        assert isinstance(one_slit_pre, PreimageResult)
        assert one_slit_pre.omega is not None
        assert one_slit_pre.cfg == IterationConfig(n=256, r=0.2)
        assert one_slit_pre.map.m == 1
