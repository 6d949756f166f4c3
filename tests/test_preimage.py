"""Fixed-point iteration for the smooth preimage domain."""

import numpy as np
import pytest

import stripcap.preimage as preimage
from stripcap.capacity import charges_from_boundary
from stripcap.errors import ConvergenceError, GeometryError, MemoryLimitError, OverlapError
from stripcap.geometry import SlitSpec, StripSlitDomain, psi_inv
from stripcap.preimage import IterationConfig, PreimageResult, initialize, iterate
from stripcap.solver import RESOLVED_H_DEV

from conftest import FOUR_SLITS


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

    def test_fixed_point_reentry(self):
        # a level started from the parameters the level below converged to
        # must stop after one step
        res = iterate(single_slit_domain(), IterationConfig(n=256, eps=1e-12))
        assert res.converged
        assert [lv.n for lv in res.levels] == [128, 256]
        assert res.levels[-1].steps == 1

    def test_max_iter_cap(self):
        omega = single_slit_domain()
        cfg = IterationConfig(n=64, eps=1e-30, max_iter=3)
        res = iterate(omega, cfg)
        assert not res.converged
        assert res.iterations == 3
        with pytest.raises(ConvergenceError, match="did not reach 1e-30 at n=64 in 3 "):
            res.require_converged()

    def test_progress_callback(self):
        omega = single_slit_domain()
        seen = []
        iterate(omega, IterationConfig(n=64, eps=1e-10), progress=seen.append)
        assert len(seen) >= 1
        for rec in seen:
            assert set(rec) >= {"k", "n", "error", "gmres_iters", "elapsed_ms"}
        assert [rec["k"] for rec in seen] == list(range(1, len(seen) + 1))

    def test_smaller_r_fewer_iterations(self):
        omega = single_slit_domain()
        iters = {}
        for r in (0.1, 0.3):
            res = iterate(omega, IterationConfig(n=128, r=r, eps=1e-13))
            assert res.converged
            iters[r] = res.iterations
        assert iters[0.1] <= iters[0.3]

    @pytest.mark.parametrize(
        "x, message",
        [
            # psi_inv puts the hole within rounding of w = +1 ...
            (35.5, "inner curve 1 touches the branch points"),
            # ... and, farther out, onto the unit circle itself
            (39.5, "curve 1 touches the unit circle"),
        ],
    )
    def test_slit_too_far_out_rejected(self, x, message):
        omega = StripSlitDomain([SlitSpec(x, x + 1.0)])
        with pytest.raises(GeometryError, match=message):
            iterate(omega, IterationConfig(n=64))

    def test_kernel_too_large_for_memory_rejected_first(self, monkeypatch):
        # 16 ((m+1) n)^2 bytes = 275 GB for m=1, n=2^16: raised before
        # initialize builds the boundary or any kernel is assembled
        def unreachable(*args):
            raise AssertionError("work started before the memory check")

        monkeypatch.setattr(preimage, "initialize", unreachable)
        monkeypatch.setattr(preimage.KernelSet, "__init__", unreachable)
        with pytest.raises(MemoryLimitError, match="n=65536, m=1 need 274877906944 bytes"):
            iterate(single_slit_domain(), IterationConfig(n=2**16))

    def test_result_carries_domain(self, one_slit_pre):
        assert isinstance(one_slit_pre, PreimageResult)
        assert one_slit_pre.omega is not None
        assert one_slit_pre.cfg == IterationConfig(n=256, r=0.2, eps=1e-14)
        assert one_slit_pre.map.m == 1


class TestLadder:
    @staticmethod
    def capacity_of(pre):
        a, _, _ = charges_from_boundary(
            pre.take_kernel(), [psi_inv(p.z) for p in pre.params]
        )
        return 2.0 * np.pi * a.sum()

    def test_resolved_levels_hand_up(self, monkeypatch):
        omega = StripSlitDomain(FOUR_SLITS)
        cfg = IterationConfig(n=512, r=0.2, eps=1e-11)
        res = iterate(omega, cfg)
        assert res.converged
        assert [lv.n for lv in res.levels] == [128, 256, 512]
        assert res.levels[-1].steps <= 2
        assert all(lv.h_dev < RESOLVED_H_DEV for lv in res.levels)
        assert sum(lv.steps for lv in res.levels) == res.iterations
        assert len(res.gmres_history) == res.iterations
        monkeypatch.setattr(preimage, "LADDER_START", cfg.n)
        cold = iterate(omega, cfg)
        assert [lv.n for lv in cold.levels] == [512]
        cap, cap_cold = self.capacity_of(res), self.capacity_of(cold)
        assert abs(cap - cap_cold) <= 1e-13 * cap_cold

    @staticmethod
    def fail_at(monkeypatch, n_fail):
        # build_map raises at one n, so that level counts as unresolved
        build_map = preimage.build_map

        def failing(ks, *args):
            if ks.bp.n == n_fail:
                raise ConvergenceError("stalled")
            return build_map(ks, *args)

        monkeypatch.setattr(preimage, "build_map", failing)

    def test_unresolved_level_hands_up_nothing(self, monkeypatch):
        # the crowded pair: the n=128 rung's first solve leaves h_dev above
        # RESOLVED_H_DEV, so that rung stops after its one step, and n=256,
        # with no resolved level below it, runs as a cold one
        import stripcap.stripmap as stripmap

        solves = {}
        solve_bie = stripmap.solve_bie

        def counted(ks, *args):
            solves[ks.bp.n] = solves.get(ks.bp.n, 0) + 1
            return solve_bie(ks, *args)

        monkeypatch.setattr(stripmap, "solve_bie", counted)
        omega = StripSlitDomain(
            [SlitSpec(-0.01 - 1j, -0.01 + 1j), SlitSpec(0.01 - 1j, 0.01 + 1j)]
        )
        cfg = IterationConfig(n=256, r=0.005, eps=1e-11, max_iter=2)
        res = iterate(omega, cfg)
        first, top = res.levels
        assert (first.n, first.steps) == (128, 1)
        assert first.h_dev >= RESOLVED_H_DEV
        assert (top.n, top.steps) == (256, 2)
        assert solves == {128: 1, 256: 2}
        monkeypatch.setattr(preimage, "LADDER_START", cfg.n)
        cold = iterate(omega, cfg)
        assert res.error_history[1:] == cold.error_history
        assert res.gmres_history[1:] == cold.gmres_history

    def test_nan_judgement_leaves_a_rung_unresolved(self, monkeypatch):
        # a NaN h_dev resolves nothing: the four-slit rung at n=128, whose
        # first solve resolves with finite data, then hands nothing up
        import stripcap.solver as solver

        field_stats = solver._field_stats

        def nan_at_128(m_rho, n_gamma):
            h, h_dev = field_stats(m_rho, n_gamma)
            return h, np.full_like(h_dev, np.nan) if m_rho.shape[-1] == 128 else h_dev

        monkeypatch.setattr(solver, "_field_stats", nan_at_128)
        res = iterate(StripSlitDomain(FOUR_SLITS), IterationConfig(n=256))
        first, top = res.levels
        assert (first.n, first.steps) == (128, 1) and np.isnan(first.h_dev)
        assert top.n == 256 and res.converged

    def test_failing_level_hands_up_nothing(self, monkeypatch):
        # a coarse level that raises counts as unresolved: recorded with no
        # solve, and n=256, with no resolved level below it, starts from the
        # initial ellipses
        self.fail_at(monkeypatch, 128)
        omega = single_slit_domain()
        cfg = IterationConfig(n=256, eps=1e-10)
        res = iterate(omega, cfg)
        monkeypatch.undo()
        first, top = res.levels
        assert (first.n, first.steps, first.h_dev) == (128, 0, None)
        assert top.n == 256 and res.converged
        monkeypatch.setattr(preimage, "LADDER_START", cfg.n)
        cold = iterate(omega, cfg)
        assert res.error_history == cold.error_history

    def test_climb_goes_on_past_a_failing_first_level(self, monkeypatch):
        # n=128 raises, so n=256 starts from the initial ellipses and hands
        # its converged ones up to n=512, as a ladder starting at n=256 does;
        # n=256 took 8 steps, so at n=1024 the rung n=512 still runs
        omega = single_slit_domain()
        for n, upper in [(512, [(512, 1)]), (1024, [(512, 1), (1024, 1)])]:
            cfg = IterationConfig(n=n, eps=1e-10)
            self.fail_at(monkeypatch, 128)
            res = iterate(omega, cfg)
            monkeypatch.undo()
            assert [(lv.n, lv.steps) for lv in res.levels] == [(128, 0), (256, 8)] + upper
            assert res.converged
            monkeypatch.setattr(preimage, "LADDER_START", 256)
            from_256 = iterate(omega, cfg)
            monkeypatch.undo()
            assert res.levels[1:] == from_256.levels
            assert res.error_history == from_256.error_history

    def test_one_step_rung_hands_straight_to_the_top(self, monkeypatch):
        # n=256 meets eps on its first step from n=128's fixed point, so it
        # hands up exactly what it was given: n=512, which would run that
        # same step again, is skipped and n=1024 starts from those parameters
        given = {}
        run_level = preimage._run_level

        def spy(result, params, n, *args, **kwargs):
            given[n] = list(params)
            return run_level(result, params, n, *args, **kwargs)

        monkeypatch.setattr(preimage, "_run_level", spy)
        res = iterate(single_slit_domain(), IterationConfig(n=1024, eps=1e-12))
        assert [(lv.n, lv.steps) for lv in res.levels] == [(128, 10), (256, 1), (1024, 1)]
        assert sorted(given) == [128, 256, 1024]
        assert given[1024] == given[256]
        assert res.converged
        assert res.error_history[-1] == 2.0610910733772815e-13

    def test_level_starts_from_last_resolved_level_below(self, monkeypatch):
        # n=256 raises, so n=512 starts from n=128's converged ellipses
        # rather than from the initial ones, which take 8 steps
        self.fail_at(monkeypatch, 256)
        res = iterate(single_slit_domain(), IterationConfig(n=512, eps=1e-10))
        coarse, failed, top = res.levels
        assert coarse.n == 128 and coarse.h_dev < RESOLVED_H_DEV
        assert (failed.n, failed.steps) == (256, 0)
        assert top.n == 512 and top.steps <= 2
        assert res.converged

    @pytest.mark.parametrize("n", [64, 128])
    def test_one_level_up_to_ladder_start(self, n):
        res = iterate(single_slit_domain(), IterationConfig(n=n, eps=1e-10))
        assert [(lv.n, lv.steps) for lv in res.levels] == [(n, res.iterations)]
