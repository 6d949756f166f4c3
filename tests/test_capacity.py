"""Condenser capacity: special functions, oracles, invariances, studies."""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from stripcap.errors import ConvergenceError
from stripcap.geometry import (
    BoundaryParametrization,
    EllipseParams,
    SlitSpec,
    StripSlitDomain,
    parametrize_ellipse,
)
from stripcap.kernels import KernelSet
from stripcap.preimage import IterationConfig
from stripcap.capacity import (
    STUDY_FAMILIES,
    CondenserSpec,
    capacity,
    capacity_study,
    charges_from_boundary,
    exact_cap_horizontal,
    exact_cap_vertical,
    study_samples,
)

from conftest import FOUR_SLITS

FAST = IterationConfig(n=128, eps=1e-13)


class TestSpecialFunctions:
    def test_exact_formulas(self):
        # cross-check the two closed forms through the known special value
        # mu(1/sqrt(2)) = pi/2
        s = float(np.arcsin(1 / np.sqrt(2)))
        assert exact_cap_vertical(s) == pytest.approx(4.0, rel=1e-12)
        assert exact_cap_horizontal(np.arctanh(1 / np.sqrt(2))) == pytest.approx(
            4.0, rel=1e-12
        )

    def test_exact_formulas_vs_mpmath(self):
        # cap = 4 K(r) / K(r') with r = sin s, tanh s; to full precision even
        # where r or r' is tiny (long horizontal, short or near-wall vertical)
        mpmath = pytest.importorskip("mpmath")

        def rel_err(cap, r, rc):
            return abs(float(cap) * mpmath.ellipk(rc**2) / (4 * mpmath.ellipk(r**2)) - 1)

        with mpmath.workdps(60):
            for s in np.geomspace(0.01, 30.0, 40):
                t = mpmath.mpf(s)
                err = rel_err(exact_cap_horizontal(s), mpmath.tanh(t), mpmath.sech(t))
                assert err <= 1e-15, s
            for s in [*np.geomspace(1e-3, 1.5, 30), 1.5707, 1.57079]:
                t = mpmath.mpf(s)
                err = rel_err(exact_cap_vertical(s), mpmath.sin(t), mpmath.cos(t))
                assert err <= 1e-15, s


class TestChargesOracle:
    def test_annulus_exact(self):
        # disk minus concentric circular hole of radius r0: the unit-potential
        # charge is 1/log(1/r0) and cap = 2*pi/log(1/r0), both in closed form
        n = 256
        t = 2 * np.pi * np.arange(n) / n
        r0 = 0.35
        outer = np.exp(1j * t)
        hole = r0 * np.exp(-1j * t)  # clockwise
        bp = BoundaryParametrization(
            np.vstack([outer, hole]),
            np.vstack([1j * outer, -1j * hole]),
        )
        a, c, _ = charges_from_boundary(KernelSet(bp, np.zeros(2)), [0.0 + 0.0j])
        ref = 1.0 / np.log(1.0 / r0)
        assert a[0] == pytest.approx(ref, rel=1e-12)

    def test_charge_independent_of_alpha(self):
        # any point strictly inside the hole must give the same charges
        n = 256
        t = 2 * np.pi * np.arange(n) / n
        he, hd = parametrize_ellipse(EllipseParams(z=0.3, a=0.5, theta=0.2, r=0.4), n)
        bp = BoundaryParametrization(
            np.vstack([np.exp(1j * t), he]),
            np.vstack([1j * np.exp(1j * t), hd]),
        )
        ks = KernelSet(bp, np.zeros(2))
        a1, _, _ = charges_from_boundary(ks, [0.3 + 0.0j])
        a2, _, _ = charges_from_boundary(ks, [0.35 + 0.03j])
        assert a1[0] == pytest.approx(a2[0], rel=1e-11)


class TestChargeResolution:
    """``charge_h_dev``, each plate's largest spread of the field the theory
    makes constant, reports how well the charge solve resolved."""

    @pytest.mark.parametrize(
        "slit, exact, n",
        [
            *[
                pytest.param((-0.5, 0.5), exact_cap_horizontal(0.5), n, id=f"horizontal-n{n}")
                for n in (16, 32, 64, 128)
            ],
            *[
                pytest.param((-1j, 1j), exact_cap_vertical(1.0), n, id=f"vertical-n{n}")
                for n in (32, 64, 128)
            ],
        ],
    )
    def test_bounds_the_error_on_one_slit(self, slit, exact, n):
        spec = CondenserSpec(StripSlitDomain([SlitSpec(*slit)]))
        res = capacity(spec, IterationConfig(n=n, eps=1e-13))
        assert res.charge_h_dev.shape == (1,)
        assert res.charge_h_dev[0] >= abs(res.cap / exact - 1)

    def test_flags_the_crowded_pair(self):
        # two vertical slits 0.02 apart at r = gap/2: the preimage iteration
        # converges, yet cap 4.29668 lies 14 % below the resolved 4.98677
        x = 0.01
        dom = StripSlitDomain([SlitSpec(-x - 1j, -x + 1j), SlitSpec(x - 1j, x + 1j)])
        res = capacity(CondenserSpec(dom), IterationConfig(n=256, r=0.5 * x))
        assert res.preimage.converged
        assert res.charge_h_dev.shape == (2,)
        assert res.charge_h_dev.min() >= 1e-1

    def test_resolved_four_slits(self):
        res = capacity(CondenserSpec(StripSlitDomain(FOUR_SLITS)), IterationConfig(n=256))
        assert res.charge_h_dev.shape == (4,)
        assert res.charge_h_dev.max() <= 1e-12


class TestCapacity:
    def test_single_vertical_slit(self):
        s = 0.5
        spec = CondenserSpec(StripSlitDomain([SlitSpec(-1j * s, 1j * s)]), np.ones(1))
        res = capacity(spec, FAST)
        assert res.cap == pytest.approx(exact_cap_vertical(s), rel=1e-11)
        assert res.preimage.converged

    def test_single_horizontal_slit(self):
        s = 0.5
        spec = CondenserSpec(StripSlitDomain([SlitSpec(-s, s)]), np.ones(1))
        res = capacity(spec, FAST)
        assert res.cap == pytest.approx(exact_cap_horizontal(s), rel=1e-11)

    def test_translation_invariance(self):
        # shifting the whole configuration along the strip axis cannot change
        # the capacity
        base = StripSlitDomain([SlitSpec(-0.4 - 0.3j, 0.4 + 0.1j)])
        shifted = StripSlitDomain([SlitSpec(0.6 - 0.3j, 1.4 + 0.1j)])
        c1 = capacity(CondenserSpec(base, np.ones(1)), FAST).cap
        c2 = capacity(CondenserSpec(shifted, np.ones(1)), FAST).cap
        assert c1 == pytest.approx(c2, rel=1e-9)

    def test_delta_weighting_is_linear(self):
        # cap(delta) = 2*pi*sum(delta_k a_k) with a_k from the unit-potential
        # problem, so it is linear in delta
        dom = StripSlitDomain([SlitSpec(-1.5 - 0.2j, -0.5 - 0.2j), SlitSpec(0.5, 1.5)])
        c1 = capacity(CondenserSpec(dom, np.array([1.0, 0.0])), FAST).cap
        c2 = capacity(CondenserSpec(dom, np.array([0.0, 1.0])), FAST).cap
        c12 = capacity(CondenserSpec(dom, np.array([2.0, 3.0])), FAST).cap
        assert c12 == pytest.approx(2 * c1 + 3 * c2, rel=1e-10)

    def test_spec_validation(self):
        dom = StripSlitDomain([SlitSpec(-0.5, 0.5)])
        with pytest.raises(ValueError):
            CondenserSpec(dom, np.ones(3))

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
    def test_non_finite_delta_rejected(self, level):
        dom = StripSlitDomain([SlitSpec(-0.5, 0.5), SlitSpec(1.0j - 0.5, 1.0j + 0.5)])
        with pytest.raises(ValueError, match=r"delta\[1\] must be a finite number"):
            CondenserSpec(dom, (1.0, level))

    def test_nonconvergence_raises(self):
        dom = StripSlitDomain([SlitSpec(-0.5, 0.5)])
        cfg = IterationConfig(n=64, eps=1e-30, max_iter=2)
        with pytest.raises(ConvergenceError):
            capacity(CondenserSpec(dom, np.ones(1)), cfg)


class TestStudies:
    def test_families_registered(self):
        assert set(STUDY_FAMILIES) == {
            "two_vertical",
            "two_horizontal",
            "vertical_shift",
            "horizontal_shift",
            "random_horizontal",
        }

    def test_random_horizontal_defaults(self):
        # count=10, m=10, seed=0 and box_height=0 come from the builder
        samples = study_samples({"family": "random_horizontal"}, FAST)
        assert [p for p, _, _ in samples] == list(range(10))
        for _, spec, cfg in samples:
            assert spec.domain.m == 10 and cfg == FAST
            assert all(s.c.imag == 0.0 for s in spec.domain.slits)
        again = study_samples({"family": "random_horizontal", "seed": 0}, FAST)
        layouts = lambda rows: [spec.domain.slits for _, spec, _ in rows]
        assert layouts(again) == layouts(samples)

    def test_random_horizontal_clamps_r_for_close_pairs(self):
        # r <= gap / (ell_i + ell_j) over the pairs whose real ranges overlap
        # (clearance_ratio); on the real axis (box_height 0) none overlap
        cfg = IterationConfig(n=64)
        study = {"family": "random_horizontal", "m": 3, "count": 3, "seed": 4}
        flat = study_samples(dict(study, box_height=0.0), cfg)
        assert [c for _, _, c in flat] == [cfg] * 3
        boxed = study_samples(dict(study, box_height=0.5), cfg)
        _, spec, close = boxed[1]
        s = spec.domain.slits
        assert close == replace(cfg, r=(s[1].c.imag - s[2].c.imag) / (s[1].ell + s[2].ell))
        assert [c for _, _, c in boxed[::2]] == [cfg] * 2
        # at the run's r=0.2 the preimage curves of slits 2 and 3 intersect
        point = capacity_study([boxed[1]])[0]
        assert point.converged, point.error

    def test_vertical_family_clamps_r(self):
        # only r changes; every other setting of the base config is kept
        base = IterationConfig(n=64, r=0.2, eps=1e-9, max_iter=7)
        samples = study_samples({"family": "two_vertical", "values": [0.1, 3.0]}, base)
        assert samples[0][2] == replace(base, r=0.05)
        assert samples[1][2] == base

    def test_study_captures_failures(self):
        dom = StripSlitDomain([SlitSpec(-0.5, 0.5)])
        good = (1.0, CondenserSpec(dom, np.ones(1)), FAST)
        bad = (
            2.0,
            CondenserSpec(dom, np.ones(1)),
            IterationConfig(n=64, eps=1e-30, max_iter=1),
        )
        table = capacity_study([good, bad])
        assert table[0].converged and np.isfinite(table[0].cap)
        assert not table[1].converged and np.isnan(table[1].cap)
        assert table[1].error

    def test_study_reports_charge_h_dev(self):
        # a row carries its capacity's largest charge h_dev, a failed row NaN
        dom = StripSlitDomain([SlitSpec(-0.5, 0.5), SlitSpec(1.0 - 0.3j, 1.0 + 0.3j)])
        spec = CondenserSpec(dom)
        failing = IterationConfig(n=64, eps=1e-30, max_iter=1)
        good, bad = capacity_study([(1.0, spec, FAST), (2.0, spec, failing)])
        assert good.charge_h_dev == capacity(spec, FAST).charge_h_dev.max()
        assert type(good.charge_h_dev) is float
        assert np.isnan(bad.charge_h_dev)

    def test_study_propagates_bugs(self, monkeypatch):
        # only typed library errors and ValueError count as failed samples;
        # the package re-exports the function under the module's name
        capmod = importlib.import_module("stripcap.capacity")

        def broken(spec, cfg):
            raise RuntimeError("programming error")

        monkeypatch.setattr(capmod, "capacity", broken)
        dom = StripSlitDomain([SlitSpec(-0.5, 0.5)])
        with pytest.raises(RuntimeError, match="programming error"):
            capacity_study([(1.0, CondenserSpec(dom, np.ones(1)), FAST)])
