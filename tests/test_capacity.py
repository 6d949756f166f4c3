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
from stripcap.preimage import IterationConfig
from stripcap.capacity import (
    STUDY_FAMILIES,
    CondenserSpec,
    capacity,
    capacity_study,
    charges_from_boundary,
    elliptic_K,
    exact_cap_horizontal,
    exact_cap_vertical,
    mu,
    study_samples,
)

FAST = IterationConfig(n=128, eps=1e-13)


class TestSpecialFunctions:
    def test_elliptic_K_vs_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for r in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            ref = float(mpmath.ellipk(r * r))  # mpmath takes m = r^2
            assert elliptic_K(r) == pytest.approx(ref, rel=1e-14)

    def test_K_at_zero(self):
        assert elliptic_K(0.0) == pytest.approx(np.pi / 2, rel=1e-15)

    def test_mu_duality(self):
        for r in (0.1, 0.4, 0.6, 0.95):
            rp = np.sqrt(1 - r * r)
            assert mu(r) * mu(rp) == pytest.approx(np.pi**2 / 4, rel=1e-12)

    def test_mu_monotone_decreasing(self):
        rs = np.linspace(0.05, 0.95, 10)
        vals = [mu(r) for r in rs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

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
        a, c = charges_from_boundary(bp, [0.0 + 0.0j])
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
        a1, _ = charges_from_boundary(bp, [0.3 + 0.0j])
        a2, _ = charges_from_boundary(bp, [0.35 + 0.03j])
        assert a1[0] == pytest.approx(a2[0], rel=1e-11)


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
        with pytest.raises(ValueError, match=r"delta\[1\] is not finite"):
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
