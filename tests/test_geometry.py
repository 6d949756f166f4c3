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
    pairwise_chunks,
    point_segment_distance,
    psi_inv_deriv,
    segment_distance,
    segments_cross,
    trig_extrema,
    trig_interp,
    winding_number,
)

# absolute, so that a child process imports this package
SRC = str(Path(sc.__file__).resolve().parents[1])


def run_child(code, timeout=60):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
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

    def test_entry_that_is_not_a_slit_rejected(self):
        with pytest.raises(sc.GeometryError, match=r"slits\[1\] must be a SlitSpec, got \(0, 1\)"):
            sc.StripSlitDomain([sc.SlitSpec(-1j, 1j), (0, 1)])


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
            pytest.param({"z": complex(np.nan, 0.1)}, "ellipse z is not finite", id="nan-z"),
            pytest.param({"z": complex(0.1, np.inf)}, "ellipse z is not finite", id="inf-z"),
            pytest.param({"a": np.nan}, "ellipse a is not finite", id="nan-a"),
            pytest.param({"a": np.inf}, "ellipse a is not finite", id="inf-a"),
            pytest.param({"theta": np.nan}, "ellipse theta is not finite", id="nan-theta"),
            pytest.param({"theta": -np.inf}, "ellipse theta is not finite", id="inf-theta"),
        ],
    )
    def test_degenerate_ellipse_rejected(self, fields, message):
        with pytest.raises(sc.GeometryError, match=message):
            sc.EllipseParams(**{"z": 0.1, "a": 0.5, "theta": 0.0, "r": 0.2, **fields})


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
