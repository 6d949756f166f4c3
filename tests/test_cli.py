"""Command-line front end: parsing, outputs, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from stripcap.cli import ProblemFile, main
from stripcap.preimage import IterationConfig


def run_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "stripcap.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SMALL = {
    "slits": [{"a": [0.0, -0.5], "b": [0.0, 0.5]}],
    "numerics": {"n": 64, "eps": 1e-12},
}


class TestProblemFile:
    def test_round_trip(self):
        payload = {
            "slits": [{"a": [-0.5, 0.1], "b": [0.5, 0.3]}],
            "delta": [2.0],
            "numerics": {"n": 128},
            "flow": {"x": [-3, 3], "y": [-1, 1], "nx": 10, "ny": 5},
        }
        problem = ProblemFile.parse(payload)
        assert ProblemFile.parse(problem.to_dict()).to_dict() == problem.to_dict()

    def test_defaults(self):
        problem = ProblemFile.parse({"slits": SMALL["slits"]})
        assert problem.config() == IterationConfig()

    def test_precedence(self):
        problem = ProblemFile.parse(
            {"slits": SMALL["slits"], "numerics": {"n": 64, "solver_maxit": 300}}
        )
        cfg = problem.config({"n": 32, "r": None})
        assert cfg == IterationConfig(n=32, solver_maxit=300)

    def test_unknown_numerics_rejected(self):
        with pytest.raises(ValueError, match="unknown numerics"):
            ProblemFile.parse({"slits": SMALL["slits"], "numerics": {"grd": 3}})

    def test_empty_slits_rejected(self):
        with pytest.raises(ValueError):
            ProblemFile.parse({"slits": []})


class TestCommands:
    def test_exact(self):
        proc = run_cli(["exact", "vertical:0.5"])
        assert proc.returncode == 0
        assert float(proc.stdout.strip()) == pytest.approx(3.0534002955, rel=1e-9)

    def test_exact_bad_formula(self):
        proc = run_cli(["exact", "diagonal:0.5"])
        assert proc.returncode == 1

    def test_emit_config(self, tmp_path):
        path = write_problem(tmp_path, SMALL)
        proc = run_cli(["capacity", "--input", path, "--emit-config", "--n", "32"])
        assert proc.returncode == 0
        cfg = json.loads(proc.stdout)
        assert cfg["n"] == 32  # CLI override wins
        assert cfg["eps"] == 1e-12  # file value wins over default

    def test_preimage_success(self, tmp_path):
        path = write_problem(tmp_path, SMALL)
        out = tmp_path / "result.json"
        proc = run_cli(["preimage", "--input", path, "--out", str(out)])
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert len(payload["error_history"]) <= 100
        assert len(payload["ellipses"]) == 1
        assert len(payload["boundary"]["eta"]) == 2

    def test_preimage_nonconvergence_exit_2(self, tmp_path):
        bad = dict(SMALL, numerics={"n": 64, "eps": 1e-30, "max_iter": 2})
        path = write_problem(tmp_path, bad)
        proc = run_cli(["preimage", "--input", path, "--out", str(tmp_path / "r.json")])
        assert proc.returncode == 2

    def test_preimage_progress_lines(self, tmp_path):
        path = write_problem(tmp_path, SMALL)
        proc = run_cli(
            ["preimage", "--input", path, "--progress", "--out", str(tmp_path / "r.json")]
        )
        assert proc.returncode == 0
        lines = [json.loads(l) for l in proc.stdout.strip().splitlines() if l]
        assert lines and all({"k", "error"} <= set(rec) for rec in lines)

    def test_capacity_with_exact(self, tmp_path):
        path = write_problem(tmp_path, SMALL)
        proc = run_cli(["capacity", "--input", path, "--exact", "vertical:0.5"])
        assert proc.returncode == 0
        assert "cap = " in proc.stdout
        rel = float(proc.stdout.split("relative error = ")[1].split()[0])
        assert rel < 1e-6  # n = 64 smoke run; accuracy is tested elsewhere

    def test_capacity_default_delta_noted(self, tmp_path):
        path = write_problem(tmp_path, SMALL)
        proc = run_cli(["capacity", "--input", path])
        assert proc.returncode == 0
        assert "defaulting to all ones" in proc.stdout

    def test_flow_csv_and_check(self, tmp_path):
        payload = dict(SMALL)
        payload["flow"] = {"x": [-3, 3], "y": [-1.2, 1.2], "nx": 11, "ny": 7}
        path = write_problem(tmp_path, payload)
        out = tmp_path / "field.csv"
        proc = run_cli(["flow", "--input", path, "--out", str(out), "--check"])
        assert proc.returncode == 0
        assert "slit stream spread" in proc.stdout
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,psi"
        assert len(lines) == 1 + 11 * 7

    def test_flow_nonconvergence_exit_2(self, tmp_path):
        payload = dict(SMALL, flow={"nx": 5, "ny": 5})
        path = write_problem(tmp_path, payload)
        proc = run_cli(
            ["flow", "--input", path, "--max-iter", "1", "--out", str(tmp_path / "f.csv")]
        )
        assert proc.returncode == 2
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_flow_negative_exclusion_exit_1(self, tmp_path):
        payload = dict(SMALL, flow={"nx": 5, "ny": 5, "exclusion": -1})
        path = write_problem(tmp_path, payload)
        proc = run_cli(["flow", "--input", path, "--out", str(tmp_path / "f.csv")])
        assert proc.returncode == 1
        assert "exclusion must be finite and >= 0" in proc.stderr

    def test_flow_malformed_grid(self, tmp_path):
        payload = dict(SMALL)
        payload["flow"] = {"x": [3], "nx": 10, "ny": 5}
        path = write_problem(tmp_path, payload)
        proc = run_cli(["flow", "--input", path])
        assert proc.returncode == 1

    def test_study_family(self, tmp_path):
        payload = dict(SMALL)
        payload["study"] = {"family": "horizontal_shift", "values": [0.0, 0.3]}
        path = write_problem(tmp_path, payload)
        proc = run_cli(["study", "--input", path])
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "param,cap,converged,iters"
        assert len(lines) == 3

    def test_study_determinism(self, tmp_path):
        payload = dict(SMALL)
        payload["study"] = {
            "family": "random_horizontal",
            "count": 2,
            "m": 2,
            "seed": 5,
        }
        path = write_problem(tmp_path, payload)
        out1 = run_cli(["study", "--input", path])
        out2 = run_cli(["study", "--input", path])
        assert out1.returncode == 0
        assert out1.stdout == out2.stdout

    def test_bad_input_exit_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli(["capacity", "--input", str(path)])
        assert proc.returncode == 1
        proc2 = run_cli(["capacity", "--input", str(tmp_path / "missing.json")])
        assert proc2.returncode == 1

    @pytest.mark.parametrize(
        "key, section",
        [
            pytest.param("n", {"numerics": {"n": 64.0}}, id="n-64.0"),
            pytest.param("max_iter", {"numerics": {"max_iter": 0}}, id="max_iter-0"),
            pytest.param("numerics", {"numerics": [1, 2]}, id="numerics-list"),
            pytest.param(
                "study.values",
                {"study": {"family": "two_vertical", "values": 5}},
                id="study-values-int",
            ),
            pytest.param("study.seed", {"study": {"seed": [1]}}, id="study-seed-list"),
            pytest.param("flow", {"flow": [1, 2]}, id="flow-list"),
            pytest.param("flow.nx", {"flow": {"nx": "ten"}}, id="flow-nx-string"),
            pytest.param("delta", {"delta": 5}, id="delta-int"),
            pytest.param(
                "slits[0]", {"slits": [{"a": 1, "b": [1, 0]}]}, id="slit-a-int"
            ),
            pytest.param("slits[0]", {"slits": [{"a": [0, 1]}]}, id="slit-b-missing"),
        ],
    )
    def test_bad_numerics_exit_1(self, tmp_path, key, section):
        # a wrongly typed or shaped entry anywhere in the problem file
        path = write_problem(tmp_path, {**SMALL, **section})
        proc = run_cli(["capacity", "--input", path])
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {key} must be")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_flow_non_finite_bound_exit_1(self, tmp_path):
        # Python's json module writes and reads -Infinity
        payload = dict(SMALL, flow={"x": [float("-inf"), 3], "nx": 5, "ny": 5})
        path = write_problem(tmp_path, payload)
        assert "-Infinity" in open(path).read()
        proc = run_cli(["flow", "--input", path, "--out", str(tmp_path / "f.csv")])
        assert proc.returncode == 1
        assert "grid bound x_min is not finite" in proc.stderr

    def test_seed_only_on_study(self):
        for command in ("preimage", "capacity", "flow"):
            proc = run_cli([command, "--help"])
            assert proc.returncode == 0
            assert "--seed" not in proc.stdout
        assert "--seed" in run_cli(["study", "--help"]).stdout

    def test_non_finite_endpoint_exit_1(self, tmp_path):
        # Python's json module reads the bare token NaN as a float
        payload = dict(SMALL, slits=[{"a": [float("nan"), -0.5], "b": [0.0, 0.5]}])
        path = write_problem(tmp_path, payload)
        assert "NaN" in open(path).read()
        proc = run_cli(["capacity", "--input", path])
        assert proc.returncode == 1
        assert "slit endpoint a is not finite" in proc.stderr

    def test_non_finite_delta_exit_1(self, tmp_path):
        payload = dict(SMALL, delta=[float("nan")])
        path = write_problem(tmp_path, payload)
        assert "NaN" in open(path).read()
        proc = run_cli(["capacity", "--input", path])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: potential level delta[0] is not finite")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "cap =" not in proc.stdout

    def test_main_callable_in_process(self, tmp_path, capsys):
        # main() is also the programmatic entry point
        path = write_problem(tmp_path, SMALL)
        code = main(["exact", "horizontal:0.5"])
        assert code == 0
        assert capsys.readouterr().out.strip() != ""
