"""Command-line front end: parsing, outputs, exit codes, determinism."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stripcap
from stripcap.capacity import STUDY_FAMILIES, capacity_study, study_samples
from stripcap.cli import ProblemFile, main
from stripcap.preimage import IterationConfig
from stripcap.solver import RESOLVED_H_DEV

# absolute, so that a run from another working directory imports this package
SRC = str(Path(stripcap.__file__).resolve().parents[1])


def run_cli(argv, cwd=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stripcap.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error"),
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
    def test_defaults(self):
        problem = ProblemFile.parse({"slits": SMALL["slits"]})
        assert problem.config() == IterationConfig()

    def test_precedence(self):
        problem = ProblemFile.parse(
            {"slits": SMALL["slits"], "numerics": {"n": 64, "max_iter": 30, "eps": 1e-9}}
        )
        cfg = problem.config({"n": 32, "r": None, "eps": 1e-10})
        assert cfg == IterationConfig(n=32, max_iter=30, eps=1e-10)

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

    def test_emit_config_follows_out(self, tmp_path):
        path = write_problem(tmp_path, SMALL)
        out = tmp_path / "numerics.json"
        proc = run_cli(["capacity", "--input", path, "--emit-config", "--out", str(out)])
        assert proc.returncode == 0 and proc.stdout == ""
        assert json.loads(out.read_text())["n"] == 64

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

    def test_preimage_strip_ends_are_null(self, tmp_path):
        # the outer nodes at eta = +-1 map to the strip's ends +-infinity
        two_slits = {
            "slits": [
                {"a": [-1.5, -0.3], "b": [-0.5, -0.3]},
                {"a": [0.0, 0.5], "b": [1.0, 0.5]},
            ],
            "numerics": {"n": 64},
        }
        path = write_problem(tmp_path, two_slits)
        proc = run_cli(["preimage", "--input", path])
        assert proc.returncode == 0, proc.stderr

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        zeta = json.loads(proc.stdout, parse_constant=reject)["boundary"]["zeta"]
        nulls = [
            (j, k) for j, row in enumerate(zeta) for k, z in enumerate(row) if z is None
        ]
        assert nulls == [(0, 0), (0, 32)]

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
        lines = [json.loads(l) for l in proc.stderr.strip().splitlines() if l]
        assert lines and all({"k", "error"} <= set(rec) for rec in lines)

    def test_preimage_levels(self, tmp_path):
        # n=512 climbs from n=128; the record and the progress lines say so,
        # and the lines carry each step's preconditioner level: 64 on the
        # top rung, none below n=512
        path = write_problem(tmp_path, SMALL)
        proc = run_cli(["preimage", "--input", path, "--n", "512", "--progress"])
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        levels = payload["levels"]
        assert [level["n"] for level in levels] == [128, 256, 512]
        assert sum(level["steps"] for level in levels) == payload["iterations"]
        assert len(payload["error_history"]) == payload["iterations"]
        lines = [json.loads(l) for l in proc.stderr.strip().splitlines() if l]
        assert [rec["n"] for rec in lines] == [
            level["n"] for level in levels for _ in range(level["steps"])
        ]
        assert [rec["coarse_n"] for rec in lines] == [
            64 if rec["n"] == 512 else None for rec in lines
        ]

    def test_preimage_unresolved_coarse_rungs(self, tmp_path):
        # the crowded pair: each coarse rung's first GMRES solve leaves h_dev
        # above RESOLVED_H_DEV, so each takes that one step, with one
        # progress line, and hands nothing up
        crowded = {
            "slits": [{"a": [x, -1.0], "b": [x, 1.0]} for x in (-0.01, 0.01)],
            "numerics": {"r": 0.005},
        }
        path = write_problem(tmp_path, crowded)
        proc = run_cli(["preimage", "--input", path, "--n", "512", "--max-iter", "2", "--progress"])
        assert proc.returncode == 2, proc.stderr
        levels = json.loads(proc.stdout)["levels"]
        assert [(level["n"], level["steps"]) for level in levels] == [(128, 1), (256, 1), (512, 2)]
        assert all(level["h_dev"] >= RESOLVED_H_DEV for level in levels[:-1])
        lines = [json.loads(l) for l in proc.stderr.strip().splitlines() if l]
        assert [rec["n"] for rec in lines] == [128, 256, 512, 512]

    def test_capacity_with_exact(self, tmp_path):
        path = write_problem(tmp_path, SMALL)
        proc = run_cli(["capacity", "--input", path, "--exact", "vertical:0.5"])
        assert proc.returncode == 0
        assert "cap = " in proc.stderr
        rel = float(proc.stderr.split("relative error = ")[1].split()[0])
        assert rel < 1e-6  # n = 64 smoke run; accuracy is tested elsewhere

    def test_capacity_record_has_charge_h_dev(self, tmp_path):
        proc = run_cli(["capacity", "--input", write_problem(tmp_path, SMALL)])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert len(doc["charge_h_dev"]) == len(doc["a"]) == 1
        assert 0.0 <= doc["charge_h_dev"][0] < 1e-3

    def test_capacity_default_delta_noted(self, tmp_path):
        path = write_problem(tmp_path, SMALL)
        proc = run_cli(["capacity", "--input", path])
        assert proc.returncode == 0
        assert "defaulting to all ones" in proc.stderr

    def test_flow_csv_and_check(self, tmp_path):
        payload = dict(SMALL)
        payload["flow"] = {"x": [-3, 3], "y": [-1.2, 1.2], "nx": 11, "ny": 7}
        path = write_problem(tmp_path, payload)
        out = tmp_path / "field.csv"
        proc = run_cli(["flow", "--input", path, "--out", str(out), "--check"])
        assert proc.returncode == 0
        assert "slit stream spread" in proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,psi"
        assert len(lines) == 1 + 11 * 7

    def test_flow_csv_and_json_documents(self, tmp_path):
        flow = {"x": [-2.0, 2.0], "y": [-1.0, 1.0], "nx": 9, "ny": 5}
        payload = dict(SMALL, flow=flow)
        path = write_problem(tmp_path, payload)
        csv = run_cli(["flow", "--input", path])
        assert csv.returncode == 0
        lines = csv.stdout.strip().splitlines()
        assert lines[0] == "x,y,psi"
        assert len(lines) == 1 + 9 * 5
        jsn = run_cli(["flow", "--input", path, "--json"])
        assert jsn.returncode == 0
        doc = json.loads(jsn.stdout)
        assert doc["grid"]["x"] == [-2.0, 2.0, 9]
        flat = [v for row in doc["psi"] for v in row]
        assert len(flat) == 45
        masked = sum(1 - v for row in doc["mask"] for v in row)
        assert 0 < sum(v is None for v in flat) == masked
        assert [line.endswith(",") for line in lines[1:]] == [v is None for v in flat]

    def test_flow_far_out_grid(self, tmp_path):
        # columns beyond |x| ~ 30.6 are unresolved at every n: masked, not fatal
        payload = dict(SMALL, flow={"x": [-40, 40], "y": [-1.0, 1.0], "nx": 9, "ny": 5})
        path = write_problem(tmp_path, payload)
        proc = run_cli(["flow", "--input", path, "--json"])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert [row[0] for row in doc["mask"]] == [0] * 5
        assert [row[1] for row in doc["mask"]] == [1] * 5

    def test_flow_nonconvergence_exit_2(self, tmp_path):
        payload = dict(SMALL, flow={"nx": 5, "ny": 5})
        path = write_problem(tmp_path, payload)
        proc = run_cli(
            ["flow", "--input", path, "--max-iter", "1", "--out", str(tmp_path / "f.csv")]
        )
        assert proc.returncode == 2
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_flow_negative_exclusion_exit_1(self, tmp_path, monkeypatch, capsys):
        payload = dict(SMALL, flow={"nx": 5, "ny": 5, "exclusion": -1})
        path = write_problem(tmp_path, payload)
        proc = run_cli(["flow", "--input", path, "--out", str(tmp_path / "f.csv")])
        assert proc.returncode == 1
        assert "exclusion must be finite and >= 0" in proc.stderr
        # the range is checked where the file is parsed, for every command,
        # before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("the preimage iteration ran")

        # the package's own ``capacity`` function shadows its module's name
        for module in ("stripcap.cli", "stripcap.capacity"):
            monkeypatch.setattr(importlib.import_module(module), "iterate", no_solve)
        for command in ("flow", "capacity"):
            assert main([command, "--input", path]) == 1
            assert "flow.exclusion must be finite and >= 0, got -1" in capsys.readouterr().err

    def test_flow_malformed_grid(self, tmp_path):
        payload = dict(SMALL)
        payload["flow"] = {"x": [3], "nx": 10, "ny": 5}
        path = write_problem(tmp_path, payload)
        proc = run_cli(["flow", "--input", path])
        assert proc.returncode == 1

    # one case per document: (arguments, kind of document, a note on stderr)
    DOCUMENTS = {
        "preimage-progress": (["preimage", "--progress"], "json", '"k": 1'),
        "capacity-exact": (
            ["capacity", "--exact", "vertical:0.5"], "json", "relative error"
        ),
        "flow-csv-check": (["flow", "--check"], "csv", "slit stream spread"),
        "flow-json": (["flow", "--json"], "json", ""),
        "study": (["study"], "csv", ""),
    }

    @pytest.mark.parametrize("out", [[], ["--out", "-"]], ids=["no-out", "out-dash"])
    @pytest.mark.parametrize("case", DOCUMENTS)
    def test_stdout_is_one_document(self, tmp_path, case, out):
        argv, kind, note = self.DOCUMENTS[case]
        study = {"family": "two_vertical", "values": [0.5, 1.0]}
        flow = {"x": [-2.0, 2.0], "y": [-1.0, 1.0], "nx": 9, "ny": 5}
        path = write_problem(tmp_path, dict(SMALL, study=study, flow=flow))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        proc = run_cli([*argv, "--input", path, *out], cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        if kind == "json":
            assert isinstance(json.loads(proc.stdout), dict)
        else:
            header, *rows = proc.stdout.splitlines()
            assert rows and header.count(",") >= 2
            for row in rows:
                cells = row.split(",")
                assert len(cells) == header.count(",") + 1
                for cell in filter(None, cells):
                    float(cell)  # raises on anything but a number
        assert note in proc.stderr
        assert list(cwd.iterdir()) == []

    def test_study_failures_warned(self, tmp_path):
        # one warning per converged=0 row, in table order, with that row's
        # reason
        study = dict(family="random_horizontal", m=3, count=3, seed=4, box_height=0.5)
        path = write_problem(tmp_path, {"slits": SMALL["slits"], "study": study})
        # max_iter=2 makes every sample's miss certain: at eps=1e-14, on
        # n=64's rounding floor, 100 steps converge or not by luck
        proc = run_cli(
            ["study", "--input", path, "--n", "64", "--eps", "1e-14", "--max-iter", "2"]
        )
        assert proc.returncode == 0
        rows = [row.split(",") for row in proc.stdout.splitlines()[1:]]
        failed = [param for param, _, converged, *_ in rows if converged == "0"]
        warnings = proc.stderr.strip().splitlines()
        assert [w.split(": ")[:2] for w in warnings] == [
            ["warning", f"param {p}"] for p in failed
        ]
        cfg = IterationConfig(n=64, eps=1e-14, max_iter=2)
        table = capacity_study(study_samples(study, cfg))
        assert [w.split(": ", 2)[2] for w in warnings] == [
            point.error for point in table if not point.converged
        ]
        assert len(warnings) == 3 and "did not reach 1e-14" in warnings[1]

    @pytest.mark.parametrize("family", sorted(STUDY_FAMILIES))
    def test_study_family(self, tmp_path, family):
        # two valid samples of each family (KeyError for a new one)
        params = {
            "two_vertical": {"values": [0.5, 1.0]},
            "two_horizontal": {"values": [1.5, 2.0]},
            "vertical_shift": {"values": [0.0, 0.3]},
            "horizontal_shift": {"values": [0.0, 0.3]},
            "random_horizontal": {"count": 2, "m": 2, "seed": 1},
        }[family]
        study = {"family": family, **params}
        path = write_problem(tmp_path, dict(SMALL, study=study))
        proc = run_cli(["study", "--input", path, "--n", "32"])
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "param,cap,converged,iters,charge_h_dev"
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "study, flags, message",
        [
            ({"family": "random_horizontal", "m": 0}, [], "study.m"),
            ({"family": "random_horizontal", "m": -1}, [], "study.m"),
            ({"family": "random_horizontal", "count": -1}, [], "study.count"),
            ({"family": "random_horizontal", "box_height": -0.5}, [], "study.box_height"),
            (
                {"family": "random_horizontal", "box_height": float("nan")}, [],
                "study.box_height",
            ),
            (
                {"family": "random_horizontal", "box_height": float("inf")}, [],
                "study.box_height",
            ),
            (
                {"family": "two_vertical", "values": [0]}, [],
                "slits 0 and 1 are not disjoint",
            ),
            ({"family": "two_vertical", "value": [1.0]}, [], "'value'"),
            ({"family": "two_vertical"}, [], "'values'"),
            ({"family": "two_vertical", "values": [1.0], "count": 3}, [], "'count'"),
            ({"family": "random_horizontal", "cuont": 1}, [], "'cuont'"),
            ({"family": "two_vertical", "values": [1.0]}, ["--seed", "7"], "'seed'"),
            ({"family": "three_vertical", "values": [1.0]}, [], "study.family"),
            ({"values": [1.0]}, [], "study.family"),
        ],
        ids=[
            "m-0", "m-neg", "count-neg", "box-height-neg", "box-height-nan",
            "box-height-inf", "two-vertical-x0", "value", "no-values",
            "count-on-sweep", "cuont", "seed-on-sweep", "unknown-family", "no-family",
        ],
    )
    def test_bad_study_exit_1(
        self, tmp_path, monkeypatch, capsys, study, flags, message
    ):
        # one named error and no capacity solved
        capmod = importlib.import_module("stripcap.capacity")
        calls = []
        monkeypatch.setattr(capmod, "capacity", lambda *a: calls.append(a))
        path = write_problem(tmp_path, dict(SMALL, study=study))
        assert main(["study", "--input", path, *flags]) == 1
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_study_builds_every_sample_first(self, tmp_path, monkeypatch, capsys):
        # the last value makes the slits overlap: no sample is solved
        capmod = importlib.import_module("stripcap.capacity")
        calls = []
        monkeypatch.setattr(capmod, "capacity", lambda *a: calls.append(a))
        study = {"family": "two_horizontal", "values": [2.0, 3.0, 0.5]}
        path = write_problem(tmp_path, dict(SMALL, study=study))
        assert main(["study", "--input", path]) == 1
        assert calls == []
        assert "slits 0 and 1 are not disjoint" in capsys.readouterr().err

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
        "message, section",
        [
            pytest.param("n must be", {"numerics": {"n": 64.0}}, id="n-64.0"),
            pytest.param(
                "max_iter must be", {"numerics": {"max_iter": 0}}, id="max_iter-0"
            ),
            pytest.param("numerics must be", {"numerics": [1, 2]}, id="numerics-list"),
            pytest.param(
                "study.values must be",
                {"study": {"family": "two_vertical", "values": 5}},
                id="study-values-int",
            ),
            # with a family, so that the seed is the first entry checked
            pytest.param(
                "study.seed must be",
                {"study": {"family": "random_horizontal", "seed": [1]}},
                id="study-seed-list",
            ),
            pytest.param("flow must be", {"flow": [1, 2]}, id="flow-list"),
            # GridSpec's own message, which names its field
            pytest.param("nx must be", {"flow": {"nx": "ten"}}, id="flow-nx-string"),
            pytest.param("delta must be", {"delta": 5}, id="delta-int"),
            pytest.param(
                "slits[0] must be", {"slits": [{"a": 1, "b": [1, 0]}]}, id="slit-a-int"
            ),
            pytest.param(
                "slits[0] must be", {"slits": [{"a": [0, 1]}]}, id="slit-b-missing"
            ),
            # the GMRES settings are module constants, not problem-file keys
            pytest.param(
                "unknown numerics keys: ['solver_maxit']",
                {"numerics": {"solver_maxit": 400}},
                id="solver_maxit-removed",
            ),
            pytest.param(
                "unknown numerics keys: ['solver_tol']",
                {"numerics": {"solver_tol": 1e-12}},
                id="solver_tol-removed",
            ),
            pytest.param(
                "unknown top-level keys: ['delat']", {"delat": [2.0]}, id="delta-misspelt"
            ),
            pytest.param(
                "unknown flow keys: ['exlusion']",
                {"flow": {"exlusion": 0.3}},
                id="flow-exclusion-misspelt",
            ),
            pytest.param(
                "unknown slits[0] keys: ['delta']",
                {"slits": [{"a": [0, -0.5], "b": [0, 0.5], "delta": 2.0}]},
                id="slit-key-unknown",
            ),
        ],
    )
    def test_bad_numerics_exit_1(self, tmp_path, message, section):
        # a wrongly typed, shaped or unknown entry anywhere in the problem file
        path = write_problem(tmp_path, {**SMALL, **section})
        proc = run_cli(["capacity", "--input", path])
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {message}")
        assert len(proc.stderr.strip().splitlines()) == 1

    # one file per bad entry: (entries over SMALL, what its error names)
    BAD_ENTRIES = {
        "delta-length": ({"delta": [1.0, 2.0]}, "delta must hold one potential level per slit"),
        "delta-entry": ({"delta": ["one"]}, "delta[0] must be"),
        "nx-1": ({"flow": {"nx": 1}}, "nx must be an int >= 2"),
        "x-reversed": ({"flow": {"x": [6, -6]}}, "x_min 6.0 is not below x_max -6.0"),
        "bound-non-finite": ({"flow": {"y": [-1, float("inf")]}}, "y_max must be a finite"),
        "exclusion-negative": ({"flow": {"exclusion": -1}}, "flow.exclusion must be"),
        "study-family": (
            {"study": {"family": "three_vertical", "values": [1.0]}}, "study.family must be"
        ),
        "study-overlap": (
            {"study": {"family": "two_vertical", "values": [0]}}, "study sample 0: slits 0 and 1"
        ),
        "study-seed-list": (
            {"study": {"family": "random_horizontal", "seed": [1]}}, "study.seed must be"
        ),
        "slit-key": (
            {"slits": [{"a": [0, -0.5], "b": [0, 0.5], "delta": 2.0}]},
            "unknown slits[0] keys: ['delta']",
        ),
    }
    COMMANDS = {
        "preimage": ["preimage"],
        "capacity": ["capacity"],
        "flow": ["flow"],
        "study": ["study"],
        "emit-config": ["capacity", "--emit-config"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("case", BAD_ENTRIES)
    def test_every_command_rejects_a_bad_entry(self, tmp_path, monkeypatch, capsys, case, command):
        # the record built from each entry checks it when the file is read,
        # whatever the command, so nothing is solved or written
        def no_solve(*args, **kwargs):
            raise AssertionError("the preimage iteration ran")

        for module in ("stripcap.cli", "stripcap.capacity"):
            monkeypatch.setattr(importlib.import_module(module), "iterate", no_solve)
        entries, message = self.BAD_ENTRIES[case]
        path = write_problem(tmp_path, {**SMALL, **entries})
        assert main([*self.COMMANDS[command], "--input", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_flow_non_finite_bound_exit_1(self, tmp_path):
        # Python's json module writes and reads -Infinity
        payload = dict(SMALL, flow={"x": [float("-inf"), 3], "nx": 5, "ny": 5})
        path = write_problem(tmp_path, payload)
        assert "-Infinity" in Path(path).read_text()
        proc = run_cli(["flow", "--input", path, "--out", str(tmp_path / "f.csv")])
        assert proc.returncode == 1
        assert "grid bound x_min must be a finite number" in proc.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["--n", "abc"], "argument --n: invalid int value: 'abc'", id="n-abc"),
            pytest.param([], "the following arguments are required: --input", id="no-input"),
        ],
    )
    def test_usage_error_exit_1(self, tmp_path, argv, message):
        # argparse's own exit status 2 would read as non-convergence
        if argv:
            argv = ["--input", write_problem(tmp_path, SMALL), *argv]
        proc = run_cli(["capacity", *argv])
        assert proc.returncode == 1
        assert proc.stderr == f"error: stripcap capacity: {message}\n"

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
        assert "NaN" in Path(path).read_text()
        proc = run_cli(["capacity", "--input", path])
        assert proc.returncode == 1
        assert "slits[0] must be {'a': [x, y], 'b': [x, y]} with finite numbers" in proc.stderr

    def test_non_finite_delta_exit_1(self, tmp_path):
        payload = dict(SMALL, delta=[float("nan")])
        path = write_problem(tmp_path, payload)
        assert "NaN" in Path(path).read_text()
        proc = run_cli(["capacity", "--input", path])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: potential level delta[0] must be a finite number")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "cap =" not in proc.stderr

    def test_int_beyond_the_doubles_delta_exit_1(self, tmp_path):
        # json reads a 400-digit integer exactly; no double holds it
        path = write_problem(tmp_path, dict(SMALL, delta=[10**400]))
        proc = run_cli(["capacity", "--input", path])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: potential level delta[0] must be a finite number")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_kernel_too_large_exit_1(self, tmp_path):
        proc = run_cli(["preimage", "--input", write_problem(tmp_path, SMALL), "--n", "65536"])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: kernels for n=65536, m=1 need")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_main_callable_in_process(self, tmp_path, capsys):
        # main() is also the programmatic entry point
        path = write_problem(tmp_path, SMALL)
        code = main(["exact", "horizontal:0.5"])
        assert code == 0
        assert capsys.readouterr().out.strip() != ""
