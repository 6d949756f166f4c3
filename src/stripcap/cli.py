"""Command-line front end.

Subcommands: ``preimage``, ``capacity``, ``flow``, ``exact``, ``study``.
Problem files are JSON; see README for the schema.  Exit codes: 0 success,
1 input/geometry error, 2 numerical non-convergence.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .capacity import (
    CondenserSpec,
    capacity,
    capacity_study,
    exact_cap_horizontal,
    exact_cap_vertical,
    study_samples,
)
from .errors import ConvergenceError, StripcapError
from .flow import GridSpec, horizontal_slit_map, stream_grid
from .geometry import HALF_PI, StripSlitDomain
from .preimage import IterationConfig, iterate


# the shape of every known entry of a problem file, sections first; the
# checks are on the types json.load gives
OBJECT = (lambda x: isinstance(x, dict), "an object")
INTEGER = (lambda x: type(x) is int, "an integer")
NUMBER = (lambda x: type(x) in (int, float), "a number")
NUMBERS = (lambda x: isinstance(x, list) and all(map(NUMBER[0], x)), "a list of numbers")
PAIR = (lambda x: NUMBERS[0](x) and len(x) == 2, "a pair of numbers")
SHAPES = {
    **dict.fromkeys(["numerics", "study", "flow"], OBJECT),
    "delta": NUMBERS,
    "study.family": (lambda x: isinstance(x, str), "a string"),
    "study.values": NUMBERS,
    **dict.fromkeys(["study.count", "study.m", "study.seed"], INTEGER),
    **dict.fromkeys(["flow.nx", "flow.ny"], INTEGER),
    **dict.fromkeys(["study.box_height", "flow.exclusion"], NUMBER),
    **dict.fromkeys(["flow.x", "flow.y"], PAIR),
}


@dataclass
class ProblemFile:
    """Parsed problem description."""

    domain: StripSlitDomain
    delta: list = None
    numerics: dict = field(default_factory=dict)
    study: dict = None
    flow: dict = None

    @classmethod
    def parse(cls, data):
        """Check the shape of every section, then build the domain."""
        slits = data.get("slits") if isinstance(data, dict) else None
        if not isinstance(slits, list) or not slits:
            raise ValueError("problem file needs a non-empty 'slits' list")
        domain = StripSlitDomain.from_dict(data)
        for path, (valid, shape) in SHAPES.items():
            *outer, key = path.split(".")
            where = data.get(outer[0], {}) if outer else data
            if key in where and not valid(where[key]):
                raise ValueError(f"{path} must be {shape}, got {where[key]!r}")
        numerics = dict(data.get("numerics", {}))
        unknown = set(numerics) - {f.name for f in fields(IterationConfig)}
        if unknown:
            raise ValueError(f"unknown numerics keys: {sorted(unknown)}")
        return cls(
            domain=domain,
            delta=data.get("delta"),
            numerics=numerics,
            study=data.get("study"),
            flow=data.get("flow"),
        )

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.parse(json.load(fh))

    def config(self, overrides=None):
        """IterationConfig defaults, then the file, then non-None overrides."""
        given = {k: v for k, v in (overrides or {}).items() if v is not None}
        return IterationConfig(**{**self.numerics, **given})


def _write(path, text):
    """A command's document to the file ``path``, or to stdout for None or '-'."""
    if path in (None, "-"):
        print(text, end="")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _note(text):
    """Progress records, notes, diagnostics and warnings: stderr."""
    print(text, file=sys.stderr)


def _json(payload):
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _complex_pairs(arr):
    """[re, im] per entry; null for a non-finite one (the strip's ends)."""
    values = np.asarray(arr).reshape(-1)
    return [[z.real, z.imag] if np.isfinite(z) else None for z in values]


def _run_record(pre):
    """How the preimage iteration behind a document converged."""
    return {
        "converged": pre.converged,
        "iterations": pre.iterations,
        "error_history": pre.error_history,
        "gmres_history": pre.gmres_history,
        "levels": [asdict(level) for level in pre.levels],
        "h_dev": pre.map.solution.h_dev.tolist(),
        "numerics": asdict(pre.cfg),
    }


def cmd_preimage(args, problem, cfg):
    lines = (lambda rec: _note(json.dumps(rec, sort_keys=True))) if args.progress else None
    result = iterate(problem.domain, cfg, progress=lines)
    payload = {
        **_run_record(result),
        "ellipses": [
            {"z": [p.z.real, p.z.imag], "a": p.a, "theta": p.theta, "r": p.r}
            for p in result.params
        ],
        "boundary": {
            "eta": [_complex_pairs(row) for row in result.map.bp.eta],
            "zeta": [_complex_pairs(row) for row in result.map.zeta],
        },
    }
    _write(args.out, _json(payload))
    return 0 if result.converged else 2


def _parse_exact(text):
    try:
        kind, raw = text.split(":", 1)
        s = float(raw)
    except ValueError:
        raise ValueError(f"expected KIND:S (e.g. vertical:0.5), got {text!r}")
    if kind == "vertical":
        return exact_cap_vertical(s)
    if kind == "horizontal":
        return exact_cap_horizontal(s)
    raise ValueError(f"unknown exact-formula kind {kind!r}")


def cmd_capacity(args, problem, cfg):
    spec = CondenserSpec(problem.domain, problem.delta)
    if problem.delta is None:
        _note(f"# delta not given; defaulting to all ones (m={problem.domain.m})")
    res = capacity(spec, cfg)
    _note(f"cap = {res.cap:.15g}")
    payload = {
        **_run_record(res.preimage),
        "cap": res.cap,
        "a": list(res.a),
        "c": res.c,
        "delta": list(spec.delta),
    }
    if args.exact:
        ref = _parse_exact(args.exact)
        rel = abs(res.cap - ref) / abs(ref)
        _note(f"exact = {ref:.15g}")
        _note(f"relative error = {rel:.3e}")
        payload["exact"] = ref
        payload["relative_error"] = rel
    _write(args.out, _json(payload))
    return 0


def cmd_flow(args, problem, cfg):
    spec = problem.flow or {}
    x_min, x_max = spec.get("x", [-6.0, 6.0])
    y_min, y_max = spec.get("y", [-1.5, 1.5])
    grid = GridSpec(x_min, x_max, y_min, y_max, spec.get("nx", 200), spec.get("ny", 100))
    # stream_grid owns the default exclusion distance
    options = {"exclusion": spec["exclusion"]} if "exclusion" in spec else {}
    pre = iterate(problem.domain, cfg)
    upsilon = horizontal_slit_map(pre)
    out_field = stream_grid(pre, upsilon, grid, **options)
    psi = [
        [None if math.isnan(v) else v for v in row]
        for row in out_field.psi_values.tolist()
    ]
    if args.json:
        text = _json({
            **_run_record(pre),
            "grid": {
                "x": [grid.x_min, grid.x_max, grid.nx],
                "y": [grid.y_min, grid.y_max, grid.ny],
            },
            "psi": psi,
            "mask": out_field.mask.astype(int).tolist(),
            "slit_levels": out_field.slit_levels.tolist(),
            "failures": out_field.failures,
        })
    else:
        xs, ys = (axis.tolist() for axis in grid.axes())
        rows = [
            f"{x!r},{y!r},{'' if v is None else repr(v)}\n"
            for y, row in zip(ys, psi)
            for x, v in zip(xs, row)
        ]
        text = "".join(["x,y,psi\n", *rows])
    if args.check:
        spread = np.ptp(upsilon.zeta[1:].imag, axis=1).max()
        finite = np.isfinite(upsilon.zeta[0])
        wall = np.abs(np.abs(upsilon.zeta[0].imag[finite]) - HALF_PI).max()
        _note(f"slit stream spread: max {spread:.3e}")
        _note(f"wall deviation from +-pi/2: {wall:.3e}")
        _note(f"masked failures: {out_field.failures}")
    _write(args.out, text)
    return 0


def cmd_exact(args):
    _write(None, f"{_parse_exact(args.formula):.15g}\n")
    return 0


def cmd_study(args, problem, cfg):
    study = dict(problem.study or {})
    if args.seed is not None:
        study["seed"] = args.seed
    table = capacity_study(study_samples(study, cfg))
    for p in table:
        if not p.converged:
            _note(f"warning: param {p.param!r}: {p.error}")
    rows = [f"{p.param!r},{p.cap!r},{int(p.converged)},{p.iters}\n" for p in table]
    _write(args.out, "".join(["param,cap,converged,iters\n", *rows]))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stripcap",
        description="Conformal maps of slit strips, condenser capacities, potential flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="problem JSON file")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--n", type=int, help="nodes per boundary component")
        p.add_argument("--r", type=float, help="ellipse aspect ratio")
        p.add_argument("--eps", type=float, help="outer stopping tolerance")
        p.add_argument("--max-iter", type=int, dest="max_iter")
        p.add_argument(
            "--emit-config",
            action="store_true",
            help="write fully-resolved numerics and exit",
        )

    p = sub.add_parser("preimage", help="compute the smooth preimage domain")
    common(p)
    p.add_argument("--progress", action="store_true", help="JSON line per iteration")
    p.set_defaults(func=cmd_preimage)

    p = sub.add_parser("capacity", help="compute the condenser capacity")
    common(p)
    p.add_argument("--exact", help="reference value, e.g. vertical:0.5")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("flow", help="sample the uniform-flow stream function")
    common(p)
    p.add_argument("--json", action="store_true", help="JSON output instead of CSV")
    p.add_argument("--check", action="store_true", help="print flow diagnostics")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("exact", help="evaluate an exact capacity formula")
    p.add_argument("formula", help="vertical:S or horizontal:S")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("study", help="run a capacity parameter sweep")
    common(p)
    p.add_argument("--seed", type=int, help="RNG seed for random families")
    p.set_defaults(func=cmd_study)
    return parser


def run(args):
    """Load the problem and resolve its numerics, then run the subcommand."""
    if args.command == "exact":
        return cmd_exact(args)
    problem = ProblemFile.load(args.input)
    overrides = {k: getattr(args, k) for k in ("n", "r", "eps", "max_iter")}
    cfg = problem.config(overrides)
    if args.emit_config:
        _write(args.out, json.dumps(asdict(cfg), sort_keys=True) + "\n")
        return 0
    return args.func(args, problem, cfg)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ConvergenceError as exc:
        _note(f"error: {exc}")
        return 2
    except (StripcapError, ValueError, OSError, json.JSONDecodeError) as exc:
        _note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
