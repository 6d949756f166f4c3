"""Pipeline benchmark for stripcap.

Runs one workload through stripcap's public API on the numpy backend and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``:

    python3 pipebench/run.py --workload cap4-n1024 --seed 1 --seconds 30 --trace 0
    python3 pipebench/run.py --smoke

With ``--trace 0`` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb, accuracy_digits); with ``--trace 1`` they are the per-layer
ones from a traced run.  ``--smoke`` runs every workload at small n in
both modes and checks that every metric named in BENCHMARK.json is present.

Each measurement runs in a fresh worker process (worker.py) with
STRIPCAP_BACKEND=numpy and no more BLAS threads than cores.  The machine,
library versions and every repetition are written to
pipebench/results/<workload>-seed<seed>-trace<0|1>.json.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 5  # extra set-up-only processes per untraced run
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["STRIPCAP_BACKEND"] = "numpy"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(mode, args, deadline):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--seconds", str(args.seconds),
    ]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args):
    """Run one workload; returns (result line, full record)."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(args.probes)]
    record = spawn("trace" if args.trace else "measure", args, deadline)
    setups.append(record["setup_s"])
    reps = record["reps"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in record["layers"].items()}
    else:
        errs = [r["max_rel_err"] for r in reps if math.isfinite(r["max_rel_err"])]
        # below one ulp the error is rounding, not a measurable loss
        digits = -math.log10(max(max(errs), 2.0**-52)) if errs else 0.0
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in reps), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
            "accuracy_digits": {"value": digits, "unit": "digits"},
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        seconds=args.seconds, size=args.size, setups=setups, result=result,
    )
    return result, record


def report(record):
    """Human-readable lines ahead of the result line."""
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    for i, rep in enumerate(record["reps"]):
        print(f"rep {i}: {rep['wall_s']:.3f} s, {rep['attempted']} attempted, "
              f"{rep['failed']} failed, max rel err {rep['max_rel_err']:.2e}; {rep['note']}")
    if record["trace"]:
        layers = record["layers"]
        self_s = {k: layers[k][0] for k in record["self_metrics"]}
        wall = layers["trace.wall_s"][0]
        print(f"layer split of the traced wall time {wall:.3f} s (self times):")
        for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {name:32s} {value:9.3f} s  {100 * value / wall:5.1f} %")
        rem = layers["trace.remainder_s"][0]
        print(f"  {'trace.remainder_s':32s} {rem:9.3f} s  {100 * rem / wall:5.1f} %")
        print(f"tracing overhead {layers['trace.overhead_s'][0]:+.3f} s "
              f"(untraced {layers['trace.untraced_wall_s'][0]:.3f} s)")
        print(f"warnings: {layers['warnings'][0]:.0f}, first: {record['first_warning']}")
        for name, why in sorted(record["missing"].items()):
            print(f"missing metric {name}: {why}")


def smoke(args):
    """Every workload, small n, traced and untraced; every metric present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run = argparse.Namespace(
                workload=workload, seed=args.seed, seconds=0.0,
                trace=trace, size="smoke", probes=1,
            )
            result, record = run_workload(run)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            absent = sorted(set(want) - set(got))
            wrong = sorted(k for k in want if k in got and got[k] != want[k])
            good = result["correct"] and not absent and not wrong
            ok = ok and good
            print(f"{workload} trace={trace}: "
                  f"{'ok' if good else 'FAIL'}, {result['attempted']} attempted, "
                  f"{result['failed']} failed"
                  + (f", missing {absent}" if absent else "")
                  + (f", unit differs for {wrong}" if wrong else "")
                  + "".join(f"; {n}: {w}" for n, w in record.get("missing", {}).items()))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        if not (ROOT / "src" / "stripcap" / "__init__.py").is_file():
            raise BenchError(f"no stripcap sources under {ROOT / 'src'}")
        if args.smoke:
            return smoke(args)
        if not args.workload:
            ap.error("--workload is required")
        args.size, args.probes = "full", SETUP_PROBES
        result, record = run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
