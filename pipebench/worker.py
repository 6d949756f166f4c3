"""One benchmark process: set up a workload, run it, print one JSON line.

run.py starts this in a fresh interpreter, so that set-up time and peak
memory belong to one workload alone.  Modes:

  setup    import and build the inputs, report the set-up time, exit
  measure  run the workload untraced, repeating until --seconds have passed
           (at least once)
  trace    run it once untraced, then once under the per-layer trace
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(np, scipy, stripcap):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "backend": stripcap.BACKEND,
    }


def timed(execute, inputs):
    t0 = time.perf_counter()
    verdict = execute(inputs)
    return {"wall_s": time.perf_counter() - t0, **asdict(verdict)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before the start")
    args = ap.parse_args()

    import numpy as np
    import scipy
    import stripcap

    src = (ROOT / "src").resolve()
    if src not in Path(stripcap.__file__).resolve().parents:
        sys.exit(f"stripcap was imported from {stripcap.__file__}, not from {src}")
    if stripcap.BACKEND != "numpy":
        sys.exit(f"refusing to record timings: stripcap.BACKEND is {stripcap.BACKEND!r}, not 'numpy'")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    inputs, execute = workloads.prepare(args.workload, args.seed, args.size)
    out = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    out["machine"] = machine(np, scipy, stripcap)
    reps = out["reps"] = []
    if args.mode == "measure":
        start = time.perf_counter()
        while True:
            reps.append(timed(execute, inputs))
            if time.perf_counter() - start >= args.seconds:
                break
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import layers

        reps.append(timed(execute, inputs))
        tracer = layers.Tracer()
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")  # count every occurrence
                reps.append(timed(execute, inputs))
        finally:
            tracer.uninstall()
        untraced, traced = reps[0]["wall_s"], reps[1]["wall_s"]
        values, missing = tracer.metrics(traced, workloads.UNREACHED[args.workload])
        values.update({
            "warnings": (len(caught), "count"),
            "trace.wall_s": (traced, "s"),
            "trace.untraced_wall_s": (untraced, "s"),
            "trace.overhead_s": (traced - untraced, "s"),
        })
        out["layers"] = values
        out["missing"] = missing
        out["self_metrics"] = [m for m in layers.SELF_METRIC.values() if m in values]
        out["first_warning"] = (
            f"{caught[0].filename}:{caught[0].lineno}: {caught[0].category.__name__}: "
            f"{caught[0].message}" if caught else None
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
