"""Benchmark entry point for collabsc.

Run from the repository root:

    python3 perfbench/run.py --workload dense-k5 --seed 1 --seconds 35 --trace 0

The workload's input files, several sets of them, are generated from
``--seed`` into a scratch directory under the repository root and removed on
exit. With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics. Standard output holds a table of every metric with its unit, a ``# detail`` JSON line (the
environment, sample counts, tail percentiles, train-log sha256) and, as the
last line, the result JSON. The exit code is 0 when the run completed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
# one BLAS thread: all load comes from this one process, and the figures do
# not depend on how many cores the host lends to BLAS
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS")


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in BLAS_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)


# glibc's largest dynamic mmap threshold (DEFAULT_MMAP_THRESHOLD_MAX on 64-bit)
# and the trim threshold it pairs with it
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def pin_allocator() -> bool:
    """Fix glibc malloc's mmap and trim thresholds at the values its dynamic
    rule reaches at most. With the dynamic rule a process lands, by chance,
    in one of two states that it keeps: large temporaries reused from the
    heap, or mapped and page-faulted afresh (2x the warm-start time on
    conv-28). Pinned, every run is in the first state."""
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    try:
        libc = ctypes.CDLL("libc.so.6")
        return bool(libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                    and libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))
    except (OSError, AttributeError):
        return False  # not glibc


def add_program_to_path() -> None:
    src = ROOT / "src"
    if not (src / "collabsc" / "__init__.py").is_file():
        raise SystemExit(f"error: no collabsc package under {src}; run from a checkout")
    sys.path.insert(0, str(src))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(malloc_pinned: bool) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "malloc_pinned": malloc_pinned,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workload_names))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    malloc_pinned = pin_allocator()
    pin_blas_threads()
    add_program_to_path()
    import bench
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    workdir = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    m = bench.Measurement()
    try:
        input_sets = []
        for i, sub_seed in enumerate(workload.sub_seeds(args.seed)):
            (workdir / f"set{i}").mkdir()
            input_sets.append(workload.write_inputs(sub_seed, workdir / f"set{i}"))
        try:
            bench.measure(workload, input_sets, args.seconds, trace, m)
            res = bench.result(m, trace)
        except Exception:  # the program failed: report it, print no metrics
            traceback.print_exc()
            m.failed += 1
            res = {"correct": False, "attempted": max(m.attempted, 1), "failed": m.failed,
                   "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it

    print(f"# perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, entry in res["metrics"].items():
        print(f"{name:40s} {entry['value']:>18.6f} {entry['unit']}")
    for problem in m.problems:
        print(f"# FAILED CHECK: {problem}")
    info = bench.detail(m) if res["metrics"] else {"problems": m.problems}
    print("# detail " + json.dumps({"environment": environment(malloc_pinned), **info},
                                   sort_keys=True))
    print(json.dumps(res))
    return 0 if res["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
