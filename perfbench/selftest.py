"""Sub-second self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Runs untraced and traced rounds of two toy workloads (CSV input with dense
layers, IDX input with a conv layer) and checks that the result lines keep
their schema: the four keys, every metric of BENCHMARK.json in order with
its unit, finite values, names made of ``[A-Za-z0-9_.-]``, and units and
better-directions that agree with the benchmark's own tables. It also checks
that the tracer left no wrapper behind. No timing is gated.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import sys
import time

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_manifest(spec: dict, bench, workloads) -> list[str]:
    errors = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != expected:
        errors.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(expected)}")
    for p in spec["paths"]:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            errors.append(f"bad path {p!r}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        errors.append(f"run_seconds {spec['run_seconds']!r} outside 1..60")
    if [w["name"] for w in spec["workloads"]] != list(workloads):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            errors.append(f"workload entry {w} malformed")
    names = []
    for section, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        rows = spec[section]
        keys = {"name", "unit", "better"} | ({"bound"} if section == "end_to_end" else set())
        if [(r["name"], r["unit"], r["better"]) for r in rows] != list(table):
            errors.append(f"{section} in BENCHMARK.json differs from bench.py's table")
        for r in rows:
            names.append(r["name"])
            if set(r) != keys:
                errors.append(f"{section} entry {r} has keys {sorted(r)}")
            if not NAME.match(r["name"]):
                errors.append(f"metric name {r['name']!r} uses characters outside [A-Za-z0-9_.-]")
            if not UNIT.match(r["unit"]):
                errors.append(f"unit {r['unit']!r} of {r['name']} is malformed")
            if r["better"] not in ("lower", "higher"):
                errors.append(f"better {r['better']!r} of {r['name']} is neither lower nor higher")
            if "bound" in r and not 0 < r["bound"] <= 0.25:
                errors.append(f"bound {r['bound']} of {r['name']} outside (0, 0.25]")
    if len(names) != len(set(names)):
        errors.append("a metric name is used twice")
    setup = [r for r in spec["end_to_end"] if r["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        errors.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] != max(r["bound"] for r in spec["end_to_end"]):
        errors.append("setup_s must carry the largest bound")
    return errors


def check_result(res: dict, rows: list[dict], label: str) -> list[str]:
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{label}: result keys {sorted(res)}"]
    if res["correct"] is not True:
        errors.append(f"{label}: correct is {res['correct']!r}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        errors.append(f"{label}: attempted {res['attempted']!r}")
    if res["failed"] != 0:
        errors.append(f"{label}: failed {res['failed']!r}")
    if list(res["metrics"]) != [r["name"] for r in rows]:
        errors.append(f"{label}: metric names differ from BENCHMARK.json")
    for r in rows:
        entry = res["metrics"].get(r["name"], {})
        if set(entry) != {"value", "unit"} or entry["unit"] != r["unit"]:
            errors.append(f"{label}: {r['name']} entry {entry}")
        elif not (isinstance(entry["value"], float) and math.isfinite(entry["value"])):
            errors.append(f"{label}: {r['name']} value {entry['value']!r} is not a finite float")
    json.dumps(res, allow_nan=False)
    return errors


def leftover_wrappers() -> list[str]:
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "collabsc" or mod_name.startswith("collabsc."):
            for attr, value in vars(mod).items():
                holders = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
                if any(callable(h) and getattr(h, "__module__", None) == "spans"
                       for h in holders):
                    found.append(f"{mod_name}.{attr}")
    return found


def main() -> int:
    start = time.perf_counter()
    run.pin_blas_threads()
    run.add_program_to_path()
    import bench
    from collabsc.network import LayerSpec, NetworkConfig
    from workloads import WORKLOADS, Workload

    bench.MIN_SAMPLE_S = 0.0  # one call per sample: no timing is gated here
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = check_manifest(spec, bench, WORKLOADS)
    toys = (
        Workload(name="toy-dense", why="", spec=dict(k=2, d=2, D=8, n_per=10, concentration=4.0),
                 network=NetworkConfig(encoder=(LayerSpec("dense", 4),),
                                       classifier_head=(LayerSpec("dense", 4),),
                                       num_clusters=2, intrinsic_dim_guess=2),
                 train=dict(batch_size=10, epochs=2, pretrain_epochs=2, inner_se_steps=2,
                            warm_start_classifier=False),
                 input_sets=1),
        Workload(name="toy-conv", why="", spec=dict(k=2, d=2, D=64, n_per=10, concentration=4.0),
                 network=NetworkConfig(encoder=(LayerSpec("conv", 2, kernel_size=3, stride=2),),
                                       classifier_head=(LayerSpec("dense", 4),),
                                       num_clusters=2, intrinsic_dim_guess=2),
                 train=dict(batch_size=10, epochs=2, pretrain_epochs=2, inner_se_steps=2,
                            warm_start_classifier=False),
                 input_sets=1, image_side=8),
    )
    workdir = run.WORK_ROOT / f"selftest-{os.getpid()}"
    try:
        for toy in toys:
            (workdir / toy.name).mkdir(parents=True)
            sets = [toy.write_inputs(7, workdir / toy.name)]
            m = bench.Measurement()
            bench.measure(toy, sets, 0.0, False, m)
            bench.measure(toy, sets, 0.0, True, m)
            errors += [f"{toy.name}: check failed: {p}" for p in m.problems]
            if len(set(m.train_log_sha256[0].values())) != 1 or len(m.train_log_sha256[0]) != 2:
                errors.append(f"{toy.name}: traced and untraced train logs differ")
            errors += check_result(bench.result(m, False), spec["end_to_end"], toy.name)
            errors += check_result(bench.result(m, True), spec["per_layer"], toy.name + " traced")
            errors += [f"tracer left a wrapper on {w}" for w in leftover_wrappers()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass
    for e in errors:
        print(f"FAIL {e}")
    print(f"selftest {'failed' if errors else 'passed'} in {time.perf_counter() - start:.2f} s")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
