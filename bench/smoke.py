"""The benchmark's self-test: ``python3 bench/run.py --smoke``.

For every workload it makes one short untraced and one short traced run in
this process, with a single set-up, and checks that:

- each run emits exactly the metrics BENCHMARK.json names for its mode,
  each with its unit and a finite value;
- a deliberately corrupted copy of one op's outputs (one bit of the
  extracted watermark flipped) is counted as a failed op, and nothing else
  fails;
- the traced run restores every wrapped attribute to its original object
  and gives the same output digest as the untraced run.
"""

import json
import math
import sys

import runner
import workloads

SEED = 7


def _package_attrs():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "lumamark" or name.startswith("lumamark."))
        for attr, value in vars(mod).items()
    }


def _check_metrics(metrics, spec, where, failures):
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        failures.append(f"{where}: metrics {sorted(got.items())} != {sorted(want.items())}")
    for name, (value, _) in metrics.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            failures.append(f"{where}: {name} = {value!r} is not a finite number")


def main(root) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    failures = []
    if runner.tail_latency([float(v) for v in range(1, 101)]) != (90.0, 90.0, 10):
        failures.append("tail_latency does not pick p90 of 100 samples")
    before = _package_attrs()
    for name in workloads.NAMES:
        e2e, plain = runner.run_workload(name, SEED, 1.0, False, root, setup_reps=1, inject_corrupt=True)
        layers, traced = runner.run_workload(name, SEED, 1.0, True, root, setup_reps=1)
        _check_metrics(e2e, spec["end_to_end"], f"{name} trace=0", failures)
        _check_metrics(layers, spec["per_layer"], f"{name} trace=1", failures)
        if plain["failed"] != 1 or not plain["fail_frac"] > 0:
            failures.append(f"{name}: corrupted output gave failed={plain['failed']}, expected 1")
        if traced["failed"] != 0 or not traced["correct"]:
            failures.append(f"{name}: traced run failed: {traced['problems']}")
        if not traced["restored"]:
            failures.append(f"{name}: traced run left wrappers in place")
        if plain["digest_sha256"] != traced["digest_sha256"]:
            failures.append(f"{name}: traced digest differs from the untraced digest")
        after = _package_attrs()
        changed = [key for key, value in after.items() if before.get(key) is not value]
        if changed:
            failures.append(f"{name}: attributes not restored after tracing: {changed}")
        print(
            f"smoke {name}: attempted={plain['attempted']} failed={plain['failed']} (1 injected), "
            f"digest={plain['digest_sha256'][:16]}, traced digest={traced['digest_sha256'][:16]}, "
            f"wrapped sites={traced['wrapped_sites']}"
        )
    for failure in failures:
        print(f"smoke FAIL: {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0
