"""lumamark benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload roundtrip_512 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25
    python3 bench/run.py --smoke

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. ``--workload all`` runs
each workload in its own process and prints a table of all of them.
``--smoke`` is the benchmark's self-test. See bench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> dict:
    """Cap the BLAS and OpenMP pools at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        try:
            value = min(int(os.environ.get(var, nproc)), nproc)
        except ValueError:
            value = nproc
        os.environ[var] = str(max(value, 1))
        caps[var] = int(os.environ[var])
    return caps


def import_library():
    """Import lumamark from this checkout's src/; exit with an error when it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import lumamark
    except ImportError as exc:
        sys.exit(f"error: cannot import lumamark from {src}: {exc}")
    if src not in Path(lumamark.__file__).resolve().parents:
        sys.exit(f"error: lumamark was imported from {lumamark.__file__}, not from {src}")


def fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args, thread_caps) -> int:
    import runner

    metrics, detail = runner.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    detail["environment"] = runner.environment(ROOT, args.seed, thread_caps)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {fmt(value):>14s} {unit}")
    print(f"  {'fail_frac':45s} {fmt(detail['fail_frac']):>14s} ratio"
          f" ({detail['failed']}/{detail['attempted']})")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    rows = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        rows[name] = json.loads(lines[-1])
        rows[name]["fail_frac"] = rows[name]["failed"] / rows[name]["attempted"]
        detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[7:])
        rows[name]["digest_sha256"] = detail["digest_sha256"]
        if "op_ms_tail_percentile" in detail:
            rows[name]["tail"] = (detail["op_ms_tail_percentile"], detail["op_ms_tail_samples_above"])
    for name, row in rows.items():
        print(f"{name}  correct={row['correct']}  digest={row['digest_sha256'][:16]}")
        for metric, m in row["metrics"].items():
            print(f"  {metric:45s} {fmt(m['value']):>14s} {m['unit']}")
        print(f"  {'fail_frac':45s} {fmt(row['fail_frac']):>14s} ratio ({row['failed']}/{row['attempted']})")
        if "tail" in row:
            print(f"  op_ms_tail is p{row['tail'][0]:.1f}, with {row['tail'][1]} samples above it")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="a workload name from BENCHMARK.json, or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run the benchmark's self-test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    thread_caps = cap_threads()
    import_library()
    import workloads

    if args.workload not in workloads.NAMES + ("all", None):
        sys.exit(f"error: unknown workload {args.workload!r}; pick from {workloads.NAMES} or all")
    if args.smoke:
        import smoke

        return smoke.main(ROOT)
    if args.workload == "all":
        return run_all(args, workloads.NAMES)
    return run_one(args, thread_caps)


if __name__ == "__main__":
    sys.exit(main())
