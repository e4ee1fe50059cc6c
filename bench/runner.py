"""Run one workload as a closed loop with one client and compute its metrics.

A run has three phases:

1. Set-up, repeated ``setup_reps`` times: the workload's ``setup()`` and
   its ``warmup_ops`` warm-up ops. ``setup_s`` is the median set-up time.
   The warm-up outputs give the run's digest, which must be the same on
   every repetition.
2. The timed loop: one op at a time until ``seconds`` have passed. Each
   op's wall and process CPU time are taken around ``op()`` alone; inputs are
   made and outputs checked outside that window.
3. Metrics. With tracing off, the end-to-end metrics. With tracing on, odd
   timed ops run traced and even ones untraced, and the per-layer metrics
   come from the traced ops' spans, normalised per traced op.
"""

import hashlib
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from lumamark import selection
from tracer import DATA, NAME, PARENT, Tracer, self_times_ns
import workloads

def tail_latency(lat_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above) at the highest percentile that has
    at least ten samples above it. With 20 samples or fewer that percentile
    would fall below the median, so the middle sample (the upper of the two
    middle ones when n is even) is reported instead: never below the median."""
    ordered = sorted(lat_ms)
    n = len(ordered)
    k = max(n - 10, n // 2 + 1)  # 1-based rank of the reported sample
    return ordered[k - 1], 100.0 * k / n, n - k


def _blas_versions() -> dict:
    out = {}
    for mod in (np, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[mod.__name__] = f"{blas.get('name')} {blas.get('version')}"
        except Exception as exc:  # version record only; never fails a run
            out[mod.__name__] = f"unknown ({type(exc).__name__})"
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, seed: int, thread_caps: dict) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_versions(),
        "thread_caps": thread_caps,
        "git_commit": _git_commit(root),
        "seed": seed,
        "load": "closed loop, 1 client, 1 process",
    }


class Counter:
    """Attempted and failed op counts, plus the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problems)


def _checked(wl, inp, out, error, counter, corrupt=False):
    """Collect and check one op's outputs; return the collected outputs, or
    None when the op or the check raised."""
    if error is not None:
        counter.record([error])
        return None
    try:
        col = wl.collect(inp, out)
        if corrupt:
            col = wl.corrupt(col)
        counter.record(wl.check(inp, col))
        return col
    except Exception:
        counter.record([traceback.format_exc(limit=3)])
        return None


def _run_op(wl, inp):
    try:
        return wl.op(inp), None
    except Exception:
        return None, traceback.format_exc(limit=3)


def run_workload(name, seed, seconds, trace, root: Path, setup_reps=None, inject_corrupt=False):
    """Run one workload; return (metrics, detail). ``setup_reps`` defaults to
    the workload's own. ``inject_corrupt`` feeds the checker one extra,
    deliberately corrupted copy of the first timed op's outputs, which must be
    counted as a failed op."""
    entered = time.perf_counter()
    wl = workloads.make(name, root / ".bench_work")
    setup_reps = setup_reps or wl.setup_reps
    tracer = Tracer() if trace else None
    counter = Counter()
    setup_s, digests, corpus_ms = [], [], []
    try:
        if tracer:
            tracer.install()
        for _ in range(setup_reps):
            t0 = time.perf_counter()
            wl.setup()
            digest = hashlib.sha256()
            for i in range(wl.warmup_ops):
                inp = wl.make_input(seed, i)
                out, error = _run_op(wl, inp)
                col = _checked(wl, inp, out, error, counter)
                for chunk in wl.output_bytes(col) if col is not None else [b"failed"]:
                    digest.update(len(chunk).to_bytes(8, "little"))
                    digest.update(chunk)
            setup_s.append(time.perf_counter() - t0)
            digests.append(digest.hexdigest())
            if tracer:
                spans = tracer.spans
                self_ns = self_times_ns(spans)
                corpus_ms.append(
                    sum(ns for s, ns in zip(spans, self_ns) if s[NAME] == "testimages.corpus_image") / 1e6
                )
                spans.clear()
        if tracer:
            tracer.uninstall()

        lat, cpu, traced_lat = [], [], []
        i = wl.warmup_ops
        start = time.perf_counter()
        to_first_op = start - entered
        while time.perf_counter() - start < seconds or not lat or (trace and not traced_lat):
            inp = wl.make_input(seed, i)
            traced = trace and (i - wl.warmup_ops) % 2 == 1
            if traced:
                tracer.op = i
                tracer.install()
            c0 = time.process_time()
            t0 = time.perf_counter()
            out, error = _run_op(wl, inp)
            t1 = time.perf_counter()
            c1 = time.process_time()
            if traced:
                tracer.uninstall()
                traced_lat.append((t1 - t0) * 1e3)
            else:
                lat.append((t1 - t0) * 1e3)
                cpu.append((c1 - c0) * 1e3)
            if inject_corrupt and i == wl.warmup_ops:
                _checked(wl, inp, out, error, counter, corrupt=True)
            _checked(wl, inp, out, error, counter)
            i += 1
    finally:
        if tracer:
            tracer.uninstall()
        wl.teardown()

    restored = tracer.restored() if tracer else True
    consistent = len(set(digests)) == 1
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": counter.failed == 0 and consistent and restored,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "fail_frac": counter.failed / counter.attempted,
        "problems": counter.problems,
        "digest_sha256": digests[0],
        "digest_covers": f"outputs of ops 0..{wl.warmup_ops - 1} (the warm-up ops)",
        "digest_same_every_setup": consistent,
        "setup_reps_s": setup_s,
        "to_first_timed_op_s": to_first_op,
        "warmup_ops_per_setup": wl.warmup_ops,
    }
    if not trace:
        tail, pct, above = tail_latency(lat)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "ops_per_s": (len(lat) / (sum(lat) / 1e3), "1/s"),
            "op_ms_p50": (statistics.median(lat), "ms"),
            "op_ms_tail": (tail, "ms"),
            "cpu_ms_per_op": (sum(cpu) / len(cpu), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        detail.update(
            timed_ops=len(lat),
            op_ms_tail_percentile=pct,
            op_ms_tail_samples_above=above,
        )
    else:
        metrics = layer_metrics(tracer.spans, len(traced_lat))
        overhead = statistics.median(traced_lat) / statistics.median(lat) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        metrics["testimages.corpus_image.setup_ms"] = (statistics.median(corpus_ms), "ms")
        detail.update(
            traced_ops=len(traced_lat),
            untraced_ops=len(lat),
            traced_op_ms_p50=statistics.median(traced_lat),
            untraced_op_ms_p50=statistics.median(lat),
            restored=restored,
            wrapped_sites=tracer.site_count(),
            note="mpix and bytes are computed from call arguments and results, not measured memory traffic",
        )
    return metrics, detail


# (metric, function, field) for every per-layer metric taken from spans.
LAYER_METRICS = [
    ("colorspace.rgb_to_ycbcr.calls", "colorspace.rgb_to_ycbcr", "calls"),
    ("colorspace.rgb_to_ycbcr.self_ms", "colorspace.rgb_to_ycbcr", "self_ms"),
    ("colorspace.rgb_to_ycbcr.mpix", "colorspace.rgb_to_ycbcr", "data"),
    ("colorspace.ycbcr_to_rgb.calls", "colorspace.ycbcr_to_rgb", "calls"),
    ("colorspace.ycbcr_to_rgb.self_ms", "colorspace.ycbcr_to_rgb", "self_ms"),
    ("colorspace.ycbcr_to_rgb.mpix", "colorspace.ycbcr_to_rgb", "data"),
    ("selection.select_blocks.calls", "selection.select_blocks", "calls"),
    ("selection.select_blocks.self_ms", "selection.select_blocks", "self_ms"),
    ("selection.candidate_blocks.self_ms", "selection.candidate_blocks", "self_ms"),
    ("selection.log_average_luminance.self_ms", "selection.log_average_luminance", "self_ms"),
    ("selection.spiral_order.self_ms", "selection.spiral_order", "self_ms"),
    ("selection.spiral_order.cells", "selection.spiral_order", "data"),
    ("codec.embed.calls", "codec.embed", "calls"),
    ("codec.embed.self_ms", "codec.embed", "self_ms"),
    ("codec.extract.calls", "codec.extract", "calls"),
    ("codec.extract.self_ms", "codec.extract", "self_ms"),
    ("attacks.compress_attack.calls", "attacks.compress_attack", "calls"),
    ("attacks.compress_attack.self_ms", "attacks.compress_attack", "self_ms"),
    ("attacks.grayscale_attack.self_ms", "attacks.grayscale_attack", "self_ms"),
    ("attacks.crop_attack.self_ms", "attacks.crop_attack", "self_ms"),
    ("metrics.psnr.calls", "metrics.psnr", "calls"),
    ("metrics.psnr.self_ms", "metrics.psnr", "self_ms"),
    ("metrics.similarity.self_ms", "metrics.similarity", "self_ms"),
    ("pixmap.read_rgb_image.self_ms", "pixmap.read_rgb_image", "self_ms"),
    ("pixmap.read_rgb_image.bytes", "pixmap.read_rgb_image", "data"),
    ("pixmap.write_rgb_image.self_ms", "pixmap.write_rgb_image", "self_ms"),
    ("pixmap.write_rgb_image.bytes", "pixmap.write_rgb_image", "data"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.main.self_ms", "cli.main", "self_ms"),
]
UNITS = {"calls": "count", "self_ms": "ms", "mpix": "Mpix", "bytes": "bytes", "cells": "count"}


def layer_metrics(spans, ops: int) -> dict:
    """Per-layer totals over the traced ops' spans, divided by ``ops``."""
    self_ns = self_times_ns(spans)
    totals = {}
    for span, ns in zip(spans, self_ns):
        t = totals.setdefault(span[NAME], {"calls": 0, "self_ms": 0.0, "data": 0.0})
        t["calls"] += 1
        t["self_ms"] += ns / 1e6
        if isinstance(span[DATA], (int, float)):
            t["data"] += span[DATA]
    out = {}
    for metric, fn, field in LAYER_METRICS:
        value = totals.get(fn, {}).get(field, 0)
        out[metric] = (value / ops, UNITS[metric.rsplit(".", 1)[1]])
    out["selection.spiral_order.useful_frac"] = (_useful_frac(spans), "ratio")
    return out


def _useful_frac(spans) -> float:
    """Mean over select_blocks calls of (spiral index of the plan's last block
    + 1) / cells the spiral generated; 0 when selection never ran."""
    cells = {s[PARENT]: s[DATA] for s in spans if s[NAME] == "selection.spiral_order"}
    fracs = []
    index_cache = {}
    for idx, span in enumerate(spans):
        if span[NAME] != "selection.select_blocks" or not cells.get(idx):
            continue
        cols, rows, last = span[DATA]
        if (cols, rows) not in index_cache:
            order = selection.spiral_order(cols, rows)
            index_cache[cols, rows] = {ref: k for k, ref in enumerate(order)}
        fracs.append((index_cache[cols, rows][last] + 1) / cells[idx])
    return statistics.fmean(fracs) if fracs else 0.0
