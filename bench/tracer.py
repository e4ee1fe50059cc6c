"""Trace lumamark's layers from outside the package.

A Tracer replaces each traced public function, at every attribute of every
loaded ``lumamark`` module that refers to it (``codec.rgb_to_ycbcr`` as well
as ``colorspace.rgb_to_ycbcr``), with a wrapper that records one span per
call: name, start, end, parent span and op id, plus a few counts computed
from the call's result. Spans stay in memory. ``uninstall`` puts the
original objects back; ``restored`` checks that it did.
"""

import functools
import sys
import time

PACKAGE = "lumamark"

# Traced functions by defining module. Helpers that only build small values
# (partition_grid, decide, center_keep_rect, round_half_away) are left out, so
# their cost counts as their caller's self time. serialize_plan, parse_plan,
# read_watermark and write_watermark are traced so that cli.main's self time
# excludes them, and random_watermark so that input generation stays visible.
TRACED = {
    "colorspace": ("rgb_to_ycbcr", "ycbcr_to_rgb"),
    "selection": (
        "select_blocks",
        "candidate_blocks",
        "log_average_luminance",
        "spiral_order",
        "serialize_plan",
        "parse_plan",
    ),
    "codec": ("embed", "extract"),
    "attacks": ("compress_attack", "grayscale_attack", "crop_attack"),
    "metrics": ("psnr", "similarity"),
    "pixmap": ("read_rgb_image", "write_rgb_image", "read_watermark", "write_watermark"),
    "cli": ("main",),
    "testimages": ("corpus_image", "random_watermark"),
}


def _pixels(result):
    return result.width * result.height / 1e6


def _plan_tail(plan):
    return plan.grid_cols, plan.grid_rows, plan.blocks[-1]


def _cells(result):
    return len(result) if hasattr(result, "__len__") else None


# Counts derived from a call's result (or, for read_rgb_image, its input
# size), recorded in the span's info slot. They describe the data a call was
# handed, not measured memory traffic.
INFO = {
    "colorspace.rgb_to_ycbcr": _pixels,
    "colorspace.ycbcr_to_rgb": _pixels,
    "selection.select_blocks": _plan_tail,
    "selection.spiral_order": _cells,
    "pixmap.write_rgb_image": len,
}
ARG_INFO = {"pixmap.read_rgb_image": len}

# Span fields, in list order.
NAME, START, END, PARENT, OP, DATA = range(6)


class Tracer:
    """Install and remove span-recording wrappers; hold the spans."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []
        self._sites = []
        self._wrappers = {}
        self._originals = {}
        for modname, names in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{modname}"]
            for fname in names:
                fn = getattr(module, fname)
                qualname = f"{modname}.{fname}"
                self._originals[id(fn)] = fn
                self._wrappers[id(fn)] = self._wrap(qualname, fn)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        info = INFO.get(name)
        arg_info = ARG_INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[DATA] = info(result)
            elif arg_info is not None:
                span[DATA] = arg_info(args[0] if args else next(iter(kwargs.values())))
            return result

        wrapper.__bench_wrapper__ = True
        return wrapper

    def _package_modules(self):
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and self._originals[id(value)] is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        self._sites = list(self._patched)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def restored(self) -> bool:
        """True when every patched attribute holds its original object again
        and no wrapper is reachable from any lumamark module."""
        if self._patched:
            return False
        if any(getattr(m, a) is not orig for m, a, orig in self._sites):
            return False
        return not any(
            getattr(value, "__bench_wrapper__", False)
            for module in self._package_modules()
            for value in vars(module).values()
        )

    def site_count(self) -> int:
        return len(self._sites)


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]
