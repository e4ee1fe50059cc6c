"""What the benchmark under bench/ needs from the package.

bench/tracer.py wraps lumamark functions by module and name, and the
attack-grid workload plans through the reference conversion. A cut to the
public surface that breaks either fails here, not only in a benchmark run.
These tests only read bench/.
"""

import importlib
import sys

from lumamark.colorspace import rgb_to_ycbcr
from lumamark.selection import select_blocks

from support import ROOT

sys.path.insert(0, str(ROOT / "bench"))

from tracer import PACKAGE, TRACED


def test_every_traced_function_resolves():
    for modname, names in TRACED.items():
        module = importlib.import_module(f"{PACKAGE}.{modname}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{PACKAGE}.{modname}.{name}"


def test_reference_conversion_plans_as_rgb(corpus):
    for name, img in corpus.items():
        ycc = rgb_to_ycbcr(img)
        # the tracer sizes conversion spans from these two attributes
        assert (ycc.width, ycc.height) == (img.width, img.height)
        assert select_blocks(ycc).blocks == select_blocks(img).blocks, name
