"""What the benchmark under bench/ needs from the package.

bench/tracer.py wraps lumamark functions by module and name, the
attack-grid workload plans through the reference conversion, and every
workload calls the codec with its own arguments. A change to the public
surface that breaks any of these fails here, not only in a benchmark run.
These tests only read bench/.
"""

import importlib
import sys

import pytest

from lumamark.colorspace import rgb_to_ycbcr
from lumamark.selection import select_blocks

from support import ROOT

sys.path.insert(0, str(ROOT / "bench"))

import workloads
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


@pytest.mark.parametrize("name", ["roundtrip_512", "attack_grid_512"])
def test_workload_op_passes_its_own_check(name, tmp_path):
    workload = workloads.make(name, tmp_path)
    workload.setup()
    try:
        inp = workload.make_input(1, 0)
        col = workload.collect(inp, workload.op(inp))
        assert workload.check(inp, col) == []
        assert workload.check(inp, workload.corrupt(col))
    finally:
        workload.teardown()
