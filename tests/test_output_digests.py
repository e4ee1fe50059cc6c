"""Output bytes pinned by the digests of the benchmark's workloads.

A workload's digest covers the outputs of its warm-up ops at seed 7:
roundtrip_512's marked images and extracted watermarks, attack_grid_512's
attacked images, extracted watermarks, similarities and PSNR reprs, and
cli_files_2048's marked files, plan files, extracted watermarks and
stdout. A change to any of those bytes fails here, not only in a benchmark
run. These tests only read bench/.

The attack grid's compressed bytes and PSNR reprs come from elementwise IEEE
arithmetic and exact integer sums, not from a BLAS kernel's rounding. All
three digests hold under OPENBLAS_CORETYPE=Prescott and without numpy's AVX2
and AVX-512 loops, as CI checks. Selection's Y product and np.log can still
round differently on another platform; the corpus plans hold on both.
"""

import sys

import pytest

from support import ROOT

sys.path.insert(0, str(ROOT / "bench"))

import runner

PINNED = {
    "roundtrip_512": "d5e03c242affa087b5973573bab27431b7768e70423cd47626ed9aab4ca38371",
    "attack_grid_512": "22c064e5e7351efa2f2c67f35d128cf07999839ed6347832a2977c5d4cc144d1",
    "cli_files_2048": "a2f95c457365b4806c7263c5ab8a344b7ab304af544abd59cd324f90e4ca1fc6",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_workload_digest_is_pinned(name, tmp_path):
    _, detail = runner.run_workload(name, 7, 0.0, False, tmp_path, setup_reps=1)
    assert detail["correct"], detail["problems"]
    assert detail["digest_sha256"] == PINNED[name]
