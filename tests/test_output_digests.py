"""Output bytes pinned by the digests of the benchmark's workloads.

A workload's digest covers the outputs of its warm-up ops at seed 7:
roundtrip_512's marked images and extracted watermarks, and
cli_files_2048's marked files, plan files, extracted watermarks and
stdout. A change to any of those bytes fails here, not only in a benchmark
run. These tests only read bench/.

attack_grid_512 is not pinned. Its compressed images pass through numpy's
matrix products, whose last bits depend on the BLAS kernel: with
OPENBLAS_CORETYPE=Prescott its digest is 1dd5af01..., not the 66e10e12...
of the SkylakeX kernel, while the two pinned here hold under both.
"""

import sys

import pytest

from support import ROOT

sys.path.insert(0, str(ROOT / "bench"))

import runner

PINNED = {
    "roundtrip_512": "d5e03c242affa087b5973573bab27431b7768e70423cd47626ed9aab4ca38371",
    "cli_files_2048": "a2f95c457365b4806c7263c5ab8a344b7ab304af544abd59cd324f90e4ca1fc6",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_workload_digest_is_pinned(name, tmp_path):
    _, detail = runner.run_workload(name, 7, 0.0, False, tmp_path, setup_reps=1)
    assert detail["correct"], detail["problems"]
    assert detail["digest_sha256"] == PINNED[name]
