"""The golden outputs under other BLAS and SIMD kernels than this CPU's own.

OpenBLAS and NumPy pick their kernels from the CPU at run time, and kernels
that add or round in another order change last bits.  Each case reruns
``tests/test_golden.py::test_output_bytes_match_golden`` in a child process
with one kernel forced through an environment variable, set in the child's
environment only.  Every digest must hold under each, so no kernel choice
reaches a pinned byte.

A kernel the CPU cannot run would crash the child: the AVX2 kernel is
skipped on a CPU without AVX2, and every case off x86-64.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _cpu_has(flag: str) -> bool:
    try:
        return flag in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


pytestmark = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the forced kernels are x86-64 kernels",
)


@pytest.mark.parametrize("setting", [
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, id="openblas-haswell",
                 marks=pytest.mark.skipif(not _cpu_has("avx2"), reason="the CPU lacks AVX2")),
    pytest.param({"OPENBLAS_CORETYPE": "Nehalem"}, id="openblas-nehalem"),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                 id="numpy-without-avx512"),
])
def test_golden_bytes_hold_under_forced_kernel(setting):
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_golden.py::test_output_bytes_match_golden"],
        cwd=ROOT, env={**os.environ, **setting}, capture_output=True, text=True, timeout=600,
    )
    if child.returncode:
        pytest.fail(child.stdout[-3000:] + child.stderr[-3000:], pytrace=False)
