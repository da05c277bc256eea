"""Memory traffic of the hot paths: once warm, a factorization, its split
and a dispersion trace keep their 2-D temporaries below glibc's default
mmap threshold, in row blocks (``numerics.row_blocks``) where one matrix
would be larger, so they reuse heap pages instead of mapping and
zero-filling fresh ones.
"""
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

pytest.importorskip("resource")
# The bound is set for glibc's allocator and its mmap threshold.
pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="fault counts are calibrated for glibc")

SRC = Path(__file__).resolve().parents[1] / "src"

# Formed as one matrix each, a factorization's θ sums and its split's Cauchy
# sums took about 2 000 minor faults (fresh pages of MB-sized temporaries).
# The θ lattice's largest temporary is about 75 KB and the Cauchy sums go in
# row blocks, so both take none, and the fig1 trace a few hundred.
FAULT_BOUND = 1000

FAULT_RUN = textwrap.dedent("""\
    import resource

    import numpy as np

    from crackwave.dispersion import trace_curve
    from crackwave.kernel import KernelParams, factorize
    from crackwave.loading import LoadProfile, build_split

    profile = LoadProfile(L=1.0, p=1)

    def split():
        kernel = factorize(KernelParams(m=0.3, eta=0.9, h0=0.707))
        return build_split(kernel, profile)

    split()  # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    split()
    trace_curve(np.geomspace(0.05, 50.0, 120), 0.9, 0.8)  # the fig1 grid
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)


def test_warm_factorize_split_and_trace_take_few_page_faults(tmp_path):
    # A fresh interpreter: the test session's own frees have moved glibc's
    # mmap threshold.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FAULT_RUN],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < FAULT_BOUND
