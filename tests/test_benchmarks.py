"""Smoke tests of the hand-run scripts in benchmarks/.

They reach into private names of subtlesw (the theta memo, the chain of
representatives, the Groebner layer's internals), so a renamed internal
fails here rather than at the next measurement.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import bench_kernel  # noqa: E402, F401
import bench_theta  # noqa: E402


def test_bench_theta_cold_k():
    seconds, k, budget, calls, hilbert, built, terms = bench_theta.cold_k(10)
    assert k == 5 and budget.used == 10
    # x_1..x_5, each the square of the remainder before it, timed through
    # bench_kernel's kernel wrapper
    assert len(terms) == k and built > 0
    assert calls > 0 and seconds >= hilbert >= 0

