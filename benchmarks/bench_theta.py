"""Time building the theta sequence and then certifying k(n).

For n = 13..16, with every cache cleared first, times theta_0..theta_7 in
bso_context(n) and then k_computed(n).  k(n) = 7 for these n, so k_computed
reuses the thetas just built and its time is the Groebner part alone.  Prints
one line per n, with the terms the ``theta`` cache holds after the thetas
(every theta step is Sq^{p-1}, which takes a closed form with no memo), the
budget units (pairs plus reduction steps) that k_computed spent, its
kernel calls (counted by ``bench_kernel.kernel_calls``), and the
pairs it skipped because they lie below the lowest degree where the Hilbert
numerator of the leading terms still misses the expected one.  A last row
times theta_0..theta_8 at n = 17, the theta layer at the wall; k(17) itself
is out of reach, so that row certifies nothing.  Every row also gives the
time of ``Poly.bidegree()`` on its largest theta (best of BIDEGREE_REPEAT),
the homogeneity check that every append of the regular-sequence checker
pays.  Run with

    PYTHONPATH=src python3 benchmarks/bench_theta.py
"""

import time

from bench_kernel import kernel_calls
from subtlesw import steenrod
from subtlesw.grobner import Budget
from subtlesw.spaces import k_computed
from subtlesw.steenrod import bso_context, theta

NS = range(13, 17)
J = 7  # k(n) for every n in NS
WALL_N, WALL_J = 17, 8
BIDEGREE_REPEAT = 5


def clear_caches():
    for fn in (steenrod.theta, steenrod._sq_mono, steenrod._sq_gen):
        fn.cache_clear()


def time_thetas(n, last):
    """Seconds for theta_0..theta_last from cold caches, the last one's terms,
    the terms of all of them, which is what the ``theta`` cache holds, and
    the seconds of the last one's ``bidegree()``."""
    clear_caches()
    ctx = bso_context(n)
    t0 = time.perf_counter()
    terms = [len(theta(ctx, j).keys) for j in range(last + 1)]
    seconds = time.perf_counter() - t0
    top = theta(ctx, last)
    check = float("inf")
    for _ in range(BIDEGREE_REPEAT):
        t1 = time.perf_counter()
        top.bidegree()
        check = min(check, time.perf_counter() - t1)
    return seconds, terms[-1], sum(terms), check


def main():
    for n in NS:
        seconds, terms, cached, check = time_thetas(n, J)
        budget = Budget()
        t1 = time.perf_counter()
        k, calls = kernel_calls(lambda: k_computed(n, budget))
        t2 = time.perf_counter()
        print(
            f"n={n:<3} theta_0..{J} {seconds:8.3f}s ({terms} terms, {cached} cached)"
            f"   bidegree {check * 1e3:6.2f}ms"
            f"   k={k} {t2 - t1:8.3f}s ({budget.used} units, {calls} kernel calls,"
            f" {budget.skipped} skipped)"
        )
    seconds, terms, cached, check = time_thetas(WALL_N, WALL_J)
    print(
        f"n={WALL_N:<3} theta_0..{WALL_J} {seconds:8.3f}s ({terms} terms, {cached} cached)"
        f"   bidegree {check * 1e3:6.2f}ms"
    )


if __name__ == "__main__":
    main()
