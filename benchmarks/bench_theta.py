"""Time building the theta sequence and then certifying k(n).

For n = 13..16, with every cache cleared first, times theta_0..theta_7 in
bso_context(n) and then k_computed(n).  k(n) = 7 for these n, so k_computed
reuses the thetas just built and its time is the Groebner part alone.  Prints
one line per n, with the budget units (pairs plus reduction steps) that
k_computed spent.  Run with

    PYTHONPATH=src python3 benchmarks/bench_theta.py
"""

import time

from subtlesw import grobner, spaces, steenrod
from subtlesw.grobner import Budget
from subtlesw.spaces import k_computed
from subtlesw.steenrod import bso_context, theta

NS = range(13, 17)
J = 7  # k(n) for every n in NS


def clear_caches():
    for fn in (steenrod.theta, steenrod._sq_mono, steenrod._sq_gen):
        fn.cache_clear()
    spaces._k_cache.clear()
    grobner._gb_cache.clear()


def main():
    for n in NS:
        clear_caches()
        ctx = bso_context(n)
        t0 = time.perf_counter()
        terms = [len(theta(ctx, j).terms) for j in range(J + 1)]
        t1 = time.perf_counter()
        budget = Budget()
        k = k_computed(n, budget)
        t2 = time.perf_counter()
        print(
            f"n={n:<3} theta_0..{J} {t1 - t0:8.3f}s ({terms[-1]} terms)"
            f"   k={k} {t2 - t1:8.3f}s ({budget.used} units)"
        )


if __name__ == "__main__":
    main()
