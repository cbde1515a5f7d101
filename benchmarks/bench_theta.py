"""Time building the theta sequence and then certifying k(n).

For n = 13..16, with every cache cleared first, times theta_0..theta_7 in
bso_context(n) and then k_computed(n).  k(n) = 7 for these n, so k_computed
reuses the thetas just built and its time is the Groebner part alone.  Prints
one line per n, with the terms the ``theta`` cache holds after the thetas
(every theta step is Sq^{p-1}, which takes a closed form with no memo), the
budget units (pairs plus reduction steps) that k_computed spent, its
kernel calls (counted by ``bench_kernel.kernel_calls``), and the
pairs it skipped because they lie below the lowest degree where the Hilbert
numerator of the leading terms still misses the expected one.  A further
row times theta_0..theta_8 at n = 17, the theta layer at the wall; k(17)
itself is out of reach, so that row certifies nothing.  Each of these rows
also gives the time of ``Poly.bidegree()`` on its largest theta (best of
BIDEGREE_REPEAT), the homogeneity check that every append of the
regular-sequence checker pays.

The last row is the wall itself.  At n = 17 it appends theta_0..theta_6 and
tests theta_7 for membership (it is not a member), then runs the theta_7
append under WALL_UNITS budget units past that prefix, which end in
``BudgetExceeded``.  It prints the seconds until then, units per second,
the kernel calls of the append and the peak RSS of the process
(``ru_maxrss``).  Run with

    PYTHONPATH=src python3 benchmarks/bench_theta.py
"""

import resource
import time

from bench_kernel import kernel_calls
from subtlesw import steenrod
from subtlesw.grobner import Budget, BudgetExceeded, RegularSequenceChecker, ideal_member
from subtlesw.poly import bso_ring
from subtlesw.spaces import k_computed
from subtlesw.steenrod import bso_context, theta

NS = range(13, 17)
J = 7  # k(n) for every n in NS
WALL_N, WALL_J = 17, 8
BIDEGREE_REPEAT = 5
WALL_UNITS = 150_000  # budget of the theta_7 append at n = WALL_N


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


def wall_append():
    """Seconds of the theta_7 append at n = WALL_N until it spends WALL_UNITS
    past the prefix, with the thetas built and the prefix certified."""
    ctx = bso_context(WALL_N)
    budget = Budget()
    checker = RegularSequenceChecker(bso_ring(WALL_N), budget)
    for j in range(WALL_J - 1):
        if not checker.append(theta(ctx, j)):
            raise ArithmeticError(f"theta_{j} is a zero divisor at n={WALL_N}")
    last = theta(ctx, WALL_J - 1)
    if ideal_member(last, checker.basis, budget):
        raise ArithmeticError(f"theta_{WALL_J - 1} lies in the ideal at n={WALL_N}")
    budget.limit = budget.used + WALL_UNITS
    t0 = time.perf_counter()
    try:
        checker.append(last)
    except BudgetExceeded:
        return time.perf_counter() - t0
    raise ArithmeticError(f"the theta_{WALL_J - 1} append finished inside the budget")


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
    seconds, calls = kernel_calls(wall_append)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"n={WALL_N:<3} theta_{WALL_J - 1} append {seconds:8.3f}s to {WALL_UNITS} units"
        f" ({WALL_UNITS / seconds:.0f} units/s, {calls} kernel calls, {rss:.0f} MiB peak RSS)"
    )


if __name__ == "__main__":
    main()
