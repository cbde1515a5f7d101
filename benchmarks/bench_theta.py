"""Time certifying k(n) cold, and the theta it never builds in full.

For n = 13..16, with every cache cleared first, times k_computed(n), which
builds theta_0..theta_{k-1} and then theta_k less the terms that a
variable leading the basis divides (k(n) = 7 for these n).  Prints one line
per n with the budget units (pairs plus reduction steps) it spent, its
kernel calls (counted by ``bench_kernel.kernel_calls``), the pairs it
skipped because they lie below the lowest degree where the Hilbert
numerator of the leading terms still misses the expected one, and theta_k's
full and kept terms: the full theta_k is built only afterwards, for the
count.  The line also times theta_0..theta_7 from cold caches and
``Poly.bidegree()`` on theta_7 (best of BIDEGREE_REPEAT), the homogeneity
check that every append of the regular-sequence checker pays.

A further row does the same for theta_0..theta_8 at n = 17, the theta layer
at the wall; k(17) itself is out of reach, so the kept terms of theta_8 are
those that no variable leading the basis of theta_0..theta_6 divides.

The last row is the wall itself.  At n = 17 it appends theta_0..theta_6 and
tests theta_7 for membership as k_computed does (it is not a member), then
runs the theta_7 append under WALL_UNITS budget units past that prefix,
which end in ``BudgetExceeded``.  It prints the seconds until then, units
per second, the kernel calls of the append and the peak RSS of the process
(``ru_maxrss``).  Run with

    PYTHONPATH=src python3 benchmarks/bench_theta.py
"""

import resource
import time

from bench_kernel import kernel_calls
from subtlesw import spaces, steenrod
from subtlesw.grobner import Budget, BudgetExceeded, RegularSequenceChecker
from subtlesw.poly import bso_ring
from subtlesw.spaces import k_computed
from subtlesw.steenrod import bso_context, theta

NS = range(13, 17)
J = 7  # k(n) for every n in NS
WALL_N, WALL_J = 17, 8
BIDEGREE_REPEAT = 5
WALL_UNITS = 150_000  # budget of the theta_7 append at n = WALL_N


def clear_caches():
    for fn in (steenrod.theta, steenrod._sq_mono, steenrod._sq_gen, steenrod._top_left):
        fn.cache_clear()


def time_thetas(n, last):
    """Seconds for theta_0..theta_last from cold caches, the last one's
    terms, and the seconds of its ``bidegree()``."""
    clear_caches()
    ctx = bso_context(n)
    t0 = time.perf_counter()
    for j in range(last + 1):
        theta(ctx, j)
    seconds = time.perf_counter() - t0
    top = theta(ctx, last)
    check = float("inf")
    for _ in range(BIDEGREE_REPEAT):
        t1 = time.perf_counter()
        top.bidegree()
        check = min(check, time.perf_counter() - t1)
    return seconds, len(top.keys), check


def cold_k(n):
    """A cold k_computed(n): its seconds, k, budget, kernel calls, and the
    terms of the theta_k it tested for membership."""
    clear_caches()
    member = spaces.ideal_member
    tested = []

    def recording(x, gb, budget=None):
        tested.append(len(x.keys))
        return member(x, gb, budget)

    budget = Budget()
    spaces.ideal_member = recording
    try:
        t0 = time.perf_counter()
        k, calls = kernel_calls(lambda: k_computed(n, budget))
        seconds = time.perf_counter() - t0
    finally:
        spaces.ideal_member = member
    return seconds, k, budget, calls, tested[-1]


def prefix_checker(n, last):
    """A checker of the ideal of theta_0..theta_{last-1} in bso_ring(n)."""
    ctx = bso_context(n)
    checker = RegularSequenceChecker(bso_ring(n), Budget())
    for j in range(last):
        if not checker.append(theta(ctx, j)):
            raise ArithmeticError(f"theta_{j} is a zero divisor at n={n}")
    return checker


def wall_append(checker):
    """Seconds of the theta_7 append at n = WALL_N until it spends WALL_UNITS
    past the prefix certified by ``checker``, with theta_7 tested first."""
    budget = checker.budget
    last = spaces._theta_mod(bso_context(WALL_N), WALL_J - 1, checker.basis)
    if spaces.ideal_member(last, checker.basis, budget):
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
        seconds, k, budget, calls, kept = cold_k(n)
        thetas, terms, check = time_thetas(n, J)
        print(
            f"n={n:<3} k={k} cold {seconds:7.3f}s ({budget.used} units, {calls} kernel calls,"
            f" {budget.skipped} skipped)   theta_{k} {terms} terms, {kept} kept"
            f"   theta_0..{J} {thetas:7.3f}s   bidegree {check * 1e3:6.2f}ms"
        )
    thetas, terms, check = time_thetas(WALL_N, WALL_J)
    checker = prefix_checker(WALL_N, WALL_J - 1)
    kept = len(spaces._theta_mod(bso_context(WALL_N), WALL_J, checker.basis).keys)
    print(
        f"n={WALL_N:<3} theta_{WALL_J} {terms} terms, {kept} kept"
        f"   theta_0..{WALL_J} {thetas:7.3f}s   bidegree {check * 1e3:6.2f}ms"
    )
    seconds, calls = kernel_calls(lambda: wall_append(checker))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"n={WALL_N:<3} theta_{WALL_J - 1} append {seconds:8.3f}s to {WALL_UNITS} units"
        f" ({WALL_UNITS / seconds:.0f} units/s, {calls} kernel calls, {rss:.0f} MiB peak RSS)"
    )


if __name__ == "__main__":
    main()
