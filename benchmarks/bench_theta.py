"""Time certifying k(n) cold, and the thetas it never builds in full.

For n = 13..16, with every cache cleared first, times k_computed(n), which
builds theta_0 and then, for each j >= 1, a representative x_j of theta_j:
the square of the remainder of x_{j-1} (see ``spaces._thetas``; k(n) = 7
for these n).  Prints one line per n with what its ``Budget`` counted: the
units (pairs plus reduction steps) it spent, its kernel calls, the pairs it
made, those it skipped because they lie below the lowest degree where the
Hilbert numerator of the leading terms still misses the expected one, and
those whose S-polynomial reduced to zero.  The line goes on with the
seconds spent in ``grobner._lt_numerator``
(each append's numerator of the known leads, its colon numerators and
its final check), and the seconds and terms of the representatives
x_1..x_k (``spaces.sq`` builds them; perfbench's tracer wraps only
``steenrod.theta``, which builds none of them); both are timed by
``bench_kernel.spying``.  The line also gives
theta_k's full terms, built only afterwards for the count by one cold
``theta`` call, and that call's seconds.

Then, for each spin family in SPIN and each n in NS, a row times a cold
``present(family, n)`` and prints the units, kernel calls and skipped
pairs its ``Budget`` counted: the topological flavor is the one that no
perfbench workload runs past n = 9.

A further row times theta_8 at n = 17 as the first rows time theta_k: the
theta layer at the wall.  k(17) itself is out of reach, so the kept terms
of theta_8 are those that no variable leading the basis of
theta_0..theta_6 divides.

The last row is the wall itself.  At n = 17 it runs the chain of
``spaces._thetas`` up to its yield of x_7 (the chain tests x_0..x_6 for
membership itself, and ends at none of them), tests x_7, then lets the
chain append x_7 under WALL_UNITS budget units past that prefix, which
end in ``BudgetExceeded``; x_7 has the remainder of theta_7, so that
append does theta_7's work, and the chain reuses x_7's remainder from the
test.  It prints the seconds until then, units per second, what the append
added to the Budget's counts (pairs made, pairs skipped, zero reductions,
kernel calls and steps), the kernel's steps per second of its own time,
timed by ``bench_kernel.spying`` on the kernel, and the peak RSS of the
process (``ru_maxrss``).

The host's speed drifts more than one run of these rows changes, so each
timed figure of a cold k or a theta build is bracketed by the reference
chunk of ``perfbench/hostspeed.py``, timed ``REF_REPEAT`` times on either
side, and every seconds figure is followed by the same seconds rescaled to
the reference host (``hostspeed.around``) in brackets.  The brackets sit
outside the timed work, unlike ``hostspeed.Sampler``, whose ``SIGALRM``
chunks would land inside the spies' timings.  The wall append prints raw
seconds only: over its 2-3 s the rescaled figure spread wider than the raw
one.  Run with

    PYTHONPATH=src python3 benchmarks/bench_theta.py
"""

import itertools
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import hostspeed  # noqa: E402
from bench_kernel import spying  # noqa: E402
from subtlesw import _reduction, grobner, spaces, steenrod  # noqa: E402
from subtlesw.grobner import Budget, BudgetExceeded  # noqa: E402
from subtlesw.spaces import k_computed, present  # noqa: E402
from subtlesw.steenrod import bso_context, theta  # noqa: E402

NS = range(13, 17)
J = 7  # k(n) for every n in NS
SPIN = ("BSpin", "BSpin_top")
WALL_N, WALL_J = 17, 8
WALL_UNITS = 150_000  # budget of the theta_7 append at n = WALL_N
COUNTS = ("pairs", "skipped", "zeros", "kernel_calls", "kernel_steps")  # Budget counters of the wall row


def clear_caches():
    for fn in (steenrod._sq_mono, steenrod._sq_gen):
        fn.cache_clear()


def bracketed(fn):
    """fn()'s result, and the median seconds of the reference chunk just
    before and just after it, for ``scaled``."""
    before = hostspeed.time_reference(hostspeed.REF_REPEAT)
    out = fn()
    return out, (before, hostspeed.time_reference(hostspeed.REF_REPEAT))


def scaled(raw, ref, spec="7.3f", unit="s"):
    """A raw time, then in brackets the same rescaled by the chunk times
    ``ref`` of its bracket (``around`` is linear, so any unit will do)."""
    return f"{raw:{spec}}{unit} [{hostspeed.around(raw, *ref):{spec}}{unit}]"


def time_thetas(n, last):
    """theta_last, built by one ``theta`` call from cold caches, and the
    seconds of that call."""
    clear_caches()
    t0 = time.perf_counter()
    top = theta(bso_context(n), last)
    return time.perf_counter() - t0, top


def cold_k(n):
    """A cold k_computed(n): its seconds, k, budget, seconds in the
    Hilbert numerator, and the seconds and terms of the representatives
    x_1..x_k that it builds."""
    clear_caches()
    hilbert, squares = [], []  # seconds; (terms, seconds)
    budget = Budget()
    t0 = time.perf_counter()
    with (
        spying(grobner, "_lt_numerator", lambda _, s: hilbert.append(s)),
        spying(spaces, "sq", lambda x, s: squares.append((len(x.keys), s))),
    ):
        k = k_computed(n, budget)
    seconds = time.perf_counter() - t0
    built = sum(s for _, s in squares)
    return seconds, k, budget, sum(hilbert), built, [terms for terms, _ in squares]


def cold_present(family, n):
    """A cold present(family, n): its seconds and budget."""
    clear_caches()
    budget = Budget()
    t0 = time.perf_counter()
    present(family, n, budget)
    return time.perf_counter() - t0, budget


def kept_terms(basis, x):
    """The number of terms of ``x`` that no variable leading ``basis``
    divides: the terms a normal form by ``basis`` hands to the kernel."""
    ring = basis.ring
    return sum(1 for key in x.keys if not ring.support(key) & basis._drop)


def wall_prefix():
    """The chain of ``spaces._thetas`` at n = WALL_N stopped at its yield of
    x_{WALL_J-1}, with the basis of the thetas before it and the chain's
    budget.  The chain tests x_0..x_{WALL_J-2} itself; x_{WALL_J-1} is
    tested here, so that its membership test, whose remainder the chain
    then reuses, stays out of ``wall_append``."""
    budget = Budget()
    chain = spaces._thetas(bso_context(WALL_N), budget)
    x, basis = next(itertools.islice(chain, WALL_J - 1, None))
    spaces.ideal_member(x, basis, budget)
    return chain, basis, budget


def wall_append(chain, budget):
    """The chain's append of x_{WALL_J-1} until it spends WALL_UNITS past
    the prefix: its seconds, the seconds of its kernel calls, and what it
    added to each of the budget's COUNTS."""
    budget.limit = budget.used + WALL_UNITS
    before = {name: getattr(budget, name) for name in COUNTS}
    kernel = []  # seconds of each kernel call
    t0 = time.perf_counter()
    try:
        with spying(_reduction, "normal_form_terms", lambda _, s: kernel.append(s)):
            next(chain)
    except BudgetExceeded:
        seconds = time.perf_counter() - t0
        return seconds, sum(kernel), {name: getattr(budget, name) - v for name, v in before.items()}
    raise ArithmeticError(f"the theta_{WALL_J - 1} append finished inside the budget")


def main():
    for n in NS:
        (seconds, k, budget, hilbert, built, reps), ref = bracketed(lambda: cold_k(n))
        (thetas, top), theta_ref = bracketed(lambda: time_thetas(n, J))
        print(
            f"n={n:<3} k={k} cold {scaled(seconds, ref)} ({budget.used} units,"
            f" {budget.kernel_calls} kernel calls, {budget.pairs} pairs, {budget.skipped} skipped,"
            f" {budget.zeros} zeros, hilbert {scaled(hilbert, ref, '6.3f')})"
            f"   x_1..{k} {scaled(built * 1e3, ref, '6.2f', 'ms')}, {'/'.join(map(str, reps))} terms"
            f"   theta_{J} {len(top.keys)} terms in {scaled(thetas, theta_ref)}"
        )
    for family, n in itertools.product(SPIN, NS):
        (seconds, budget), ref = bracketed(lambda: cold_present(family, n))
        print(
            f"{family:<9} n={n:<3} present {scaled(seconds, ref)} ({budget.used} units,"
            f" {budget.kernel_calls} kernel calls, {budget.skipped} skipped)"
        )
    (thetas, top), ref = bracketed(lambda: time_thetas(WALL_N, WALL_J))
    chain, basis, budget = wall_prefix()
    kept = kept_terms(basis, top)
    print(f"n={WALL_N:<3} theta_{WALL_J} {len(top.keys)} terms, {kept} kept, in {scaled(thetas, ref)}")
    seconds, kernel_seconds, counts = wall_append(chain, budget)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"n={WALL_N:<3} theta_{WALL_J - 1} append {seconds:8.3f}s to {WALL_UNITS} units"
        f" ({WALL_UNITS / seconds:.0f} units/s, {counts['pairs']} pairs, {counts['skipped']} skipped,"
        f" {counts['zeros']} zeros, {counts['kernel_calls']} kernel calls, {counts['kernel_steps']} steps,"
        f" {counts['kernel_steps'] / kernel_seconds:.0f} kernel steps/s, {rss:.0f} MiB peak RSS)"
    )


if __name__ == "__main__":
    main()
