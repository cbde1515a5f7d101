"""Time the reduction kernel on a fixed ideal.

Times computing the ideal's reduced Groebner basis (the kernel takes about
two thirds of it, the Buchberger driver's pair handling the rest), a batch
of deep normal forms against that basis (kernel-bound), and the Hilbert
series and Krull dimension of the quotient (the monomial-ideal recursions
on the basis's leading keys), best of REPEAT runs.  For the basis and the
batch it also prints the kernel calls, the reduction steps and the
kernel's rate in steps per second of its own time, best of the same runs
(counted and timed by ``spying`` on ``_reduction.normal_form_terms``, which
the Groebner layer looks up on every call), so a kernel change shows as a rate
and not only in seconds.  The basis line adds the driver's own seconds,
the run's time minus the kernel's, best of the same runs, and what became
of the pairs: dropped for coprime leading terms, dropped by the chain
criterion, or reduced (from the run's ``Budget``).  Run with

    PYTHONPATH=src python3 benchmarks/bench_kernel.py
"""

import contextlib
import random
import time

from subtlesw import _reduction
from subtlesw.grobner import Budget, groebner_basis, hilbert_series, krull_dimension, normal_form
from subtlesw.poly import bso_ring, parse_poly

# a fixed bihomogeneous ideal with a 129-element reduced basis
GENS = (
    "u2^6*u4*u7+t^2*u2^4*u3^5",
    "u4^2*u8+t*u2^3*u3*u7",
    "u2^8*u3^3+u2*u3^3*u6*u8+u2^2*u3^2*u7*u8",
    "u2^2*u3+u3*u4+u2*u5+u7",
)
REPEAT = 3
ELEMENTS = 300  # normal forms in the batch
FACTORS = 12  # degree of each batch element, a random monomial


def random_monomial(ring, rng, factors):
    e = [0] * len(ring)
    for _ in range(factors):
        e[rng.randrange(len(ring))] += 1
    return ring.poly([tuple(e)])


def best_of(repeat, fn):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


@contextlib.contextmanager
def spying(module, name, record):
    """Within the block, ``module.name`` is wrapped so that every call
    also runs ``record(result, seconds)`` with its result and its own
    seconds; the original is restored when the block ends, also when it
    raises."""
    original = getattr(module, name)

    def spy(*args):
        t0 = time.perf_counter()
        result = original(*args)
        record(result, time.perf_counter() - t0)
        return result

    setattr(module, name, spy)
    try:
        yield
    finally:
        setattr(module, name, original)


def kernel_work(fn):
    """``fn()``, and the calls, steps and seconds of the reduction kernel
    while it runs."""
    runs = []  # (steps, seconds) of each kernel call
    with spying(_reduction, "normal_form_terms", lambda result, s: runs.append((result[1], s))):
        result = fn()
    return result, len(runs), sum(n for n, _ in runs), sum(s for _, s in runs)


def main():
    ring = bso_ring(8)
    gens = [parse_poly(ring, s) for s in GENS]
    gb = groebner_basis(ring, gens)
    rng = random.Random(7)
    elems = [random_monomial(ring, rng, FACTORS) for _ in range(ELEMENTS)]

    budgets = []

    def basis():
        budgets.append(Budget())
        return groebner_basis(ring, gens, budgets[-1])

    kernel_bound = [
        ("groebner basis", basis),
        (f"normal_form x{ELEMENTS}", lambda: [normal_form(x, gb) for x in elems]),
    ]
    for label, fn in kernel_bound:
        best = kernel_best = driver_best = float("inf")
        for _ in range(REPEAT):
            t0 = time.perf_counter()
            _, calls, steps, seconds = kernel_work(fn)
            elapsed = time.perf_counter() - t0
            best = min(best, elapsed)
            kernel_best = min(kernel_best, seconds)
            driver_best = min(driver_best, elapsed - seconds)
        print(
            f"{label:<24}{best:>9.3f}s   {calls} kernel calls, {steps} steps,"
            f" {steps / kernel_best:,.0f} steps/s in the kernel"
        )
        if fn is basis:
            b = budgets[-1]
            # one unit per reduced pair beside the kernel's steps
            print(
                f"{'':<24}{driver_best:>9.3f}s   in the driver; pairs: {b.coprime} coprime,"
                f" {b.chained} chain, {b.skipped} skipped, {b.used - steps} reduced"
            )
    recursions = [
        ("hilbert_series", lambda: hilbert_series(gb)),
        ("krull_dimension", lambda: krull_dimension(gb)),
    ]
    for label, fn in recursions:
        print(f"{label:<24}{best_of(REPEAT, fn):>9.3f}s")


if __name__ == "__main__":
    main()
