"""The fixed ideal of the gbasis benchmark, and a spy on the reduction kernel.

``GENS`` and ``random_monomial`` make the inputs of perfbench's gbasis
workload, which times the ideal's reduced Groebner basis, a batch of 300
normal forms against it and its Hilbert series and Krull dimension; its
traced run (``--trace 1``) reports the driver's, the kernel's and the
Hilbert recursion's share.  ``tests/test_reduction.py`` pins the basis's
work: its elements, budget units, kernel calls and the fate of its pairs.

``spying`` and ``kernel_work`` count and time the kernel's calls, for
``answers.py``, ``bench_theta.py`` and the tests.
"""

import contextlib
import time

from subtlesw import _reduction

# a fixed bihomogeneous ideal in bso_ring(8) with a 129-element reduced basis
GENS = (
    "u2^6*u4*u7+t^2*u2^4*u3^5",
    "u4^2*u8+t*u2^3*u3*u7",
    "u2^8*u3^3+u2*u3^3*u6*u8+u2^2*u3^2*u7*u8",
    "u2^2*u3+u3*u4+u2*u5+u7",
)


def random_monomial(ring, rng, factors):
    e = [0] * len(ring)
    for _ in range(factors):
        e[rng.randrange(len(ring))] += 1
    return ring.poly([tuple(e)])


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
