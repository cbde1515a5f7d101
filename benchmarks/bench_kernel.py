"""The fixed ideal of the gbasis benchmark, and a spy that times calls.

``GENS`` and ``random_monomial`` make the inputs of perfbench's gbasis
workload, which times the ideal's reduced Groebner basis, a batch of 300
normal forms against it and its Hilbert series and Krull dimension; its
traced run (``--trace 1``) reports the driver's, the kernel's and the
Hilbert recursion's share.  ``tests/test_reduction.py`` pins the basis's
work: its elements, budget units, kernel calls and the fate of its pairs.

``spying`` wraps a function for a block and records each call's result
and seconds; ``bench_theta.py`` times the Hilbert numerator, the theta
representatives and the wall's kernel calls with it.  The work of a run,
its pairs, zero reductions and kernel calls and steps, is counted by its
``grobner.Budget``, not here.
"""

import contextlib
import time

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

