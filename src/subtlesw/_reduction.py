"""The reduction kernel: division by a Groebner basis over F2, with a sorted
window above a heap.

Monomials arrive as packed keys (see :class:`subtlesw.poly.Ring`): one int
per monomial whose native order is the ring's monomial order.  The key of a
product is a sum of keys, and divisibility of a leading term is one
subtraction tested against the ring's guard bits, so the division loop needs
only the ring's three masks, which :class:`DivisorTable` carries.

The terms still to be reduced live in two tiers.  The upper one, the
window, is an ascending list of distinct keys, the largest live terms; the
lower one is a heap of negated keys, so its smallest entry is the largest
monomial (Monagan & Pearce, "Sparse polynomial division using a heap", JSC
2011).  The invariant is heap < floor <= window: every key in the heap lies
below the window's floor, and the floor below or at every key in the
window.  The next head is the window's last entry.  A product term at or
above the floor is placed in the window with a binary search, and if its
key is already there the two cancel, as equal terms do over F2, so no
duplicate ever waits in the window.  A product below the floor is pushed
onto the heap without looking for an equal entry; equal keys popped from
the heap cancel in pairs, so only the parity of a monomial's copies counts.

When the window empties, it is refilled with the next ``WINDOW`` surviving
keys of the heap, and its floor becomes the smallest of them (0, which
admits every key, once the heap is empty).  Every copy of that key leaves
the heap with it, so what stays behind lies below the floor.  The window is
bounded because an insertion into a list moves every entry above it: when
it grows past ``2 * WINDOW`` keys its lower half goes back to the heap and
its new smallest key is the floor.  A reduction that starts with at most
``WINDOW`` terms and never has more than ``2 * WINDOW`` live ones does not
touch the heap: each head costs O(1), and each product a binary search and
a move of at most ``2 * WINDOW`` entries.  A larger one, as at the n = 17
wall, keeps the heap's O(log |heap|) per product below the floor.

Exponents never wrap.  Every head that survives cancellation is checked to
have no exponent above ``MAX_EXPONENT`` before it is reduced or kept, so
every remainder, and every basis built from remainders, stays in range.  A
product term then multiplies a quotient of such a head by a term of such a
basis element, so its exponents are at most ``2 * MAX_EXPONENT``, which fits
in a field (``FIELD_MAX``) without touching its guard bit.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush

from .poly import ExponentOverflow

# keys a refill takes from the heap; the window holds at most twice as many
# (BENCH_25.json has the sweep that chose the value)
WINDOW = 1024


class DivisorTable:
    """The leading terms of a basis, prepared for the reducer search.

    ``leads[b]`` is the leading key of basis element b with the guard bits
    set, and ``supports[b]`` the guard bits of its nonzero exponents.
    ``fits`` maps the support of a head to the indices, in basis order, of
    the elements whose leading support lies inside it.  ``append`` adds an
    element at the end of the basis and extends every cached list, so a
    table kept beside a growing basis never goes stale.
    """

    __slots__ = ("ring", "leads", "supports", "fits")

    def __init__(self, ring, leads=()):
        self.ring = ring
        self.leads = []
        self.supports = []
        self.fits = {}
        for lead in leads:
            self.append(lead)

    def append(self, lead):
        b = len(self.leads)
        support = self.ring.support(lead)
        self.leads.append(lead | self.ring.guard_mask)
        self.supports.append(support)
        for head_support, candidates in self.fits.items():
            if not support & ~head_support:
                candidates.append(b)

    def candidates(self, support):
        """Elements whose leading support lies inside ``support``, cached."""
        found = self.fits.get(support)
        if found is None:
            miss = ~support
            found = [b for b, s in enumerate(self.supports) if not s & miss]
            self.fits[support] = found
        return found


def normal_form_terms(terms, basis, table, max_steps):
    """Fully reduce ``terms`` by ``basis``; return (result, steps).

    ``terms``: distinct packed keys sorted descending.  ``basis``: list of
    tuples of packed keys, each nonzero with its leading key first;
    ``table`` is its :class:`DivisorTable`.  The largest remaining term is
    reduced by the first basis element, in list order, whose leading term
    divides it.  One step is one such elimination; when ``steps`` would
    exceed ``max_steps`` the result slot is None and the caller decides what
    the exhaustion means.  Raises ExponentOverflow if a term that is not
    cancelled has an exponent above ``MAX_EXPONENT``.
    """
    ring = table.ring
    guard, one, limit = ring.guard_mask, ring.unit_key, ring.limit_mask
    leads, fits, candidates_of = table.leads, table.fits, table.candidates
    # heap < floor <= window; with the heap empty, floor 0 admits every key
    window = list(reversed(terms[:WINDOW]))
    heap = [-t for t in terms[WINDOW:]]  # ascending, hence already a heap
    floor = window[0] if heap else 0
    out = []
    steps = 0
    while True:
        if not window:
            # refill with the largest survivors; every copy of the last one
            # is popped with it, so what stays in the heap lies below it
            while heap and len(window) < WINDOW:
                head = heappop(heap)
                odd = True
                while heap and heap[0] == head:
                    heappop(heap)
                    odd = not odd
                if odd:
                    window.append(-head)
            if not window:
                break
            window.reverse()
            floor = window[0] if heap else 0
        m = window[-1]
        if m & limit != limit:
            raise ExponentOverflow
        support = ((m ^ one) + one) & guard
        candidates = fits.get(support)
        if candidates is None:
            candidates = candidates_of(support)
        # the first candidate whose leading term divides the head
        for b in candidates:
            if (leads[b] - m) & guard == guard:
                break
        else:
            out.append(window.pop())  # irreducible: part of the remainder
            continue
        if steps >= max_steps:
            return None, steps
        steps += 1
        g = basis[b]
        quot = m - g[0]  # quot + t is the key of (m / lt(g)) * t
        # every product lies below the head m, which stays at window[-1]
        # until the products are placed, so window[j] always exists
        for t in g[1:]:
            p = quot + t
            if p < floor:
                heappush(heap, -p)
                continue
            j = bisect_left(window, p)
            if window[j] == p:
                del window[j]  # over F2 equal terms cancel
            else:
                window.insert(j, p)
        window.pop()
        if len(window) > 2 * WINDOW:
            # the lower half goes back to the heap
            for t in window[:WINDOW]:
                heappush(heap, -t)
            del window[:WINDOW]
            floor = window[0]
    return tuple(out), steps
