"""The reduction kernel: division by a Groebner basis over F2, with a heap.

Monomials arrive as packed keys (see :class:`subtlesw.poly.Ring`): one int
per monomial whose native order is the ring's monomial order.  The key of a
product is a sum of keys, and divisibility of a leading term is one
subtraction tested against the ring's guard bits, so the division loop needs
only the ring's three masks, which :class:`DivisorTable` carries.

The terms still to be reduced live in a heap (Monagan & Pearce, "Sparse
polynomial division using a heap", JSC 2011).  It holds negated keys, so its
smallest entry is the largest monomial.  A product term is pushed without
looking for an equal term already queued; over F2 equal tops popped in pairs
cancel, so only the parity of a monomial's copies counts.  A step therefore
costs O(len(g) log |heap|) rather than a copy of everything that is left.

Exponents never wrap.  Every head that survives cancellation is checked to
have no exponent above ``MAX_EXPONENT`` before it is reduced or kept, so
every remainder, and every basis built from remainders, stays in range.  A
product term then multiplies a quotient of such a head by a term of such a
basis element, so its exponents are at most ``2 * MAX_EXPONENT``, which fits
in a field (``FIELD_MAX``) without touching its guard bit.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .poly import ExponentOverflow


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

    ``terms``: packed keys sorted descending.  ``basis``: list of tuples of
    packed keys, each nonzero with its leading key first; ``table`` is its
    :class:`DivisorTable`.  The largest remaining term is reduced by the
    first basis element, in list order, whose leading term divides it.  One
    step is one such elimination; when ``steps`` would exceed ``max_steps``
    the result slot is None and the caller decides what the exhaustion means.
    Raises ExponentOverflow if a term that is not cancelled has an exponent
    above ``MAX_EXPONENT``.
    """
    ring = table.ring
    guard, one, limit = ring.guard_mask, ring.unit_key, ring.limit_mask
    leads, fits, candidates_of = table.leads, table.fits, table.candidates
    heap = [-t for t in terms]  # ascending, hence already a heap
    out = []
    steps = 0
    while heap:
        head = heappop(heap)
        odd = True
        while heap and heap[0] == head:
            heappop(heap)
            odd = not odd
        if not odd:
            continue
        m = -head
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
            out.append(m)  # irreducible: part of the remainder
            continue
        if steps >= max_steps:
            return None, steps
        steps += 1
        g = basis[b]
        quot = head + g[0]  # quot - t is the negated key of (m / lt(g)) * t
        for i in range(1, len(g)):
            heappush(heap, quot - g[i])
    return tuple(out), steps
