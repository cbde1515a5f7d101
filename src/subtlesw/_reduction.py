"""The reduction kernel: division by a Groebner basis over F2, with a heap.

Monomials arrive as "key vectors": integer tuples of length L whose
lexicographic comparison realises the ring's monomial order (entry 0 is the
combined degree, the rest are negated exponents in reversed tie-break order).
Multiplication is componentwise addition and divisibility of leading terms is
a componentwise comparison of entries 1..L-1, so the division loop never needs
the ring itself.

The terms still to be reduced live in a heap (Monagan & Pearce, "Sparse
polynomial division using a heap", JSC 2011).  It holds negated keys, so its
smallest entry is the largest monomial and entries 1..L-1 are the exponents
themselves.  A product term is pushed without looking for an equal term
already queued; over F2 equal tops popped in pairs cancel, so only the parity
of a monomial's copies counts.  A step therefore costs O(len(g) log |heap|)
rather than a copy of everything that is left.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import add, neg, sub


def normal_form_terms(terms, basis, L, max_steps):
    """Fully reduce ``terms`` by ``basis``; return (result, steps).

    ``terms``: monomial key tuples sorted descending.  ``basis``: list of such
    tuples-of-tuples, each nonzero with its leading key first.  The largest
    remaining term is reduced by the first basis element, in list order,
    whose leading term divides it.  One step is one such elimination; when
    ``steps`` would exceed ``max_steps`` the result slot is None and the
    caller decides what the exhaustion means.
    """
    leads = [tuple(map(neg, g[0])) for g in basis]
    # supports as one byte per key entry, without entry 0 (the degree)
    body = (1 << 8 * (L - 1)) - 1
    supports = [int.from_bytes(bytes(map(bool, d)), "big") & body for d in leads]
    fits = {}  # head support -> basis indices whose leading support lies inside it
    heap = [tuple(map(neg, t)) for t in terms]  # ascending, hence already a heap
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
        support = bytes(map(bool, head))
        candidates = fits.get(support)
        if candidates is None:
            miss = ~int.from_bytes(support, "big")
            candidates = fits[support] = [b for b, s in enumerate(supports) if not s & miss]
        # the first candidate with no exponent above the head's divides it
        for b in candidates:
            lead = leads[b]
            for r in range(1, L):
                if lead[r] > head[r]:
                    break
            else:
                break
        else:
            out.append(tuple(map(neg, head)))  # irreducible: part of the remainder
            continue
        if steps >= max_steps:
            return None, steps
        steps += 1
        g = basis[b]
        quot = tuple(map(add, head, g[0]))  # the negated quotient head / lt(g)
        for i in range(1, len(g)):
            heappush(heap, tuple(map(sub, quot, g[i])))
    return tuple(out), steps
