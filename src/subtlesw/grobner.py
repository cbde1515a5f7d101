"""Groebner bases, Hilbert series, and regular-sequence certification over F2.

The engine is Buchberger's algorithm with the two classical pair criteria
(coprime leading terms; the chain criterion).  It treats pairs in increasing
lcm order, the normal strategy; for homogeneous input this is the sugar
strategy.  Reduction runs in :mod:`subtlesw._reduction`.  Bases are fully
interreduced, so each ideal has one canonical basis for the ring's monomial
order regardless of generator order.  Every element joins already reduced
by the ones before it, so the final interreduction sends to the kernel only
the tails that a later leading term can reach: one of lower degree than the
element's lead, or one equal to a tail term.

Hilbert series of quotients are exact bivariate rational functions computed
from the leading-term ideal by the standard pivot recursion on monomial
ideals: for any monomial p, N(I) = N(I + (p)) + T^pS^q * N(I : p).  A
generator that shares no variable with the others splits off as a factor
(1 - T^pS^q) at every node (Bayer & Stillman, JSC 1992).

A normal form by a reduced basis drops the terms that a variable leading
the basis divides before the kernel runs, charging one unit each, which is
what the kernel would spend on them (see ``GroebnerBasis._remainder``).

Regularity of a homogeneous sequence is certified step by step: f is regular
on R/J exactly when the Hilbert series drops by the factor (1 - T^p S^q) of
f's bidegree, which is decided by exact numerator comparison.  While the
basis of J + (f) is built, the numerator of its leading terms is kept
current, and pairs below the lowest degree where it differs from the
expected one are skipped, since they reduce to zero (Traverso, "Hilbert
functions and the Buchberger algorithm", JSC 1996).
"""

from __future__ import annotations

import heapq
import operator

from . import _reduction
from ._reduction import DivisorTable
from .poly import FIELD_MAX, INHOMOGENEOUS, Poly, RingError, ZERO_DEGREE, xor_runs

DEFAULT_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """A Groebner computation ran out of its reduction budget."""

    def __init__(self, used, limit, context=""):
        self.used = used
        self.limit = limit
        self.context = context
        msg = f"budget exceeded after {used} of {limit} reduction steps"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class InhomogeneousError(ValueError):
    pass


class Budget:
    """Shared counter of reduction work: a unit per processed pair, division
    step, term that ``GroebnerBasis._remainder`` drops and stopped kernel call.

    Beside ``used`` it counts, at no cost, what became of the work (see
    ``_buchberger``).  ``pairs`` counts the pairs made; ``skipped`` those
    the Hilbert criterion of a seeded append skipped, ``coprime`` those
    dropped for coprime leading terms and ``chained`` those the chain
    criterion dropped; ``zeros`` the processed pairs whose S-polynomial is
    zero or reduces to zero.  ``kernel_calls`` and ``kernel_steps`` count
    the reduction kernel's calls and their steps, which are part of
    ``used``; a call stopped at the limit counts with the steps it took.
    """

    __slots__ = ("limit", "used", "context", "pairs", "skipped", "coprime", "chained", "zeros",
                 "kernel_calls", "kernel_steps")

    def __init__(self, limit=DEFAULT_BUDGET, context=""):
        limit = operator.index(limit)
        if limit < 0:
            raise ValueError("budget must be nonnegative")
        self.limit = limit
        self.used = 0
        self.context = context
        self.pairs = self.skipped = self.coprime = self.chained = self.zeros = 0
        self.kernel_calls = self.kernel_steps = 0

    @property
    def remaining(self):
        return self.limit - self.used

    def charge(self, n=1):
        """Spend ``n`` units.  A charge past the limit stops at limit + 1
        and raises, so every overrun reports the same count."""
        self.used += n
        if self.used > self.limit:
            self.used = self.limit + 1
            raise BudgetExceeded(self.used, self.limit, self.context)


def _resolve_budget(budget, context=""):
    """``budget`` itself if it is a Budget, else a new one of that limit
    (the default for None) that names ``context`` when it runs out."""
    if isinstance(budget, Budget):
        return budget
    return Budget(DEFAULT_BUDGET if budget is None else budget, context)


# -- key space -----------------------------------------------------------------
# The Groebner layer works on Poly.keys, tuples of packed keys (see poly.Ring):
# one int per monomial, sorted descending, so native int order is the monomial
# order.  A shift by a monomial is one addition per term, and divisibility is
# the guard-bit test of a DivisorTable, which is kept beside every basis.


def _kernel_nf(terms, basis, table, budget):
    nf, steps = _reduction.normal_form_terms(terms, basis, table, budget.remaining)
    budget.kernel_calls += 1
    budget.kernel_steps += steps
    budget.charge(steps + (nf is None))  # a kernel stopped at the limit raises
    return nf


def _buchberger(ring, key_polys, budget, known=None):
    """The reduced Groebner basis of ``known`` and ``key_polys``.

    Pairs are treated in increasing lcm order; for homogeneous input this is
    the sugar strategy, since the sugar of a pair is the degree of its lcm,
    the top field of its key.  Returns a GroebnerBasis.
    A new element's lcms with the leading terms before it are computed in
    one call and serve both its pairs and the Hilbert colon below; each is
    the sum of the two keys minus their gcd's key, which a dict of this run
    keeps by the gcd's exponent fields (see ``Ring.key_lcms``).  An
    S-polynomial is the F2 sum of the two shifted tails, both descending
    runs, by ``poly.xor_runs``.  The chain
    criterion looks for a leading term that divides a pair's lcm only
    among the candidates of the divisor table for the lcm's support, the
    leads whose support lies inside it, as every divisor's does.

    ``key_polys`` are nonzero key polynomials.  ``known`` is None for a plain
    run, or a GroebnerBasis of homogeneous polynomials, as this function
    returns it, that the ideal already contains: its ``_keys`` seed G, and
    pairs are formed only with the new elements.  Every pair of ``known`` already
    reduces to zero by ``known``, whose elements stay in G until the final
    interreduction (but for the variables that sit out an append, below),
    so the chain criterion may count those pairs as treated.

    A ``known`` basis, even the empty one, makes the run a seeded append:
    ``key_polys`` is one key polynomial f, already reduced by ``known``,
    which joins G as it is, and the result is None when f is not regular
    on R/(known).  The variables that lead ``known``, its first
    ``_drop.bit_count()`` keys (see ``_leading_variables``), sit out the
    run: they are not in G, the
    pair queue, the divisor table or the numerators, and they rejoin the
    result.  Neither f nor any other element of ``known`` has a term that
    they divide, so no S-polynomial or product of the kernel has one either:
    they reduce nothing, and each of their pairs has coprime leading terms.
    With V their ideal and L the other leading terms, L and every m below
    lie in the other variables, so N(V + L) = N(V) N(L) and
    (V + L) : m = V + (L : m); each numerator of the run, its expected one
    and its gap share the factor N(V), which has constant term 1.  Taking
    it out changes neither the lowest degree of the gap nor whether it is
    empty, and multiplying by it is injective, so the floor, the verdict
    and the final check below are those of the whole of G.
    The expected numerator is N(R/L) (1 - T^pS^q), with (p, q) f's
    bidegree, the numerator of R/(L + f) when f is regular.  The run keeps
    one numerator, the gap N(R/LT(G)) - expected, which starts at
    T^pS^q N(R/L).  A new leading term m of bidegree (p, q) takes
    T^pS^q N(L : m) off it, since N(L + (m)) = N(L) - T^pS^q N(L : m)
    (Traverso, JSC 1996).  LT(G) lies in LT(I), and the series of R/I is at
    least the expected one coefficientwise, so below the lowest combined
    degree of the gap LT(G) is all of LT(I): a pair whose lcm lies there
    reduces to zero, and it is skipped as treated.  An empty gap means G is
    a basis and f is regular; an empty queue with a gap left means G is a
    basis and f is not.  So does a popped pair whose lcm has a higher
    degree than the gap's lowest: every pair of lower degree is treated,
    so G is a basis below that degree, and LT(G) is LT(I) where the series
    of R/I misses the expected one.  At the end the numerator of the
    minimal leading terms of G, computed from scratch, must be the
    expected one plus the gap, else ArithmeticError is raised; the verdict
    is whether the gap is empty.

    The final interreduction keeps the minimal elements of G and reduces
    the tail of one only when a kept lead added to G after it has a lower
    degree than its own lead or equals one of its tail terms.  Each tail is
    already reduced by the elements before it in G: ``known`` is reduced,
    and every other element was reduced by G when it joined.  No tail term
    has a higher degree than its lead, so a later lead of the same or a
    higher degree divides a tail term only by being equal to it.  The
    kernel would take no step on any other tail, so the result, its steps
    and its units are those of reducing every tail.
    """
    one, guard = ring.unit_key, ring.guard_mask
    lcms_of = ring.key_lcms
    gcds = {}  # a gcd's exponent fields -> its key, for lcms_of
    append = known is not None
    keys = known._keys if append else []
    cut = known._drop.bit_count() if append else 0
    inert, G = keys[:cut], keys[cut:]  # inert: the variables that sit out
    lts = [f[0] for f in G]  # G's leading keys
    table = DivisorTable(ring, lts)  # grows with G
    leads, fits, candidates_of = table.leads, table.fits, table.candidates
    pairs = set()  # open pairs (i, j), read by the chain criterion
    queue = []  # the same pairs as a heap of (lcm, (i, j))
    floor = 0  # pairs whose lcm key sorts below floor reduce to zero; None: G is a basis
    degree = 1 << ring.degree_shift  # one combined degree, in key units

    def add(f):
        nonlocal gap, floor
        m = f[0]
        lcms = lcms_of(m, lts, gcds)
        if append:
            colon = _minimalize(ring, [lcm - m + one for lcm in lcms])
            gap = _p2_axpy(gap, -1, *ring.key_bidegree(m), _lt_numerator(ring, colon))
            floor = min(p + q for p, q in gap) << ring.degree_shift if gap else None
        j = len(G)
        G.append(f)
        lts.append(m)
        table.append(m)
        budget.pairs += len(lcms)
        for i, lcm in enumerate(lcms):
            pairs.add((i, j))
            heapq.heappush(queue, (lcm, (i, j)))

    if append:
        (f,) = key_polys
        base = _lt_numerator(ring, lts)
        p, q = ring.key_bidegree(f[0])
        expected = _p2_axpy(base, -1, p, q, base)
        gap = _p2_axpy({}, 1, p, q, base)
        add(f)
    else:
        for f in sorted(key_polys):
            nf = _kernel_nf(f, G, table, budget)
            if nf:
                add(nf)

    while queue and floor is not None:
        lcm, (i, j) = heapq.heappop(queue)
        pairs.remove((i, j))
        if lcm < floor:
            budget.skipped += 1  # below the gap degree: reduces to zero
            continue
        if append and lcm >= floor + degree:
            break  # above the gap degree: G is a basis there, and f is not regular
        lti, ltj = lts[i], lts[j]
        if lti + ltj - one == lcm:
            budget.coprime += 1  # coprime leading terms reduce to zero
            continue
        support = ((lcm ^ one) + one) & guard
        candidates = fits.get(support)
        if candidates is None:
            candidates = candidates_of(support)
        chained = False
        for k in candidates:
            if (leads[k] - lcm) & guard != guard or k == i or k == j:
                continue
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a not in pairs and b not in pairs:
                chained = True  # the chain criterion
                break
        if chained:
            budget.chained += 1
            continue
        budget.charge(1)
        qf = lcm - lti
        qg = lcm - ltj
        spoly = xor_runs([t + qf for t in G[i][1:]], [t + qg for t in G[j][1:]])
        nf = _kernel_nf(spoly, G, table, budget) if spoly else ()
        if nf:
            add(nf)
        else:
            budget.zeros += 1

    # Minimal generators, ascending, for the check and the interreduction;
    # every element of G was reduced by the ones before it, so no two share
    # a leading term.  Interreduction keeps the leading terms, so the result
    # stays ascending.
    minimal = _minimalize(ring, lts)
    if append:
        if _lt_numerator(ring, minimal) != _p2_axpy(expected, 1, 0, 0, gap):
            raise ArithmeticError("the running Hilbert numerator disagrees with the basis")
        if gap:
            return None
    by_lead = dict(zip(lts, G))
    minimal = [by_lead[lt] for lt in minimal]
    table = DivisorTable(ring, [f[0] for f in minimal])
    # The reach rule of the docstring, in one reverse pass over G that keeps
    # the kept leads added after f and their lowest degree.  f's own lead
    # never reduces its tail: in a graded order a monomial never divides a
    # smaller one.  A monomial has no tail to reduce.
    shift = ring.degree_shift
    kept = {f[0] for f in minimal}
    later, low, reach = set(), float("inf"), set()
    for f in reversed(G):
        m = f[0]
        if m in kept:
            d = m >> shift
            if len(f) > 1 and (low < d or not later.isdisjoint(f)):
                reach.add(m)
            later.add(m)
            low = min(low, d)
    final = [
        (f[0],) + _kernel_nf(f[1:], minimal, table, budget) if f[0] in reach else f
        for f in minimal
    ]
    return GroebnerBasis(ring, [Poly(ring, f) for f in sorted(inert + final, reverse=True)])


def _leading_variables(ring, basis):
    """Guard bits of the variables that lead ``basis``, a key basis in
    ascending order: its run of one-term elements unit_key + step."""
    one, steps = ring.unit_key, set(ring.steps)
    bits = 0
    for f in basis:
        if len(f) > 1 or f[0] - one not in steps:
            break
        bits |= ring.support(f[0])
    return bits


# -- public objects ------------------------------------------------------------


class GroebnerBasis:
    """Reduced basis; the tuple of polynomials is sorted by leading term.

    ``polys`` lists the largest leading term first.  ``_keys``, the basis in
    key space, lists the smallest first: the kernel reduces by the first
    element in list order whose leading term divides, so the smallest
    reducer is tried first, which takes fewer steps to the same unique
    remainder.  Its ``_table`` and ``_drop`` (see ``_leading_variables``)
    are built with it.  Every element must be a nonzero polynomial of ``ring``.
    """

    __slots__ = ("ring", "polys", "_keys", "_table", "_drop", "_last")

    def __init__(self, ring, polys):
        polys = tuple(polys)
        for p in polys:
            if p.ring is not ring and p.ring != ring:
                raise RingError("basis element lies in a different ring")
            if not p:
                raise ValueError("a basis element is zero")
        self.ring = ring
        self.polys = polys
        self._keys = sorted(p.keys for p in polys)
        self._table = DivisorTable(ring, [f[0] for f in self._keys])
        self._drop = _leading_variables(ring, self._keys)
        self._last = None  # (polynomial, budget, remainder keys) of the last reduction

    def _remainder(self, x, budget):
        """Remainder keys of ``x``.  The last remainder is kept, with the
        budget it was charged to: a request for that same polynomial object
        under that same budget returns it without reducing, or charging,
        again, so a budget pays once for each reduction done under it.  The
        zero polynomial is its own remainder and costs nothing.

        The terms that a variable at the start of the key basis divides are
        dropped before the kernel runs, at one budget unit each.  The kernel
        would spend exactly that: it tries those variables first, in list
        order, and removes each such term in one step with no tail.  In a
        reduced basis no other element has a term that a basis variable
        divides, so no later step makes or cancels such a term, and the
        remainder, the steps and the budget units do not change.
        """
        if not x.keys:
            return ()
        last = self._last
        if last is not None and last[0] is x and last[1] is budget:
            return last[2]
        terms, drop = x.keys, self._drop
        if drop:
            one = self.ring.unit_key
            terms = [t for t in terms if not ((t ^ one) + one) & drop]
            budget.charge(len(x.keys) - len(terms))
        nf = _kernel_nf(terms, self._keys, self._table, budget) if terms else ()
        self._last = (x, budget, nf)
        return nf

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.polys == other.polys
        )

    def __hash__(self):
        return hash((self.ring, self.polys))

    def __repr__(self):
        return "GroebnerBasis[" + "; ".join(str(p) for p in self.polys) + "]"


def groebner_basis(ring, gens, budget=None):
    """Reduced Groebner basis of the ideal generated by ``gens``."""
    budget = _resolve_budget(budget)
    keys = []
    for g in gens:
        if g.ring != ring:
            raise RingError("generator lies in a different ring")
        if g:
            keys.append(g.keys)
    return _buchberger(ring, keys, budget)


def normal_form(x, gb, budget=None):
    """Unique remainder of ``x`` modulo the reduced basis ``gb``."""
    if x.ring != gb.ring:
        raise RingError("polynomial lies in a different ring")
    budget = _resolve_budget(budget)
    return Poly(x.ring, gb._remainder(x, budget))


def ideal_member(x, gb, budget=None):
    """Whether ``x`` lies in the ideal presented by ``gb``."""
    return not normal_form(x, gb, budget)


# -- Hilbert series ------------------------------------------------------------


def _p2_axpy(a, sign, p, q, b):
    """The numerator a + sign * T^p S^q * b; a times (1 - T^p S^q) is
    ``_p2_axpy(a, -1, p, q, a)``.  Numerators are {(p, q): coefficient}
    dicts without zero coefficients."""
    out = dict(a)
    for (bp, bq), v in b.items():
        k = (bp + p, bq + q)
        c = out.get(k, 0) + sign * v
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out


def _minimalize(ring, keys):
    """Minimal generators of the monomial ideal of ``keys``, ascending.

    The order is graded, so every divisor of a key sorts before it, and one
    ascending pass with the guard test keeps exactly the minimal ones.
    """
    guard = ring.guard_mask
    out, leads = [], []
    for k in sorted(set(keys)):
        for h in leads:
            if (h - k) & guard == guard:
                break
        else:
            out.append(k)
            leads.append(k | guard)
    return tuple(out)


def _pivot(ring, linked, shared):
    """One pivot step on the minimal generators ``linked``, (key, support)
    pairs in ascending order, that share the variables of ``shared``:
    (p, q, plus, colon) with (p, q) the bidegree of x^e, plus the minimal
    generators of I + (x^e) and colon those of I : x^e, both ascending.

    x is the variable of ``shared`` in the most generators, first in ring
    order on ties, and e is its least exponent among them.  Every generator
    with x is a multiple of x^e, so I + (x^e) is the generators without x
    plus x^e.  Dividing the multiples of x by x^e keeps every divisibility
    among them, and none of them is divisible by a generator without x, so
    the only generators that can leave I : x^e are those without x that a
    quotient freed of x divides.
    """
    one, guard = ring.unit_key, ring.guard_mask
    best = 0
    for pivot in ring.pivots:
        bit = pivot[0]
        if bit & shared:
            count = 0
            for _, s in linked:
                if s & bit:
                    count += 1
            if count > best:
                best, chosen = count, pivot
    bit, shift, step, p, q = chosen
    low = max(g >> shift & FIELD_MAX for g, s in linked if s & bit)  # the field of x^e
    e = FIELD_MAX - low
    down = e * step
    rest, moved, freed = [], [], []
    for g, s in linked:
        if not s & bit:
            rest.append(g)
        else:
            h = g - down
            moved.append(h)
            if g >> shift & FIELD_MAX == low:
                freed.append(h | guard)
    plus = sorted(rest + [one + down])
    kept = []
    for g in rest:
        for h in freed:
            if (h - g) & guard == guard:
                break
        else:
            kept.append(g)
    return e * p, e * q, plus, sorted(moved + kept)


def _lt_numerator(ring, gens):
    """Numerator of the Hilbert series of R/I, for I the monomial ideal of
    its minimal generators ``gens``, ascending (see ``_minimalize``).

    The pivot recursion N(I) = N(I + (x^e)) + T^pS^q * N(I : x^e), where
    (p, q) is the bidegree of x^e, runs on minimal generators (see
    ``_pivot``).  At every node a generator that shares no variable with
    the others is factored out: I is then the sum of two ideals in disjoint
    variables, so N(I) is the product of their numerators, and one monomial
    of bidegree (p, q) has the numerator 1 - T^pS^q (Bayer & Stillman, JSC
    1992; Bigatti, JPAA 1997).  A node whose generators are pairwise coprime
    is that product alone.
    """
    one, guard, bidegree = ring.unit_key, ring.guard_mask, ring.key_bidegree

    def rec(gens):
        if gens and gens[0] == one:
            return {}  # the whole ring
        sups = [((g ^ one) + one) & guard for g in gens]
        seen = shared = 0
        for s in sups:
            shared |= seen & s
            seen |= s
        res = {(0, 0): 1}
        if shared:
            linked = [(g, s) for g, s in zip(gens, sups) if s & shared]
            p, q, plus, colon = _pivot(ring, linked, shared)
            res = _p2_axpy(rec(plus), 1, p, q, rec(colon))
        for g, s in zip(gens, sups):
            if not s & shared:
                res = _p2_axpy(res, -1, *bidegree(g), res)
        return res

    return rec(gens)


class HilbertSeries:
    """Exact bigraded Hilbert series: numerator over prod(1 - T^p S^q).

    The denominator always lists one factor per ring generator, so equality
    testing cross-multiplies numerators against the uncommon factors.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator):
        self.numerator = {k: v for k, v in numerator.items() if v}
        self.denominator = tuple(sorted(denominator))

    def __eq__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        mine = list(self.denominator)
        theirs = list(other.denominator)
        for f in list(mine):
            if f in theirs:
                mine.remove(f)
                theirs.remove(f)
        a, b = self.numerator, other.numerator
        for p, q in theirs:
            a = _p2_axpy(a, -1, p, q, a)
        for p, q in mine:
            b = _p2_axpy(b, -1, p, q, b)
        return a == b

    def times_factor(self, p, q):
        """Multiply the series by (1 - T^p S^q)."""
        return HilbertSeries(_p2_axpy(self.numerator, -1, p, q, self.numerator), self.denominator)

    def expand(self, max_d):
        """Coefficients {(p, q): dim} up to combined degree max_d."""
        if max_d < 0:
            raise ValueError("expansion degree must be nonnegative")
        cur = {k: v for k, v in self.numerator.items() if k[0] + k[1] <= max_d}
        for (p, q) in self.denominator:
            nxt = {}
            for a in range(max_d + 1):
                for b in range(max_d + 1 - a):
                    v = cur.get((a, b), 0)
                    if a >= p and b >= q:
                        v += nxt.get((a - p, b - q), 0)
                    if v:
                        nxt[(a, b)] = v
            cur = nxt
        for v in cur.values():
            if v < 0:
                raise ArithmeticError("negative coefficient in a Hilbert expansion")
        return cur

    def to_json(self):
        num = sorted(((p, q), c) for (p, q), c in self.numerator.items())
        return {
            "numerator": [[c, p, q] for (p, q), c in num],
            "denominator": [[p, q] for (p, q) in self.denominator],
        }

    def __repr__(self):
        return f"HilbertSeries({self.numerator!r} / {self.denominator!r})"


def hilbert_series(gb):
    """Exact Hilbert series of R/I from a reduced basis of a homogeneous I."""
    ring = gb.ring
    for p in gb.polys:
        if p.bidegree() is INHOMOGENEOUS:
            raise InhomogeneousError(f"ideal generator {p} is not bihomogeneous")
    num = _lt_numerator(ring, _minimalize(ring, [p.keys[0] for p in gb.polys]))
    return HilbertSeries(num, [(bd.p, bd.q) for bd in ring.bidegrees])


def krull_dimension(gb):
    """Dimension of R/I: the largest variable set independent modulo LT(I).

    A set S is independent when no leading-term generator has support inside
    S; the answer is nvars minus a minimum hitting set of the supports, here
    bitmasks of guard bits.
    """
    ring = gb.ring
    supports = [ring.support(k) for k in _minimalize(ring, [p.keys[0] for p in gb.polys])]
    if 0 in supports:
        return -1  # the ideal is the whole ring

    def min_hit(remaining):
        if not remaining:
            return 0
        sup = min(remaining, key=int.bit_count)
        best = None
        while sup:
            bit = sup & -sup
            sup ^= bit
            cand = 1 + min_hit([s for s in remaining if not s & bit])
            if best is None or cand < best:
                best = cand
        return best

    return len(ring.names) - min_hit(supports)


class RegularSequenceChecker:
    """Incremental regular-sequence certifier.

    ``append(f)`` decides whether f is a nonzerodivisor on the current
    quotient R/J.  An f that reduces to zero lies in J, so it is a zero
    divisor, because R/J is not 0 (J is generated in positive degree).
    When f was just reduced by ``basis`` under the checker's ``budget``
    (``ideal_member`` or ``normal_form``), that remainder is reused; under
    another budget f is reduced again.  A nonzero remainder joins
    the basis as it is, without a second reduction, the basis grows by its
    pairs only, and the exact Hilbert-series drop decides; pairs
    below the lowest degree where the series still misses it are skipped
    (see ``_buchberger``).  On success the ideal grows by f, on
    failure the state is unchanged.  ``basis`` is the reduced basis of the
    ideal accumulated so far, built once per successful append.
    """

    __slots__ = ("ring", "budget", "_basis", "length")

    def __init__(self, ring, budget=None):
        self.ring = ring
        self.budget = _resolve_budget(budget)
        self._basis = GroebnerBasis(ring, ())
        self.length = 0

    def append(self, f):
        _check_element(self.ring, f)
        nf = self._basis._remainder(f, self.budget)
        if not nf:
            return False
        found = _buchberger(self.ring, [nf], self.budget, self._basis)
        if found is None:
            return False
        self._basis = found
        self.length += 1
        return True

    @property
    def basis(self):
        return self._basis


def _check_element(ring, f, name="sequence element"):
    """Raise unless ``f`` lies in ``ring`` and is zero or bihomogeneous of
    positive combined degree; ``name`` names f in the error."""
    if f.ring != ring:
        raise RingError(f"{name} lies in a different ring")
    bd = f.bidegree()
    if bd is INHOMOGENEOUS:
        raise InhomogeneousError(f"{name} is not bihomogeneous")
    if bd is not ZERO_DEGREE and bd.d <= 0:
        raise ValueError(f"{name} must have positive combined degree")


def is_regular_sequence(ring, seq, budget=None):
    """Certify a homogeneous sequence by exact Hilbert-series drops.

    Returns (True, None) or (False, i) with ``i`` the 1-based index of the
    first element that fails (a zero element fails at its own index).
    Inhomogeneous or degree-zero elements are errors.
    """
    seq = list(seq)
    for idx, f in enumerate(seq, 1):
        _check_element(ring, f, f"element {idx}")
    checker = RegularSequenceChecker(ring, budget)
    for idx, f in enumerate(seq, 1):
        if not checker.append(f):
            return (False, idx)
    return (True, None)
