"""Independent slow-path oracles for the test suite.

Everything here is deliberately naive (exhaustive enumeration, textbook
formulas, one F2 eliminator on sets of columns for Macaulay-matrix membership,
echelon forms and nullspaces) and shares no code with the kernels under test,
so agreement is meaningful.
"""

import functools
import itertools
import math


def _exponent_cap(ring, i, p, q):
    """The largest exponent of generator i within the bidegree (q)[p]."""
    bp, bq = ring.bidegrees[i]
    caps = []
    if bp:
        caps.append(p // bp)
    if bq:
        caps.append(q // bq)
    return min(caps)


@functools.lru_cache(maxsize=None)
def _reachable(ring, i, p, q):
    """Whether some exponents of generators i, i + 1, ... make up (q)[p].
    Kept across calls: the test rings are few and their states small."""
    if i == len(ring):
        return p == 0 and q == 0
    bp, bq = ring.bidegrees[i]
    return any(_reachable(ring, i + 1, p - e * bp, q - e * bq) for e in range(_exponent_cap(ring, i, p, q) + 1))


@functools.lru_cache(maxsize=None)
def _count(ring, i, p, q):
    """How many exponents of generators i, i + 1, ... make up (q)[p]."""
    if i == len(ring):
        return int(p == 0 and q == 0)
    bp, bq = ring.bidegrees[i]
    return sum(_count(ring, i + 1, p - e * bp, q - e * bq) for e in range(_exponent_cap(ring, i, p, q) + 1))


def monomials_of_bidegree(ring, p, q):
    """Every exponent tuple of bidegree exactly (q)[p], lexicographically
    ascending.  A branch is entered only when the generators after it can
    still make up what is left of the bidegree."""
    n = len(ring)
    out = []
    acc = [0] * n

    def rec(i, p_left, q_left):
        if i == n:
            out.append(tuple(acc))
            return
        bp, bq = ring.bidegrees[i]
        for e in range(_exponent_cap(ring, i, p_left, q_left) + 1):
            if _reachable(ring, i + 1, p_left - e * bp, q_left - e * bq):
                acc[i] = e
                rec(i + 1, p_left - e * bp, q_left - e * bq)
        acc[i] = 0

    if p >= 0 and q >= 0 and _reachable(ring, 0, p, q):
        rec(0, p, q)
    return out


def count_standard_monomials(ring, lead_exponents, p, q):
    """Monomials of bidegree (q)[p] not divisible by any leading exponent."""
    count = 0
    for m in monomials_of_bidegree(ring, p, q):
        if not any(all(a >= b for a, b in zip(m, lt)) for lt in lead_exponents):
            count += 1
    return count


def krull_dimension_by_subsets(ring, lead_exponents):
    """Size of the largest generator set that contains the support of no
    leading exponent, by trying every subset; -1 when there is none (a
    leading exponent of 1 lies inside every set: the unit ideal)."""
    supports = [{i for i, e in enumerate(m) if e} for m in lead_exponents]
    best = -1
    for size in range(len(ring) + 1):
        for chosen in itertools.combinations(range(len(ring)), size):
            if not any(sup <= set(chosen) for sup in supports):
                best = size
    return best


def reduced_echelon(rows):
    """The reduced echelon basis over F2 of the span of ``rows``, as
    {lead: row} in ascending order of the leads.

    Each row is the set of its 1-columns (column indices, exponent tuples:
    any labels that compare) and is led by its smallest column.  Every basis
    row holds its own lead and no other, so one pass over the basis reduces
    a new row fully.
    """
    basis = {}
    for row in rows:
        row = set(row)
        for lead, pivot in basis.items():
            if lead in row:
                row ^= pivot
        if row:
            lead = min(row)
            for pivot in basis.values():
                if lead in pivot:
                    pivot ^= row
            basis[lead] = row
    return dict(sorted(basis.items()))


def _columns(vec):
    return {j for j, v in enumerate(vec) if v}


def _dense(cols, dim):
    return tuple(int(j in cols) for j in range(dim))


def echelonize(rows):
    """Reduced row echelon form over F2 of equal-length 0/1 rows, no zero row."""
    dim = len(rows[0]) if rows else 0
    return [_dense(row, dim) for row in reduced_echelon(map(_columns, rows)).values()]


def nullspace(matrix):
    """Reduced echelon basis of {y : M y = 0} for a square 0/1 matrix M, from
    one vector per free column of its reduced echelon form: the free column
    f, and each pivot column whose row holds f (-r[f] = r[f] over F2)."""
    m = len(matrix)
    pivots = reduced_echelon(map(_columns, matrix))
    free = [{f, *(p for p, row in pivots.items() if f in row)} for f in range(m) if f not in pivots]
    return tuple(_dense(row, m) for row in reduced_echelon(free).values())


def macaulay_member(x, gens):
    """Degreewise ideal membership over F2 by linear algebra.

    x must be bihomogeneous; gens bihomogeneous and nonzero.  Builds all
    monomial multiples of the generators landing in x's bidegree and checks
    whether x lies in their span.
    """
    if not x.terms:
        return True
    ring = x.ring
    bd = x.bidegree()
    rows = []
    for g in gens:
        if not g.terms:
            continue
        bg = g.bidegree()
        dp, dq = bd.p - bg.p, bd.q - bg.q
        if dp < 0 or dq < 0:
            continue
        for m in monomials_of_bidegree(ring, dp, dq):
            rows.append({tuple(a + b for a, b in zip(m, t)) for t in g.terms})
    basis = reduced_echelon(rows)
    return len(reduced_echelon([*basis.values(), x.terms])) == len(basis)


# -- the monomial order as key tuples -----------------------------------------
# subtlesw packs each monomial into one int; these tuple keys realise the same
# graded reverse lexicographic order by plain tuple comparison, and are the
# reference the packed keys are checked against.


def _reversed_tiebreak(ring):
    """Generator indices from the first to break ties (t) to the last."""
    tiebreak = [i for i, name in enumerate(ring.names) if name != "t"]
    if ring.has("t"):
        tiebreak.append(ring.index("t"))
    return tiebreak[::-1]


def grevlex_key(ring, mono):
    """``(d, -e[perm[0]], -e[perm[1]], ...)``, perm the reversed tie-break."""
    w = sum(e * (bd.p + bd.q) for e, bd in zip(mono, ring.bidegrees))
    return (w,) + tuple(-mono[i] for i in _reversed_tiebreak(ring))


def from_grevlex_key(ring, key):
    exps = [0] * len(ring)
    for r, i in enumerate(_reversed_tiebreak(ring)):
        exps[i] = -key[1 + r]
    return tuple(exps)


# -- Poly arithmetic on exponent tuples ---------------------------------------
# The textbook F2 rules on exponent tuples, listed largest first by the tuple
# key above.  subtlesw.poly stores packed keys and adds them instead; the terms
# of its sums and products must equal these.


def _descending(ring, monos):
    return tuple(sorted(monos, key=lambda m: grevlex_key(ring, m), reverse=True))


def add_terms(ring, x, y):
    """Terms of x + y: the symmetric difference of the two term sets."""
    return _descending(ring, set(x) ^ set(y))


def mul_terms(ring, x, y, max_exponent):
    """Terms of x * y: every pairwise exponent sum, counted mod 2.

    Raises OverflowError when any of those sums, cancelled or not, has an
    exponent above ``max_exponent``.
    """
    acc = set()
    for a in x:
        for b in y:
            m = tuple(i + j for i, j in zip(a, b))
            if any(e > max_exponent for e in m):
                raise OverflowError(f"{a} * {b} exceeds {max_exponent}")
            acc ^= {m}
    return _descending(ring, acc)


# The list-merge reduction kernel, kept as the reference for the heap kernel
# in subtlesw._reduction: same reducer choice, same steps, on key tuples.


def _merge_xor(a, start, b):
    """XOR-merge the descending lists a[start:] and b into a fresh list."""
    out = []
    i, j = start, 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ta, tb = a[i], b[j]
        if ta == tb:
            i += 1
            j += 1
        elif ta > tb:
            out.append(ta)
            i += 1
        else:
            out.append(tb)
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def normal_form_terms(terms, basis, L, max_steps):
    """Fully reduce ``terms`` by ``basis``; return (result, steps).

    ``terms``: monomial key tuples sorted descending.  ``basis``: list of such
    tuples-of-tuples, each nonzero with its leading key first.  One step is
    one leading-term elimination; when ``steps`` would exceed ``max_steps``
    the result slot is None and the caller decides what the exhaustion means.
    """
    lts = [g[0] for g in basis]
    nb = len(basis)
    work = list(terms)
    out = []
    steps = 0
    s = 0
    while s < len(work):
        head = work[s]
        hit = -1
        for b in range(nb):
            lt = lts[b]
            for r in range(1, L):
                if lt[r] < head[r]:
                    break
            else:
                hit = b
                break
        if hit < 0:
            out.append(head)
            s += 1
            continue
        if steps >= max_steps:
            return None, steps
        steps += 1
        g = basis[hit]
        lt = g[0]
        quot = tuple(head[r] - lt[r] for r in range(L))
        shifted = [tuple(t[r] + quot[r] for r in range(L)) for t in g[1:]]
        work = _merge_xor(work, s + 1, shifted)
        s = 0
    return tuple(out), steps


def packed_normal_form_terms(terms, basis, table, max_steps):
    """The reference under the packed-key kernel's contract.

    Unpacks the keys, reduces their tuple keys with ``normal_form_terms`` and
    packs the remainder again.
    """
    ring = table.ring

    def key(k):
        return grevlex_key(ring, ring.from_sort_key(k))

    nf, steps = normal_form_terms(
        tuple(map(key, terms)), [tuple(map(key, g)) for g in basis], len(ring) + 1, max_steps
    )
    if nf is None:
        return None, steps
    return tuple(ring.sort_key(from_grevlex_key(ring, k)) for k in nf), steps


def classical_sq_gen(ring, k, m, n):
    """Textbook Wu formula for Sq^k w_m with classes truncated above n.

    Computed with math.comb, sets, and nothing from the package internals
    (w_1 is treated as a real class when the ring has it, else as 0).
    """
    def cls(i):
        if i == 0:
            return {()}  # marker for the empty product
        if i > n or not ring.has(f"w{i}"):
            return None
        return {(f"w{i}",)}

    def times(a, b):
        if a is None or b is None:
            return None
        return {tuple(sorted(x + y)) for x in a for y in b}

    if k > m:
        return set()
    if k == m:
        base = cls(m)
        return set() if base is None else {tuple(sorted(w + w)) for w in base}
    acc = set()
    for j in range(k + 1):
        if math.comb(m + j - k - 1, j) % 2 == 0:
            continue
        prod = times(cls(k - j), cls(m + j))
        if prod:
            acc ^= prod
    return acc


def theta_by_newton(ring, n, j):
    """theta_j, j >= 1, in ``ring`` = F2[w2..wn], as the power sum
    p_{2^j+1} of the roots of the total Stiefel-Whitney class.

    With w_2 = e_2 of the roots, theta_1 = Sq^1 w_2 is the sum of
    x_i^2 x_l over i != l, and Sq^{2^j}(x_i^{2^j} x_l) = x_i^{2^{j+1}} x_l,
    so theta_j = p_{2^j} p_1 + p_{2^j+1} = p_{2^j+1}, as w_1 = p_1 = 0
    (Quillen, Math. Ann. 194, 1971).  Newton's identity mod 2 gives
    p_k = sum_{i=2}^{min(k-1, n)} w_i p_{k-i}, plus w_k when k is odd and
    k <= n.  No Steenrod square is taken: each p_k is a set of packed keys,
    and w_i times a monomial adds w_i's step to its key.
    """
    step = {i: ring.steps[ring.index(f"w{i}")] for i in range(2, n + 1)}
    p = [None, set()]  # p_0 is never read
    for k in range(2, (1 << j) + 2):
        acc = {ring.unit_key + step[k]} if k & 1 and k <= n else set()
        for i in range(2, min(k - 1, n) + 1):
            acc ^= {key + step[i] for key in p[k - i]}
        p.append(acc)
    return ring.poly_of_keys(p[-1])


def names_to_poly(ring, name_tuples):
    """Rebuild a Poly from the name-multiset encoding used by the oracle."""
    monos = []
    for names in name_tuples:
        e = [0] * len(ring)
        for nm in names:
            e[ring.index(nm)] += 1
        monos.append(tuple(e))
    return ring.poly(monos)


def monomial_bidegree(ring, mono):
    """Bidegree of an exponent tuple: the exponent-weighted sum of the
    generators' bidegrees."""
    p = sum(e * bd.p for e, bd in zip(mono, ring.bidegrees))
    q = sum(e * bd.q for e, bd in zip(mono, ring.bidegrees))
    return p, q


def random_monomial(ring, rng, max_factors):
    e = [0] * len(ring)
    for _ in range(rng.randint(1, max_factors)):
        e[rng.randrange(len(ring))] += 1
    return tuple(e)


POOL_LIMIT = 200_000


def random_bihomogeneous(ring, rng, max_factors=4, max_terms=4):
    """A random nonzero bihomogeneous polynomial with a few terms, drawn
    from every monomial of a random monomial's bidegree.  That pool is
    counted first: above ``POOL_LIMIT`` monomials it raises ValueError
    rather than list them."""
    m0 = random_monomial(ring, rng, max_factors)
    p, q = monomial_bidegree(ring, m0)
    size = _count(ring, 0, p, q)
    if size > POOL_LIMIT:
        raise ValueError(f"{size} monomials of bidegree ({q})[{p}] exceed the pool limit {POOL_LIMIT}")
    pool = monomials_of_bidegree(ring, p, q)
    rng.shuffle(pool)
    take = pool[: rng.randint(1, min(max_terms, len(pool)))]
    return ring.poly(take)


# -- Steenrod squares by the termwise fold ------------------------------------
# The Wu/Cartan recursion with every F2 sum built as a fold ``acc = acc + part``,
# which re-sorts the whole running sum after each part.  subtlesw.steenrod
# collects each sum in one set and sorts it once; the results must be equal.


def _fold_binom(a, b):
    return math.comb(a, b) % 2 if 0 <= b <= a else 0


def _fold_tau(ctx, x):
    return ctx.ring.gen("t") * x


@functools.lru_cache(maxsize=None)
def _fold_gen(ctx, k, m):
    if k == 0:
        return ctx.class_poly(m)
    if k > m:
        return ctx.ring.zero
    if k == m:
        c = ctx.class_poly(m)
        return c * c
    acc = ctx.ring.zero
    for j in range(k + 1):
        if _fold_binom(m + j - k - 1, j):
            acc = acc + ctx.class_poly(k - j) * ctx.class_poly(m + j)
    return acc


@functools.lru_cache(maxsize=None)
def _fold_mono(ctx, k, mono):
    ring = ctx.ring
    if ctx.motivic and mono[ring.tau_index]:
        rest = list(mono)
        rest[ring.tau_index] = 0
        return ring.monomial({"t": mono[ring.tau_index]}) * _fold_mono(ctx, k, tuple(rest))
    if k == 0:
        return ring.poly([mono])
    if k > sum(e * bd.p for e, bd in zip(mono, ring.bidegrees)):
        return ring.zero
    odd = [pos for pos, e in enumerate(mono) if e & 1]
    if not odd:
        if k & 1:
            return ring.zero
        c = k >> 1
        inner = _fold_mono(ctx, c, tuple(e >> 1 for e in mono))
        res = inner * inner
        return _fold_tau(ctx, res) if ctx.motivic and c & 1 else res
    pos = odd[0]
    m = ring.bidegrees[pos].p
    rest = list(mono)
    rest[pos] -= 1
    acc = ring.zero
    for a in range(min(k, m) + 1):
        part = _fold_gen(ctx, a, m) * _fold_mono(ctx, k - a, tuple(rest))
        if ctx.motivic and a & 1 and (k - a) & 1:
            part = _fold_tau(ctx, part)
        acc = acc + part
    return acc


def sq_by_fold(ctx, k, x):
    """Sq^k x as the termwise fold over the monomials of x."""
    acc = ctx.ring.zero
    for mono in x.terms:
        acc = acc + _fold_mono(ctx, k, mono)
    return acc


def cartan_by_fold(ctx, k, x, y):
    """sum_{a+b=k} tau^(a,b both odd) Sq^a x * Sq^b y, folded part by part."""
    acc = ctx.ring.zero
    for a in range(k + 1):
        part = sq_by_fold(ctx, a, x) * sq_by_fold(ctx, k - a, y)
        if ctx.motivic and a & 1 and (k - a) & 1:
            part = _fold_tau(ctx, part)
        acc = acc + part
    return acc


def thom_sq_by_fold(ctx, k, w):
    """The coefficient of Sq^k(w * alpha), with Sq^b alpha = (index-b class) alpha."""
    acc = ctx.ring.zero
    for b in range(min(k, ctx.n) + 1):
        part = sq_by_fold(ctx, k - b, w) * ctx.class_poly(b)
        if ctx.motivic and (k - b) & 1 and b & 1:
            part = _fold_tau(ctx, part)
        acc = acc + part
    return acc


# -- Hilbert numerators by the plain pivot recursion ----------------------------
# Pivots on a single variable, minimalises both children and factors out only
# pure powers; subtlesw.grobner._lt_numerator must give the same numerators.


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
        if not any((h - k) & guard == guard for h in leads):
            out.append(k)
            leads.append(k | guard)
    return tuple(out)


def lt_numerator(ring, leads):
    """Numerator of the Hilbert series of R/(monomial ideal of ``leads``)."""
    one = ring.unit_key
    support = ring.support
    bidegs = [(bd.p, bd.q) for bd in ring.bidegrees]
    bits = [support(one + step) for step in ring.steps]  # in ring order
    generator_of = {bit: i for i, bit in enumerate(bits)}
    memo = {}

    def rec(gens):
        hit = memo.get(gens)
        if hit is not None:
            return hit
        sups = [support(g) for g in gens]
        mixed = [s for s in sups if s & (s - 1)]
        if not gens:
            res = {(0, 0): 1}
        elif gens[0] == one:
            res = {}  # the whole ring
        elif not mixed:
            res = {(0, 0): 1}
            for g, s in zip(gens, sups):
                p, q = bidegs[generator_of[s]]
                e = ring.key_bidegree(g).d // (p + q)
                res = _p2_axpy(res, -1, e * p, e * q, res)
        else:
            # the first generator, in ring order, in the most mixed supports
            counts = [sum(1 for s in mixed if s & bit) for bit in bits]
            j = counts.index(max(counts))
            bit, step = bits[j], ring.steps[j]
            plus = [g for g, s in zip(gens, sups) if not s & bit] + [one + step]
            colon = [g - step if s & bit else g for g, s in zip(gens, sups)]
            res = _p2_axpy(rec(_minimalize(ring, plus)), 1, *bidegs[j], rec(_minimalize(ring, colon)))
        memo[gens] = res
        return res

    return rec(_minimalize(ring, leads))
