"""Bigraded polynomial arithmetic over F2.

Polynomials live in finitely generated bigraded rings over F2.  Every
generator carries a bidegree, written ``(q)[p]`` with ``p`` the cohomological
degree and ``q`` the weight.  Coefficients are implicit (they are all 1), so a
polynomial is a finite set of monomials and addition is symmetric difference.

The distinguished weight-only generator is printed ``t`` and has bidegree
(1)[0].  Subtle classes ``u_i`` live in ([i/2])[i], their topological shadows
``w_i`` in (0)[i], and the extra spin classes ``v_{2^k}`` in (2^{k-1})[2^k].

Monomials are compared in graded reverse lexicographic order with respect to
the combined degree d = p + q; ties are broken by generator list order with
``t`` last, so ``t`` is the cheapest variable.
"""

from __future__ import annotations

import functools
import re
from operator import and_, mul
from typing import NamedTuple

#: The largest exponent of one generator in a monomial.  Exponents grow
#: with the thetas: at n = 7 theta_j's largest is 2**(j-1) - 1 for
#: j = 2..11 (127 at j = 8, 1,023 at j = 11).  Every operation on a packed
#: key (add, compare, hash, guard test) costs in proportion to its width,
#: so the limit is kept small; past it ``ExponentOverflow`` is raised,
#: never a wrapped result.
MAX_EXPONENT = 2**15 - 1

#: Width of one exponent field of a packed key, and its largest value.  A
#: field holds any sum of two exponents up to MAX_EXPONENT, so a product of
#: two in-range monomials never wraps.
FIELD_BITS = 16
FIELD_MAX = 2**FIELD_BITS - 1
_FIELD_WIDTH = FIELD_BITS + 1  # the field and its guard bit

#: Markers returned by :meth:`Poly.bidegree` for the two degenerate cases.
INHOMOGENEOUS = "inhomogeneous"
ZERO_DEGREE = "zero"  # the zero polynomial is homogeneous of every bidegree


class RingError(ValueError):
    pass


class ParseError(ValueError):
    pass


class ExponentOverflow(OverflowError):
    def __init__(self, message=f"monomial exponent exceeds {MAX_EXPONENT.bit_length()} bits"):
        super().__init__(message)


class Bidegree(NamedTuple):
    """Cohomological degree ``p`` and weight ``q``, printed ``(q)[p]``."""

    p: int
    q: int

    def __add__(self, other):
        return Bidegree(self.p + other.p, self.q + other.q)

    @property
    def d(self):
        """Combined degree p + q."""
        return self.p + self.q

    def __str__(self):
        return f"({self.q})[{self.p}]"


_NAME_RE = re.compile(r"^(t|[uwvxy](0|[1-9][0-9]*))$")


def _check_generator(name, bd):
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise RingError(f"generator name {name!r} is not printable in the term grammar")
    if bd.p < 0 or bd.q < 0:
        raise RingError(f"generator {name}: bidegree components must be nonnegative")
    if bd.p + bd.q == 0:
        raise RingError(f"generator {name}: combined degree must be positive")
    if name == "t":
        if (bd.p, bd.q) != (0, 1):
            raise RingError("t must have bidegree (1)[0]")
        return
    letter, idx = name[0], int(name[1:])
    if letter == "u":
        if idx < 1 or (bd.p, bd.q) != (idx, idx // 2):
            raise RingError(f"u{idx} must have bidegree ({idx // 2})[{idx}]")
    elif letter == "w":
        if idx < 1 or (bd.p, bd.q) != (idx, 0):
            raise RingError(f"w{idx} must have bidegree (0)[{idx}]")
    elif letter == "v":
        if idx < 2 or idx & (idx - 1):
            raise RingError(f"v{idx}: index must be a power of two, at least 2")
        if bd.p != idx or bd.q not in (idx // 2, 0):
            raise RingError(f"v{idx} must have bidegree ({idx // 2})[{idx}] or (0)[{idx}]")
    # x/y generators carry whatever bidegree the caller wants.


class Ring:
    """An ordered list of bigraded generators and the induced monomial order.

    ``generators`` lists (name, Bidegree) pairs.  Names must be printable in
    the term grammar (t, or one of u/w/v/x/y followed by an index) and the
    named classes must carry their standard bidegrees; x and y generators
    are unconstrained apart from positivity.

    A monomial is an exponent tuple aligned with the generator list.  Its
    sort key, the form a :class:`Poly` stores, packs it into one nonnegative
    int whose native order is the graded reverse lexicographic order
    (Bachmann & Schoenemann, "Monomial representations for Groebner bases
    computations", ISSAC 1998).  The combined degree sits in the top,
    unbounded field.  Below it lies one ``FIELD_BITS``-bit field per
    generator, in reversed tie-break order (``t`` first, then the list
    reversed), holding ``FIELD_MAX - e``; one zero guard bit sits above each
    field.  Below every exponent field lies the p field, which holds
    ``p_max - p`` for the cohomological degree p, with
    ``p_max = FIELD_MAX * sum(p_i)`` over the generators' p_i, and a zero
    guard bit above it; a ring whose generators all have p = 0 has none.
    It behaves as one more complemented exponent field, and it sits lowest
    because p is a function of the exponents, so it never decides the
    order.  With exponents at most ``FIELD_MAX``:

    * the key of a product is ``a + b - unit_key``, where ``unit_key`` is the
      key of the monomial 1 (every field ``FIELD_MAX``, p field ``p_max``,
      degree 0); ``steps[i]`` moves the degree, the field of generator i
      and the p field by one power of generator i;
    * the bidegree is one mask and one shift (:meth:`key_bidegree`);
    * ``a`` divides ``b`` exactly when
      ``((a | guard_mask) - b) & guard_mask == guard_mask``: a field borrows
      from its guard bit exactly when ``a``'s exponent there exceeds
      ``b``'s, and the p field borrows only when ``a``'s p exceeds ``b``'s,
      which cannot happen when ``a`` divides ``b``;
    * ``((a ^ unit_key) + unit_key) & guard_mask`` keeps the guard bits of
      the fields whose exponent is nonzero (:meth:`support`); a carry out
      of the p field stops at its own guard bit;
    * ``a & limit_mask == limit_mask`` exactly when no exponent of ``a``
      exceeds ``MAX_EXPONENT``;
    * ``FIELD_MAX`` is odd, so the low bit of a field is set exactly when
      its exponent is even (``low_mask`` holds those bits);
    * the key of ``a`` squared is ``2 * a - unit_key``, and a key whose
      exponents are all even is the square of ``unit_key + ((a - unit_key) >> 1)``.

    ``guard_mask``, ``limit_mask`` and ``low_mask`` hold bits of the
    exponent fields only.  ``pivots`` lists, in generator order, what the
    Hilbert numerator recursion, :meth:`key_lcms` and the decoders read of
    each generator: its guard bit, the shift of its field, its step, and
    its p and q.
    """

    __slots__ = (
        "names",
        "bidegrees",
        "_index",
        "tau_index",
        "unit_key",
        "guard_mask",
        "limit_mask",
        "low_mask",
        "degree_shift",
        "steps",
        "_odd_position",
        "_fields",
        "pivots",
        "_p_max",
        "_p_mask",
        "_hash",
    )

    def __init__(self, generators):
        gens = []
        for name, bd in generators:
            if not isinstance(bd, Bidegree):
                bd = Bidegree(*bd)
            _check_generator(name, bd)
            gens.append((name, bd))
        names = tuple(name for name, _ in gens)
        if len(set(names)) != len(names):
            raise RingError("duplicate generator names")
        # an empty generator list is allowed: the ring is the ground field
        self.names = names
        self.bidegrees = tuple(bd for _, bd in gens)
        self._index = {name: i for i, name in enumerate(names)}
        self.tau_index = self._index.get("t")
        d = [bd.p + bd.q for bd in self.bidegrees]
        tiebreak = [i for i in range(len(names)) if i != self.tau_index]
        if self.tau_index is not None:
            tiebreak.append(self.tau_index)
        # the p field and its guard bit lie lowest; a ring without p has none
        self._p_max = p_max = FIELD_MAX * sum(bd.p for bd in self.bidegrees)
        width = p_max.bit_length()
        self._p_mask = (1 << width) - 1
        base = width + 1 if width else 0
        # the last generator to break ties owns the most significant field
        shifts = [0] * len(names)
        for r, i in enumerate(tiebreak):
            shifts[i] = base + r * _FIELD_WIDTH
        self.degree_shift = top = base + len(names) * _FIELD_WIDTH
        self._fields = sum(FIELD_MAX << s for s in shifts)
        self.unit_key = self._fields + p_max
        self.guard_mask = sum(1 << s + FIELD_BITS for s in shifts)
        self.limit_mask = sum(1 << s + FIELD_BITS - 1 for s in shifts)
        self.low_mask = sum(1 << s for s in shifts)
        self._odd_position = {1 << s: i for i, s in enumerate(shifts)}
        # steps[i] multiplies by generator i: its degree up, its field one
        # down, the p field down by its p
        self.steps = tuple(
            (w << top) - (1 << s) - bd.p for w, s, bd in zip(d, shifts, self.bidegrees)
        )
        self.pivots = tuple(
            (1 << s + FIELD_BITS, s, step, bd.p, bd.q)
            for s, step, bd in zip(shifts, self.steps, self.bidegrees)
        )
        self._hash = hash((self.names, self.bidegrees))

    # -- basic queries -----------------------------------------------------

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.names == other.names
            and self.bidegrees == other.bidegrees
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Ring(" + ",".join(self.names) + ")"

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise RingError(f"unknown generator {name!r}") from None

    def has(self, name):
        return name in self._index

    # -- monomial order ----------------------------------------------------

    def sort_key(self, mono):
        """The packed key of an exponent tuple; see the class docstring."""
        return sum(map(mul, mono, self.steps), self.unit_key)

    def from_sort_key(self, key):
        """The exponent tuple of a packed key."""
        return tuple([FIELD_MAX - (key >> v[1] & FIELD_MAX) for v in self.pivots])

    def exponent(self, key, pos):
        """Exponent of generator ``pos`` in the monomial with packed key ``key``."""
        return FIELD_MAX - (key >> self.pivots[pos][1] & FIELD_MAX)

    def odd_positions(self, key):
        """Positions of the generators with an odd exponent in ``key``, in
        tie-break order (list order, ``t`` last)."""
        odd = ~key & self.low_mask
        out = []
        while odd:
            bit = odd & -odd
            out.append(self._odd_position[bit])
            odd ^= bit
        return out

    def key_bidegree(self, key):
        """Bidegree of the monomial with packed key ``key``: p is read off
        the p field, and q is the rest of the combined degree."""
        p = self._p_max - (key & self._p_mask)
        return Bidegree(p, (key >> self.degree_shift) - p)

    def support(self, key):
        """Guard bits of the generators with a nonzero exponent in ``key``."""
        return ((key ^ self.unit_key) + self.unit_key) & self.guard_mask

    def key_lcms(self, a, keys, gcds):
        """Packed keys of the least common multiples of ``a`` with each of
        ``keys``, in their order.

        Keys add, so ``a + b`` is the key of the lcm plus the key of the
        gcd, and the lcm is ``a + b`` minus the gcd's key.  The gcd's
        exponent fields are picked from ``a`` and ``b`` with one guard-bit
        select; its degree and p take a pass over the fields.  ``gcds``, a
        dict the caller owns, maps the exponent fields of each gcd met so
        far to its key, so that pass runs once per distinct gcd.
        """
        guard, fields, shift, p_max = self.guard_mask, self._fields, self.degree_shift, self._p_max
        top = a | guard
        out = []
        for b in keys:
            # guard bits of the fields where a's exponent is at most b's,
            # widened to masks of those fields: the gcd takes a's field
            # there, b's elsewhere; where a's p exceeds b's the p field
            # borrows from the lowest field, which flips its choice only
            # when the two exponents there agree
            ge = (top - b) & guard
            take_a = ge - (ge >> FIELD_BITS)
            body = (a & take_a) | (b & (fields ^ take_a))
            gcd = gcds.get(body)
            if gcd is None:
                p = q = 0
                for _, s, _, pw, qw in self.pivots:
                    e = FIELD_MAX - (body >> s & FIELD_MAX)
                    p += pw * e
                    q += qw * e
                gcd = gcds[body] = ((p + q) << shift) | body | (p_max - p)
            out.append(a + b - gcd)
        return out

    # -- element construction ----------------------------------------------

    @property
    def zero(self):
        return Poly(self, ())

    @property
    def one(self):
        return Poly(self, (self.unit_key,))

    def gen(self, name):
        return Poly(self, (self.unit_key + self.steps[self.index(name)],))

    def tau_power(self, c):
        """The key offset of t^c, c >= 0: adding it to the key of a
        monomial multiplies that monomial by t^c.

        For c past ``MAX_EXPONENT`` this raises ``ExponentOverflow`` before
        any shift: a shift that far could carry out of the t field, unseen
        by ``limit_mask``.  Up to the limit, the t exponent of a key in
        range stays inside its field, so ``limit_mask`` catches a sum past
        the limit.
        """
        if c > MAX_EXPONENT:
            raise ExponentOverflow
        return c * self.steps[self.tau_index]

    def monomial(self, exps):
        """Poly with the single monomial given by a name -> exponent mapping."""
        e = [0] * len(self.names)
        for name, k in exps.items():
            if k < 0 or k > MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {k} for {name} out of range")
            e[self.index(name)] = k
        return Poly(self, (self.sort_key(e),))

    def poly(self, monos):
        """Canonical Poly from exponent sequences counted mod 2.

        A monomial listed twice cancels.  Every sequence must have one
        exponent per generator, each in 0..``MAX_EXPONENT``.
        """
        n = len(self.names)
        acc = set()
        for m in monos:
            m = tuple(m)
            if len(m) != n:
                raise RingError(f"monomial {m} needs {n} exponents")
            if m and (min(m) < 0 or max(m) > MAX_EXPONENT):
                raise ExponentOverflow(f"monomial {m} has an exponent outside 0..{MAX_EXPONENT}")
            k = self.sort_key(m)
            if k in acc:
                acc.remove(k)
            else:
                acc.add(k)
        return self.poly_of_keys(acc)

    def poly_of_keys(self, keys):
        """Canonical Poly from a set of packed keys, an F2 sum already
        collected (for instance with ``symmetric_difference_update``)."""
        return Poly(self, tuple(sorted(keys, reverse=True)))


def xor_runs(a, b):
    """The F2 sum of two descending runs of keys, both lists or both
    tuples, as a descending list: their merge without the keys found in
    both.  Sorting the concatenation of two descending runs merges them in
    linear time."""
    if len(a) < len(b):
        a, b = b, a
    keys = sorted(a + b, reverse=True)
    both = set(b).intersection(a)
    if both:
        keys = [k for k in keys if k not in both]
    return keys


class Poly:
    """Immutable F2 polynomial: a tuple of packed keys sorted descending.

    ``keys`` is the only stored form (see :class:`Ring`); native int order
    is the monomial order, so the largest monomial comes first.  ``terms``
    is the same monomials as exponent tuples, in the same order, decoded
    on each access.  Build through the Ring helpers, :func:`parse_poly`, or
    arithmetic; ``Poly(ring, keys)`` takes keys that are already canonical.
    """

    __slots__ = ("ring", "keys")

    def __init__(self, ring, keys):
        self.ring = ring
        self.keys = keys

    @property
    def terms(self):
        return tuple(map(self.ring.from_sort_key, self.keys))

    def __bool__(self):
        return bool(self.keys)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.keys == other.keys
        )

    def __hash__(self):
        return hash((self.ring, self.keys))

    def _check_ring(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"cannot combine Poly with {type(other).__name__}")
        if other.ring != self.ring:
            raise RingError("polynomials belong to different rings")

    def __add__(self, other):
        """The F2 sum, by :func:`xor_runs` on the two key tuples."""
        self._check_ring(other)
        return Poly(self.ring, tuple(xor_runs(self.keys, other.keys)))

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        self._check_ring(other)
        ring = self.ring
        one, limit = ring.unit_key, ring.limit_mask
        seen = limit  # AND of every product key, before any cancels
        acc = set()
        for a in self.keys:
            a -= one
            row = [a + b for b in other.keys]
            seen = functools.reduce(and_, row, seen)
            acc.symmetric_difference_update(row)
        if seen != limit:
            raise ExponentOverflow
        return ring.poly_of_keys(acc)

    def squared(self):
        """This polynomial squared: over F2 the sum of the squares of its terms.

        Doubling every key keeps the order, so nothing is multiplied or
        sorted; the exponent limit is checked as in a product.
        """
        one, limit = self.ring.unit_key, self.ring.limit_mask
        keys = tuple(k + k - one for k in self.keys)
        if functools.reduce(and_, keys, limit) != limit:
            raise ExponentOverflow
        return Poly(self.ring, keys)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base.squared()
        return result

    def lead_monomial(self):
        if not self.keys:
            raise ValueError("the zero polynomial has no leading monomial")
        return self.ring.from_sort_key(self.keys[0])

    def bidegree(self):
        """Common Bidegree, ZERO_DEGREE for 0, or INHOMOGENEOUS.

        Nothing is decoded.  The keys are sorted and the degree is their top
        field, so the first and last keys share a degree exactly when all
        do; one pass then compares the p fields of all the keys.
        """
        keys = self.keys
        if not keys:
            return ZERO_DEGREE
        ring = self.ring
        top = ring.degree_shift
        if keys[0] >> top != keys[-1] >> top or len(set(map(ring._p_mask.__and__, keys))) > 1:
            return INHOMOGENEOUS
        return ring.key_bidegree(keys[0])

    def __str__(self):
        if not self.keys:
            return "0"
        names = self.ring.names
        parts = []
        for m in self.terms:
            facs = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, m)
                if e
            ]
            parts.append("*".join(facs) if facs else "1")
        return "+".join(parts)

    def __repr__(self):
        return f"<{self}>"


# -- parsing and printing ----------------------------------------------------

_FACTOR_RE = re.compile(r"\s*(?:(?P<name>[a-z][0-9]*)\s*(?:\^\s*(?P<exp>[0-9]+)\s*)?|(?P<num>[0-9]+)\s*)")


def parse_poly(ring, text):
    """Parse ``poly := term ('+' term)*`` with terms ``factor ('*' factor)*``.

    Factors are ``gen ('^' uint)?`` or the literals 0 and 1.  Whitespace is
    ignored; unknown generators are errors.  The text is split on '+', each
    term on '*', and each factor is one match of ``_FACTOR_RE``.
    """
    if not text.strip():
        raise ParseError("empty polynomial")
    monos = []
    for term in text.split("+"):
        exps = [0] * len(ring.names)
        dead = False
        for factor in term.split("*"):
            m = _FACTOR_RE.fullmatch(factor)
            if m is None:
                raise ParseError(f"malformed factor {factor.strip()!r}")
            name, exp, num = m.group("name", "exp", "num")
            if name is not None:
                idx = ring.index(name)
                exps[idx] += 1 if exp is None else int(exp)
                if exps[idx] > MAX_EXPONENT:
                    raise ExponentOverflow
            elif num == "0":
                dead = True
            elif num != "1":
                raise ParseError(f"bare integer {num} is not a factor")
        if not dead:
            monos.append(exps)
    return ring.poly(monos)


# -- ring homomorphisms -------------------------------------------------------


class RingMap:
    """Generator-wise substitution map between rings.

    ``images`` lists one target Poly per source generator.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target, images):
        images = tuple(images)
        if len(images) != len(source.names):
            raise RingError("need exactly one image per source generator")
        for img in images:
            if img.ring != target:
                raise RingError("image polynomial lies in the wrong ring")
        self.source = source
        self.target = target
        self.images = images

    def __call__(self, x):
        """The image of ``x``: each generator replaced by its image."""
        if x.ring != self.source:
            raise RingError("polynomial is not in the map's source ring")
        acc = set()
        for mono in x.terms:
            prod = self.target.one
            for img, e in zip(self.images, mono):
                if e and prod:
                    prod = prod * img**e
            acc.symmetric_difference_update(prod.keys)
        return self.target.poly_of_keys(acc)

    def __repr__(self):
        return f"RingMap({self.source!r} -> {self.target!r})"


# -- standard rings -----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _class_ring(n, start, motivic):
    """F2[t][u_start..u_n] when ``motivic``, else F2[w_start..w_n]: the
    class ring of every standard family.  Call it with all three arguments
    positionally, so that one ring has one cache entry."""
    if n < start:
        raise RingError(f"need n >= {start}")
    letter, gens = ("u", [("t", Bidegree(0, 1))]) if motivic else ("w", [])
    gens += [(f"{letter}{i}", Bidegree(i, i // 2 if motivic else 0)) for i in range(start, n + 1)]
    return Ring(gens)


def bo_ring(n):
    """H(BO_n) = F2[t][u1..un]."""
    return _class_ring(n, 1, True)


def bso_ring(n):
    """H(BSO_n) = F2[t][u2..un]."""
    return _class_ring(n, 2, True)


def bo_top_ring(n):
    """Classical H(BO_n; F2) = F2[w1..wn]."""
    return _class_ring(n, 1, False)


def bso_top_ring(n):
    """Classical H(BSO_n; F2) = F2[w2..wn]."""
    return _class_ring(n, 2, False)
