"""Steenrod squares on subtle Stiefel-Whitney classes.

Sq^k is defined on a single class by the Wu formula, extended to products by
the Cartan rule and to sums F2-linearly.  In the motivic flavor the ground
coefficients are H = F2[tau] and the Cartan rule picks up a factor of tau
exactly when both indices are odd (:func:`cartan`, :func:`thom_sq`).  The
topological flavor (w-generators, no tau) is the classical Wu/Cartan
calculus.  :func:`sq` computes only that classical calculus and puts tau back
from the bidegree: realization (tau -> 1, u_i -> w_i) sends the motivic Sq^k
to the classical one and is one-to-one on each bidegree.

The theta sequence theta_0 = u2, theta_{j+1} = Sq^{2^j} theta_j drives the
spin presentations in :mod:`subtlesw.spaces`.

Everything here is pure, the recursions are memoized, and contexts are
immutable and hashable.
"""

from __future__ import annotations

import functools
from operator import and_

from .poly import (
    INHOMOGENEOUS,
    ZERO_DEGREE,
    Bidegree,
    ExponentOverflow,
    Poly,
    RingError,
    bo_ring,
    bo_top_ring,
    bso_ring,
    bso_top_ring,
)


def binom_mod2(a, b):
    """C(a, b) mod 2 by the bitwise test; 0 for b < 0 or a < b."""
    if b < 0 or a < 0 or a < b:
        return 0
    return 1 if ((a - b) & b) == 0 else 0


class SteenrodContext:
    """A ring of subtle classes with the index range the action truncates to.

    ``n`` is the largest class index available; classes above it are zero.
    The flavor is read off the ring: a ``t`` generator means motivic
    (u-classes), otherwise topological (w-classes); a class of index 1 means
    O-flavor, otherwise SO-flavor where the index-1 class is the constant 0.
    """

    __slots__ = ("ring", "n", "motivic", "start", "_class_pos", "_forbidden", "_hash")

    def __init__(self, ring):
        self.ring = ring
        self.motivic = ring.has("t")
        # the ring admits a u- or w-name only as the class of index p >= 1
        classes = {}
        for pos, name in enumerate(ring.names):
            if name[0] in "uw":
                classes.setdefault(name[0], {})[ring.bidegrees[pos].p] = pos
        if not classes:
            raise RingError("ring has no u- or w-classes")
        if len(classes) > 1:
            raise RingError("ring mixes u- and w-classes")
        (letter, pos_map), = classes.items()
        if (letter == "u") != self.motivic:
            raise RingError("u-classes require t in the ring; w-classes forbid it")
        self.start = 1 if 1 in pos_map else 2
        self.n = n = max(pos_map)
        for i in range(self.start, n + 1):
            if i not in pos_map:
                raise RingError(f"class {letter}{i} missing from the ring")
        self._class_pos = pos_map
        # guard bits of the generators the action is undefined on: all but t and the classes
        self._forbidden = sum(p[0] for name, p in zip(ring.names, ring.pivots) if name[0] not in "tuw")
        self._hash = hash((ring, n))

    @property
    def flavor(self):
        base = ("b" + ("o" if self.start == 1 else "so"))
        return base if self.motivic else base + "_top"

    def class_poly(self, i):
        """The index-i class as a polynomial: 1 at i=0, 0 above n or at a
        missing index-1 class in SO flavor."""
        if i == 0:
            return self.ring.one
        if i > self.n or i < self.start:
            return self.ring.zero
        return Poly(self.ring, (self.ring.unit_key + self.ring.steps[self._class_pos[i]],))

    def _check_argument(self, x):
        if x.ring != self.ring:
            raise RingError("polynomial lies outside the context ring")
        ring = self.ring
        # a field of the AND of all keys stays all ones where every exponent is 0
        seen = functools.reduce(and_, x.keys, ring.unit_key)
        bad = ring.support(seen) & self._forbidden
        if bad:
            name = next(name for name, piv in zip(ring.names, ring.pivots) if piv[0] & bad)
            raise RingError(f"Steenrod action undefined on generator {name}")

    def __eq__(self, other):
        return (
            isinstance(other, SteenrodContext)
            and self.ring == other.ring
            and self.n == other.n
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<SteenrodContext {self.flavor} n={self.n}>"


@functools.lru_cache(maxsize=None)
def bso_context(n):
    return SteenrodContext(bso_ring(n))


@functools.lru_cache(maxsize=None)
def bo_context(n):
    return SteenrodContext(bo_ring(n))


@functools.lru_cache(maxsize=None)
def bso_top_context(n):
    return SteenrodContext(bso_top_ring(n))


@functools.lru_cache(maxsize=None)
def bo_top_context(n):
    return SteenrodContext(bo_top_ring(n))


def _cartan_sum(ctx, parts):
    """F2 sum of Cartan parts ``(a, b, Sq^a-side * Sq^b-side)``, each part
    times tau in the motivic flavor when a and b are both odd."""
    ring = ctx.ring
    acc = set()
    for a, b, part in parts:
        if ctx.motivic and a & b & 1:
            part = part * ring.gen("t")
        acc.symmetric_difference_update(part.keys)
    return ring.poly_of_keys(acc)


@functools.lru_cache(maxsize=None)
def _sq_gen(ctx, k, m):
    """Sq^k on the index-m class by the Wu formula, k <= m; classes past n are 0."""
    if k == m:
        c = ctx.class_poly(m)
        return c * c
    total = ctx.ring.zero
    for j in range(min(k, ctx.n - m) + 1):
        if binom_mod2(m + j - k - 1, j):
            total = total + ctx.class_poly(k - j) * ctx.class_poly(m + j)
    return total


@functools.lru_cache(maxsize=None)
def _sq_mono(ctx, k, key):
    """The classical Sq^k (the Wu and Cartan formulas with no tau) on the
    tau-free monomial with packed key ``key``; :func:`sq` puts tau back.

    The key is never decoded: the cohomological degree p is read off the p
    field, the parity of every exponent is the low bit of its field, and
    squares and square roots are doublings and halvings of the key (see
    :class:`~subtlesw.poly.Ring`).
    """
    ring = ctx.ring
    if k == 0:
        return Poly(ring, (key,))
    p = ring.key_bidegree(key).p
    if k > p:
        return ring.zero  # instability
    odd = ring.odd_positions(key)
    if not odd:
        if k & 1:
            return ring.zero
        one = ring.unit_key
        return _sq_mono(ctx, k >> 1, one + ((key - one) >> 1)).squared()
    pos = odd[0]
    m = ring.bidegrees[pos].p  # class index of the split-off generator
    rest = key - ring.steps[pos]
    acc = set()
    # Sq^{k-a} of the rest, of degree p - m, vanishes unless a >= k - (p - m)
    for a in range(max(0, k - (p - m)), min(k, m) + 1):
        left = _sq_gen(ctx, a, m)
        if left:
            acc.symmetric_difference_update((left * _sq_mono(ctx, k - a, rest)).keys)
    return ring.poly_of_keys(acc)


def _below_top(ctx, key, d, acc):
    """Add Sq^{p-1} of the tau-free monomial ``key`` = y of degree p >= 2,
    lifted to the combined degree d as in :func:`sq`, to the key set
    ``acc``, in closed form.

    By the Cartan rule and instability, Sq^{p-1} leaves exactly one factor
    u_m of y below its top square.  The e_m copies of u_m in y give equal
    parts, so only the classes of odd exponent count, and classically

        Sq^{p-1}(y) = sum over m with e_m odd of Sq^{m-1}(u_m) * (y/u_m)^2.

    So each part is the keys of Sq^{m-1}(u_m) shifted by one constant, and
    no two parts share a key.  Sq^{m-1}(u_m) is bihomogeneous, so the lift
    is one power of tau per part (:meth:`~subtlesw.poly.Ring.tau_power`);
    every key is then checked against ``limit_mask`` before anything
    cancels, as in a product.
    """
    ring = ctx.ring
    one = ring.unit_key
    seen = ring.limit_mask
    for pos in ring.odd_positions(key):
        m = ring.bidegrees[pos].p
        left = _sq_gen(ctx, m - 1, m).keys
        if not left:
            continue
        shift = 2 * (key - ring.steps[pos] - one)
        if ctx.motivic:
            shift += ring.tau_power(d - ((left[0] + shift) >> ring.degree_shift))
        part = [g + shift for g in left]
        seen = functools.reduce(and_, part, seen)
        acc.symmetric_difference_update(part)
    if seen != ring.limit_mask:
        raise ExponentOverflow


def sq(ctx, k, x):
    """Sq^k applied to x, termwise over F2.

    Bihomogeneous input of bidegree (q)[p] maps to (q + k//2)[p + k] or to
    zero; v-, x- and y-generators have no defined action and are rejected.
    Each term drops its tau^a, and Sq^k acts on the tau-free rest y
    classically: in closed form (:func:`_below_top`) when y has degree
    k + 1 >= 2, else by the memoized :func:`_sq_mono`.  Realization (tau -> 1,
    u_i -> w_i) sends the motivic Sq^k to the classical one and is one-to-one
    on each bidegree (Q)[P], where a tau-free z comes only as tau^(Q - q_z) z.
    So the motivic square of a term is its classical square with each key z
    raised to the combined degree d = deg(term) + k + k//2 by tau^(d - deg z),
    one :meth:`~subtlesw.poly.Ring.tau_power` per key.
    """
    if k < 0:
        raise ValueError("Sq index must be nonnegative")
    ctx._check_argument(x)
    ring = ctx.ring
    top = ring.degree_shift
    tau_step = ring.steps[ring.tau_index] if ctx.motivic else 0
    acc = set()
    for key in x.keys:
        d = (key >> top) + k + k // 2
        if tau_step:
            key -= ring.exponent(key, ring.tau_index) * tau_step
        if k and ring.key_bidegree(key).p == k + 1:
            _below_top(ctx, key, d, acc)
            continue
        res = _sq_mono(ctx, k, key).keys
        if tau_step:
            res = [z + ring.tau_power(d - (z >> top)) for z in res]
        acc.symmetric_difference_update(res)
    return ring.poly_of_keys(acc)


def cartan(ctx, k, x, y):
    """The Cartan expansion sum_{a+b=k} tau^(a,b both odd) Sq^a x * Sq^b y."""
    if k < 0:
        raise ValueError("Sq index must be nonnegative")
    ctx._check_argument(x)
    ctx._check_argument(y)
    parts = []
    for a in range(k + 1):
        left = sq(ctx, a, x)
        if not left:
            continue
        right = sq(ctx, k - a, y)
        if right:
            parts.append((a, k - a, left * right))
    return _cartan_sum(ctx, parts)


def theta(ctx, j):
    """theta_0 = the index-2 class; theta_{j+1} = Sq^{2^j} theta_j.

    In the topological flavor this is the classical rho sequence.  Each
    call squares up from theta_0 in a loop, nothing is memoized, and the
    loop stops at a zero theta, which every theta after it is, or at
    ``ExponentOverflow``.  Nothing bounds the work before either: at n = 7,
    theta_j has 2,859 / 35,094 / 431,654 terms at j = 8 / 10 / 12, about
    3.5 times more per step, and j = 40 runs for more than a minute.
    """
    if j < 0:
        raise ValueError("theta index must be nonnegative")
    if ctx.start != 2:
        raise RingError("theta is defined in the SO flavors")
    x = ctx.class_poly(2)
    for i in range(j):
        if not x:
            break
        x = sq(ctx, 1 << i, x)
    return x


class ThomModuleElement:
    """An element w * alpha of the rank-one free module over the class ring.

    alpha is a formal generator of bidegree (ctx.n // 2)[ctx.n]; the squares
    act through Sq^j alpha = u_j alpha for j <= ctx.n and 0 above.
    """

    __slots__ = ("ctx", "coefficient")

    def __init__(self, ctx, coefficient):
        if coefficient.ring != ctx.ring:
            raise RingError("coefficient lies outside the context ring")
        self.ctx = ctx
        self.coefficient = coefficient

    def __add__(self, other):
        if not isinstance(other, ThomModuleElement):
            raise TypeError(f"cannot combine ThomModuleElement with {type(other).__name__}")
        if self.ctx != other.ctx:
            raise RingError("Thom elements over different contexts")
        return ThomModuleElement(self.ctx, self.coefficient + other.coefficient)

    def __eq__(self, other):
        return (
            isinstance(other, ThomModuleElement)
            and self.ctx == other.ctx
            and self.coefficient == other.coefficient
        )

    def __hash__(self):
        return hash((self.ctx, self.coefficient))

    def __bool__(self):
        return bool(self.coefficient)

    def bidegree(self):
        bd = self.coefficient.bidegree()
        if bd is ZERO_DEGREE or bd is INHOMOGENEOUS:
            return bd
        return bd + Bidegree(self.ctx.n, self.ctx.n // 2)

    def __str__(self):
        if not self.coefficient:
            return "0"
        return f"({self.coefficient})*alpha"

    def __repr__(self):
        return f"ThomModuleElement({self})"


def thom_sq(ctx, k, e):
    """Sq^k(w * alpha) by the Cartan rule against Sq^b alpha = u_b alpha."""
    if k < 0:
        raise ValueError("Sq index must be nonnegative")
    if e.ctx != ctx:
        raise RingError("element lies over a different context")
    parts = []
    for b in range(min(k, ctx.n) + 1):
        factor = ctx.class_poly(b)
        if not factor:
            continue
        left = sq(ctx, k - b, e.coefficient)
        if left:
            parts.append((k - b, b, left * factor))
    return ThomModuleElement(ctx, _cartan_sum(ctx, parts))
