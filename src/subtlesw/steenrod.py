"""Steenrod squares on subtle Stiefel-Whitney classes.

Sq^k is defined on a single class by the Wu formula, extended to products by
the Cartan rule and to sums F2-linearly.  In the motivic flavor the ground
coefficients are H = F2[tau] and the Cartan rule picks up a factor of tau
exactly when both indices are odd; squares obey Sq^{2c}(z^2) = tau^(c mod 2)
(Sq^c z)^2.  The topological flavor (w-generators, no tau) degenerates to the
classical Wu/Cartan calculus.

The theta sequence theta_0 = u2, theta_{j+1} = Sq^{2^j} theta_j drives the
spin presentations in :mod:`subtlesw.spaces`.

Everything here is pure, the recursions are memoized, and contexts are
immutable and hashable.
"""

from __future__ import annotations

import functools
import re
from operator import and_

from .poly import (
    INHOMOGENEOUS,
    MAX_EXPONENT,
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


_CLASS_RE = re.compile(r"^([uw])([0-9]+)$")


class SteenrodContext:
    """A ring of subtle classes with the index range the action truncates to.

    ``n`` is the largest class index available; classes above it are zero.
    The flavor is read off the ring: a ``t`` generator means motivic
    (u-classes), otherwise topological (w-classes); a class of index 1 means
    O-flavor, otherwise SO-flavor where the index-1 class is the constant 0.
    """

    __slots__ = (
        "ring", "n", "letter", "motivic", "start", "_class_pos", "_forbidden", "_hash"
    )

    def __init__(self, ring):
        self.ring = ring
        self.motivic = ring.has("t")
        classes = {}
        for pos, name in enumerate(ring.names):
            m = _CLASS_RE.match(name)
            if m:
                classes.setdefault(m.group(1), {})[int(m.group(2))] = pos
        if not classes:
            raise RingError("ring has no u- or w-classes")
        if len(classes) > 1:
            raise RingError("ring mixes u- and w-classes")
        (self.letter, pos_map), = classes.items()
        if (self.letter == "u") != self.motivic:
            raise RingError("u-classes require t in the ring; w-classes forbid it")
        self.start = 1 if 1 in pos_map else 2
        n = max(pos_map)
        if n < self.start:
            raise RingError(f"need at least the index-{self.start} class")
        for i in range(self.start, n + 1):
            if i not in pos_map:
                raise RingError(f"class {self.letter}{i} missing from the ring")
        self.n = n
        self._class_pos = {i: pos_map[i] for i in range(self.start, n + 1)}
        allowed = set(self._class_pos.values())
        if self.motivic:
            allowed.add(ring.tau_index)
        # guard bits of the generators the action is undefined on
        off = ring.sort_key([0 if pos in allowed else 1 for pos in range(len(ring))])
        self._forbidden = ring.support(off)
        self._hash = hash((ring, n, self.letter))

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
            pos = next(i for i, step in enumerate(ring.steps) if ring.support(ring.unit_key + step) & bad)
            raise RingError(f"Steenrod action undefined on generator {ring.names[pos]}")

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


def _tau_shift(ctx, x):
    # multiply by tau; only ever called in the motivic flavor
    return x.shifted(ctx.ring.steps[ctx.ring.tau_index])


def _join(ctx, plain, twisted):
    """plain + tau * twisted, for two sets of keys each an F2 sum already
    collected: the Cartan parts whose indices are not both odd, and those
    whose indices are (which carry a factor of tau in the motivic flavor)."""
    ring = ctx.ring
    total = ring.poly_of_keys(plain)
    if twisted:
        total = total + _tau_shift(ctx, ring.poly_of_keys(twisted))
    return total


def _cartan_sum(ctx, parts):
    """F2 sum of Cartan parts ``(a, b, Sq^a-side * Sq^b-side)``."""
    plain, twisted = set(), set()
    for a, b, part in parts:
        odd = ctx.motivic and (a & 1) and (b & 1)
        (twisted if odd else plain).symmetric_difference_update(part.keys)
    return _join(ctx, plain, twisted)


@functools.lru_cache(maxsize=None)
def _sq_gen(ctx, k, m):
    """Sq^k on the single index-m class, by the Wu formula; k <= m."""
    if k == 0:
        return ctx.class_poly(m)
    if k == m:
        c = ctx.class_poly(m)
        return c * c
    acc = set()
    for j in range(k + 1):
        if binom_mod2(m + j - k - 1, j):
            part = ctx.class_poly(k - j) * ctx.class_poly(m + j)
            acc.symmetric_difference_update(part.keys)
    return ctx.ring.poly_of_keys(acc)


@functools.lru_cache(maxsize=None)
def _sq_mono(ctx, k, key):
    """Sq^k on the monomial with packed key ``key``.

    The key is never decoded: the tau exponent is one field read, the
    cohomological degree p is read off the p field, the parity of every
    exponent is the low bit of its field, and squares and square roots are
    doublings and halvings of the key (see :class:`~subtlesw.poly.Ring`).
    """
    ring = ctx.ring
    if ctx.motivic:
        a = ring.exponent(key, ring.tau_index)
        if a:
            # split off tau^a (degree 0): Sq acts on the rest, tau^a shifts every key
            step = a * ring.steps[ring.tau_index]
            return _sq_mono(ctx, k, key - step).shifted(step)
    if k == 0:
        return Poly(ring, (key,))
    p = ring.key_bidegree(key).p
    if k > p:
        return ring.zero  # instability
    odd = ring.odd_positions(key)
    if not odd:
        if k & 1:
            return ring.zero
        c = k >> 1
        one = ring.unit_key
        res = _sq_mono(ctx, c, one + ((key - one) >> 1)).squared()
        if ctx.motivic and (c & 1) and res:
            res = _tau_shift(ctx, res)
        return res
    pos = odd[0]
    m = ring.bidegrees[pos].p  # class index of the split-off generator
    rest = key - ring.steps[pos]
    parts = []
    # Sq^{k-a} of the rest, of degree p - m, vanishes unless a >= k - (p - m)
    for a in range(max(0, k - (p - m)), min(k, m) + 1):
        left = _sq_gen(ctx, a, m)
        if not left:
            continue
        right = _sq_mono(ctx, k - a, rest)
        if right:
            parts.append((a, k - a, left * right))
    return _cartan_sum(ctx, parts)


@functools.lru_cache(maxsize=None)
def _top_left(ctx, m, drop):
    """The keys of Sq^{m-1}(u_m) that no generator in ``drop`` divides."""
    keys = _sq_gen(ctx, m - 1, m).keys
    support = ctx.ring.support
    return tuple(g for g in keys if not support(g) & drop)


def _below_top(ctx, key, p, q, drop, plain, twisted):
    """Add Sq^{p-1} of the monomial ``key`` of bidegree (q)[p], less the
    terms that a generator in ``drop`` divides, to the key sets ``plain``
    and ``twisted`` (see :func:`_join`), in closed form.

    Write the monomial as tau^a * y.  By the Cartan rule and instability,
    Sq^{p-1} leaves exactly one factor u_m of y below its top square.  The
    e_m copies of u_m in y give equal parts, so only the classes of odd
    exponent count:

        Sq^{p-1}(tau^a y) = sum over m with e_m odd of
            tau^[m-1 and p-m both odd] * Sq^{m-1}(u_m) * Sq^{p-m}(tau^a y/u_m).

    The top square of a tau-free monomial z of degree d and weight q_z is
    tau^((d - 2 q_z) // 2) * z^2, where d - 2 q_z counts the odd-index
    factors of z; here that count is o - [m odd], with o = p - 2(q - a) the
    count for y.  So each part is the keys of Sq^{m-1}(u_m) shifted by one
    constant, (y/u_m)^2 times a power of tau, and no two parts share a key.
    A generator in ``drop`` that divides y/u_m, or t when that power is
    positive, divides every term of the part, which is skipped whole; of
    the others only the keys of Sq^{m-1}(u_m) that miss ``drop`` are built.
    The tau exponent of each part built is checked against ``MAX_EXPONENT``
    before its shift, and every key against ``limit_mask`` before anything
    cancels, as in a product.
    """
    ring = ctx.ring
    one = ring.unit_key
    tau_step = a = 0
    if ctx.motivic:
        tau_step = ring.steps[ring.tau_index]
        a = ring.exponent(key, ring.tau_index)
        key -= a * tau_step
    drop_tau = drop and ring.support(one + tau_step) & drop
    o = p - 2 * (q - a)
    seen = ring.limit_mask
    for pos in ring.odd_positions(key):
        rest = key - ring.steps[pos]
        if drop and ring.support(rest) & drop:
            continue
        m = ring.bidegrees[pos].p
        left = _top_left(ctx, m, drop)
        if not left:
            continue
        # the Cartan indices m - 1 and p - m are both odd
        both_odd = ctx.motivic and not m & 1 and p & 1
        # the tau exponent of every key of the part, with the one tau that
        # _join adds; it is checked before the shift, which would carry out
        # of the tau field, where limit_mask cannot see it
        c = a + (o - (m & 1)) // 2
        if drop_tau and c + both_odd:
            continue
        if ctx.motivic and c + both_odd > MAX_EXPONENT:
            raise ExponentOverflow
        shift = 2 * (rest - one) + c * tau_step
        part = [g + shift for g in left]
        seen = functools.reduce(and_, part, seen)
        (twisted if both_odd else plain).symmetric_difference_update(part)
    if seen != ring.limit_mask:
        raise ExponentOverflow


def sq(ctx, k, x):
    """Sq^k applied to x, termwise over F2.

    Bihomogeneous input of bidegree (q)[p] maps to (q + k//2)[p + k] or to
    zero; v-, x- and y-generators have no defined action and are rejected.
    A term of degree k + 1 >= 2 takes the closed form of :func:`_below_top`;
    every other term takes the memoized recursion of :func:`_sq_mono`.
    """
    return _sq(ctx, k, x, 0)


def _sq(ctx, k, x, drop):
    """Sq^k applied to x less the terms that a generator in ``drop``, a mask
    of guard bits, divides.  Sq is F2-linear, so that is the sum over the
    terms of x of their images less those terms; :func:`_below_top` never
    builds them, and the images of :func:`_sq_mono` are filtered."""
    if k < 0:
        raise ValueError("Sq index must be nonnegative")
    ctx._check_argument(x)
    ring = ctx.ring
    support = ring.support
    plain, twisted = set(), set()
    for key in x.keys:
        p, q = ring.key_bidegree(key)
        if k and p == k + 1:
            _below_top(ctx, key, p, q, drop, plain, twisted)
        else:
            keys = _sq_mono(ctx, k, key).keys
            if drop:
                keys = [g for g in keys if not support(g) & drop]
            plain.symmetric_difference_update(keys)
    return _join(ctx, plain, twisted)


def cartan(ctx, k, x, y):
    """The Cartan expansion sum_{a+b=k} tau^(a,b both odd) Sq^a x * Sq^b y."""
    parts = []
    for a in range(k + 1):
        left = sq(ctx, a, x)
        if not left:
            continue
        right = sq(ctx, k - a, y)
        if right:
            parts.append((a, k - a, left * right))
    return _cartan_sum(ctx, parts)


@functools.lru_cache(maxsize=None)
def theta(ctx, j):
    """theta_0 = the index-2 class; theta_{j+1} = Sq^{2^j} theta_j.

    In the topological flavor this is the classical rho sequence.
    """
    if j < 0:
        raise ValueError("theta index must be nonnegative")
    if ctx.start != 2:
        raise RingError("theta is defined in the SO flavors")
    if j == 0:
        return ctx.class_poly(2)
    return sq(ctx, 1 << (j - 1), theta(ctx, j - 1))


def _theta_without(ctx, j, drop):
    """theta_j less the terms that a generator in ``drop``, a mask of guard
    bits, divides.  It is built from the cached theta_{j-1} without those
    terms; theta_j itself is neither built nor cached."""
    if j == 0:
        x = theta(ctx, 0)
        return x if not ctx.ring.support(x.keys[0]) & drop else ctx.ring.zero
    return _sq(ctx, 1 << (j - 1), theta(ctx, j - 1), drop)


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
