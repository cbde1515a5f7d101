import ast
import random
from operator import add, le
from pathlib import Path

import pytest

from subtlesw import _reduction
from subtlesw._reduction import DivisorTable
from subtlesw.grobner import groebner_basis, hilbert_series
from subtlesw.poly import (
    FIELD_BITS,
    FIELD_MAX,
    INHOMOGENEOUS,
    MAX_EXPONENT,
    ZERO_DEGREE,
    Bidegree,
    ExponentOverflow,
    ParseError,
    Ring,
    RingError,
    RingMap,
    bo_ring,
    bo_top_ring,
    bso_ring,
    bso_top_ring,
    parse_poly,
)
from subtlesw.spaces import h_map
from subtlesw.steenrod import ThomModuleElement, bso_context, cartan, sq, thom_sq

from oracles import (
    add_terms,
    from_grevlex_key,
    grevlex_key,
    monomial_bidegree,
    monomials_of_bidegree,
    mul_terms,
    random_bihomogeneous,
)


def test_bidegree_basics():
    bd = Bidegree(5, 2)
    assert bd.p == 5 and bd.q == 2 and bd.d == 7
    assert str(bd) == "(2)[5]"
    assert Bidegree(2, 1) + Bidegree(3, 1) == Bidegree(5, 2)


def test_ring_construction():
    ring = Ring([("t", Bidegree(0, 1)), ("u2", Bidegree(2, 1)), ("u3", Bidegree(3, 1))])
    assert ring.names == ("t", "u2", "u3")
    assert ring.bidegrees[1] == Bidegree(2, 1)
    assert ring == bso_ring(3)


def test_empty_ring_is_ground_field():
    f2 = Ring([])
    assert str(f2.one) == "1"
    assert str(f2.zero) == "0"
    assert f2.one + f2.one == f2.zero
    assert parse_poly(f2, "1+1+1") == f2.one


def test_ring_rejects_bad_generators():
    with pytest.raises(RingError):
        Ring([("u2", Bidegree(2, 1)), ("u2", Bidegree(2, 1))])
    with pytest.raises(RingError):
        Ring([("t", Bidegree(1, 0))])  # t must be weight-only
    with pytest.raises(RingError):
        Ring([("u3", Bidegree(3, 0))])  # u3 lives in (1)[3]
    with pytest.raises(RingError):
        Ring([("x1", Bidegree(0, 0))])  # combined degree must be positive
    with pytest.raises(RingError):
        Ring([("v3", Bidegree(3, 1))])  # v index must be a power of two
    with pytest.raises(RingError):
        Ring([("v4", Bidegree(4, 1))])  # v4 lives in (2)[4] or (0)[4]
    with pytest.raises(RingError):
        Ring([("q5", Bidegree(5, 0))])  # name outside the term grammar


def test_standard_ring_factories():
    assert bo_ring(3).names == ("t", "u1", "u2", "u3")
    assert bso_ring(5).names == ("t", "u2", "u3", "u4", "u5")
    assert bo_top_ring(2).names == ("w1", "w2")
    assert bso_top_ring(4).names == ("w2", "w3", "w4")
    assert bso_ring(5) is bso_ring(5)  # cached
    assert bso_top_ring(4).bidegrees == (Bidegree(2, 0), Bidegree(3, 0), Bidegree(4, 0))
    # the BO rings start at u1/w1, the BSO rings at u2/w2
    for factory, n in ((bso_ring, 1), (bo_ring, 0), (bo_top_ring, 0), (bso_top_ring, 1)):
        with pytest.raises(RingError, match=f"^need n >= {n + 1}$"):
            factory(n)


def test_parse_print_roundtrip_examples():
    ring = bso_ring(5)
    theta2 = parse_poly(ring, "u2*u3+u5")
    assert str(theta2) == "u2*u3+u5"
    assert len(theta2.terms) == 2
    assert parse_poly(ring, "u3+u3") == ring.zero
    assert parse_poly(ring, "t*u3^2").bidegree() == Bidegree(6, 3)
    assert parse_poly(ring, "  u2 * u3 \t+ u5 ") == theta2
    assert parse_poly(ring, "1") == ring.one
    assert parse_poly(ring, "0") == ring.zero
    assert parse_poly(ring, "0+u2") == ring.gen("u2")
    assert parse_poly(ring, "u2*1") == ring.gen("u2")
    assert str(parse_poly(ring, "u2^3")) == "u2^3"


def test_parse_errors():
    ring = bso_ring(5)
    malformed = (
        "", " \t", "+", "u2+", "+u2", "u2++u3", "u2**u3", "*u2", "u2*", "u2^", "^2", "u2^x",
        "u2^-1", "u2^2^3", "u2^ 3 4", "2*u2", "01", "00", "1^2", "0u2", "u2 u3", "tu2", "u2 3",
        "u 2", "u2-u3", "(u2)", "u9", "U2", "u2;", "w2", "u2^1.5",
    )
    for bad in malformed:
        with pytest.raises((ParseError, RingError)):
            parse_poly(ring, bad)


def _spelling(ring, monos, rng):
    """A random legal spelling of the F2 sum of the distinct ``monos``:
    whitespace around every token, ``^1``, ``^0`` and ``*1`` factors, powers
    split into repeated factors, shuffled factors and terms, ``0*...`` dead
    terms, and duplicate terms that cancel."""

    def ws():
        return rng.choice(["", "", " ", "\t", "  \n"])

    def term(mono, dead=False):
        factors = ["0"] if dead else []
        for name, e in zip(ring.names, mono):
            while e:
                part = rng.randint(1, e)
                e -= part
                if part == 1 and rng.random() < 0.5:
                    factors.append(name)
                else:
                    factors.append(f"{name}{ws()}^{ws()}{part}")
        factors += ["1"] * rng.randint(0, 1)
        factors += [f"{rng.choice(ring.names)}{ws()}^{ws()}0"] * rng.randint(0, 1)
        rng.shuffle(factors)
        return f"{ws()}*{ws()}".join(factors or ["1"])

    n = len(ring.names)
    terms = [term(m) for m in monos]
    for _ in range(rng.randint(0, 2)):  # a dead term
        terms.append(term([rng.randint(0, 2) for _ in range(n)], dead=True))
    for _ in range(rng.randint(0, 2)):  # a pair of spellings that cancel
        extra = [rng.randint(0, 2) for _ in range(n)]
        terms += [term(extra), term(extra)]
    rng.shuffle(terms)
    return ws() + f"{ws()}+{ws()}".join(terms or ["0"]) + ws()


def test_parse_accepts_every_legal_spelling():
    rng = random.Random(21)
    for ring in (bso_ring(5), bo_ring(3), bso_top_ring(4)):
        n = len(ring.names)
        for _ in range(300):
            monos = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 5))}
            text = _spelling(ring, sorted(monos), rng)
            assert parse_poly(ring, text) == ring.poly(monos), text


def test_parse_exponent_overflow():
    ring = bso_ring(3)
    m = MAX_EXPONENT
    half = (m + 1) // 2
    with pytest.raises(ExponentOverflow):
        parse_poly(ring, f"u2^{m + 1}")
    with pytest.raises(ExponentOverflow):
        parse_poly(ring, f"0*u2^{half}*u2^{half}")  # even in a dead term
    with pytest.raises(ExponentOverflow):
        ring.gen("u2") ** (m + 1)
    # MAX_EXPONENT is the largest legal exponent
    assert parse_poly(ring, f"u2^{m}")


def test_product_overflow_is_per_position():
    ring = bso_ring(3)
    big = (MAX_EXPONENT + 1) // 2
    with pytest.raises(ExponentOverflow):
        parse_poly(ring, f"u3+u2^{big}") * parse_poly(ring, f"t+u2^{big}")
    # each factor's largest exponent sits at another generator: no overflow
    prod = parse_poly(ring, f"u3^{big}+u2") * parse_poly(ring, f"u2^{big}+u3")
    assert str(prod) == f"u2^{big}*u3^{big}+u3^{big + 1}+u2^{big + 1}+u2*u3"


_R5 = bso_ring(5)
_TOP7 = bso_top_ring(7)


def _kernel_to(e):
    # u2*t^(e-1) reduced by u2 -> t: one step to t^e
    g = (_R5.sort_key((0, 1, 0, 0, 0)), _R5.sort_key((1, 0, 0, 0, 0)))
    term = _R5.sort_key((e - 1, 1, 0, 0, 0))
    keys, _ = _reduction.normal_form_terms((term,), [g], DivisorTable(_R5, [g[0]]), 10)
    return _R5.poly_of_keys(keys)


#: Each entry point as a builder of a polynomial whose largest exponent is
#: e, and how far below e that exponent falls: a square's exponents are
#: even, so it reaches MAX_EXPONENT - 1
_ENTRY_POINTS = {
    "parse_poly": (lambda e: parse_poly(_R5, f"u2^{e}"), 0),
    "Ring.poly": (lambda e: _R5.poly([(0, e, 0, 0, 0)]), 0),
    "pow": (lambda e: _R5.gen("u2") ** e, 0),
    "product": (lambda e: _R5.monomial({"u2": e - 1}) * _R5.gen("u2"), 0),
    "squared": (lambda e: _R5.monomial({"u2": e // 2}).squared(), 1),
    # the twisted Cartan part Sq^1 x * Sq^1 u2 = t^e*u3^2 is the whole answer
    "cartan": (lambda e: cartan(bso_context(5), 2, _R5.monomial({"t": e - 1, "u2": 1}), _R5.gen("u2")), 0),
    # t^e*u3^2 comes from the twist, the other terms carry t^(e-1)
    "thom_sq": (
        lambda e: thom_sq(bso_context(5), 4, ThomModuleElement(bso_context(5), _R5.monomial({"t": e - 1, "u2": 1}))).coefficient,
        0,
    ),
    # the top square: Sq^6(u3^2) = t*u3^4
    "sq-top": (lambda e: sq(bso_context(5), 6, _R5.monomial({"t": e - 1, "u3": 2})), 0),
    # the closed form below it: Sq^9(u3^2*u4) = t*u3^5*u4 + t*u2*u3^4*u5
    "sq-below-top": (lambda e: sq(bso_context(5), 9, _R5.monomial({"t": e - 1, "u3": 2, "u4": 1})), 0),
    "kernel": (_kernel_to, 0),
    # the tau exponent of h(w3^M*w5^M*w7^j) is M + j // 2
    "h_map": (lambda e: h_map(_TOP7.monomial({"w3": MAX_EXPONENT, "w5": MAX_EXPONENT, "w7": 2 * (e - MAX_EXPONENT)})), 0),
}


@pytest.mark.parametrize("name", list(_ENTRY_POINTS))
def test_every_entry_point_accepts_the_limit_and_raises_past_it(name):
    build, short = _ENTRY_POINTS[name]
    x = build(MAX_EXPONENT)
    assert max(max(m) for m in x.terms) == MAX_EXPONENT - short
    with pytest.raises(ExponentOverflow):
        build(MAX_EXPONENT + 1)


def test_field_width_pins():
    # a field holds the sum of two in-range exponents, so products never wrap
    assert FIELD_MAX >= 2 * MAX_EXPONENT
    assert MAX_EXPONENT == 2**15 - 1 and FIELD_BITS == 16
    assert bso_ring(17).unit_key.bit_length() == 313


def test_ring_poly_counts_monomials_mod_2():
    ring = bso_ring(3)
    t, u2, u3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert ring.poly([u2, u3, u2]) == ring.poly([u3]) == ring.poly({u3})
    assert ring.poly(iter([u2, u2])) == ring.zero
    x = ring.poly({t, u2, u3})
    assert x.terms == (u3, u2, t)
    assert x == ring.poly([list(t), list(u3), list(u2)])


def test_ring_poly_rejects_exponents_outside_the_fields():
    ring = bso_ring(3)
    for bad in ((0, -1, 0), (0, 2**40, 0), (MAX_EXPONENT + 1, 0, 0)):
        with pytest.raises(ExponentOverflow):
            ring.poly([bad])
        with pytest.raises(ExponentOverflow):
            ring.poly([(0, 1, 0), bad, bad])  # checked before it cancels
    for bad in ((0, 1), (0, 1, 0, 0), ()):
        with pytest.raises(RingError):
            ring.poly([bad])
    with pytest.raises(RingError):
        Ring([]).poly([(0,)])
    top = ring.poly([(MAX_EXPONENT, 0, MAX_EXPONENT)])
    assert top.terms == ((MAX_EXPONENT, 0, MAX_EXPONENT),)
    assert str(top) == f"t^{MAX_EXPONENT}*u3^{MAX_EXPONENT}"
    assert Ring([]).poly([()]) == Ring([]).one


def test_bidegree_of_markers():
    ring = bso_ring(3)
    assert ring.gen("t").bidegree() == Bidegree(0, 1)
    assert parse_poly(ring, "u2+u3").bidegree() == INHOMOGENEOUS
    assert ring.zero.bidegree() == ZERO_DEGREE


def test_monomial_order_tau_is_cheapest():
    # grevlex on d = p + q; within a degree the tie-break puts t last,
    # so u2 beats t^3 and the revlex rule prefers the later plain class
    ring = bso_ring(5)
    assert str(parse_poly(ring, "t^3+u2")) == "u2+t^3"
    assert str(parse_poly(ring, "u2*u5+u3*u4")) == "u3*u4+u2*u5"
    assert str(parse_poly(ring, "t^2*u4+u3^2")) == "u3^2+t^2*u4"


# -- packed monomial keys -------------------------------------------------------


def _key_rings():
    rings = [bso_ring(n) for n in range(2, 17)]
    rings += [bo_ring(6), bso_top_ring(7)]
    base = bso_ring(9)  # the BSpin_9 ambient ring adjoins v16 in (8)[16]
    rings.append(Ring(list(zip(base.names, base.bidegrees)) + [("v16", Bidegree(16, 8))]))
    rings.append(Ring([("x1", (1, 0)), ("y1", (0, 1)), ("x2", (2, 3)), ("y2", (1, 1))]))
    rings.append(Ring([]))
    rings.append(bso_ring(24))
    rings.append(Ring([("t", (0, 1))]))  # every p is 0: no p field
    rings.append(Ring([("x1", (1000, 0)), ("y1", (7, 900))]))  # a wide p field
    return rings


def _random_exponents(ring, rng):
    """Exponents from 0 to MAX_EXPONENT, the extremes included often."""
    pool = (0, 0, 1, 2, MAX_EXPONENT, MAX_EXPONENT - 1)
    return tuple(
        rng.choice(pool) if rng.random() < 0.6 else rng.randint(0, MAX_EXPONENT)
        for _ in range(len(ring))
    )


def _key_pairs(seed, count=60):
    rng = random.Random(seed)
    for ring in _key_rings():
        for _ in range(count):
            yield ring, _random_exponents(ring, rng), _random_exponents(ring, rng)


def test_packed_order_is_the_reference_grevlex_order():
    rng = random.Random(21)
    for ring in _key_rings():
        monos = [_random_exponents(ring, rng) for _ in range(40)]
        monos += [tuple(map(min, a, b)) for a, b in zip(monos, monos[1:])]
        monos += [tuple(e >> 31 for e in m) for m in monos]  # small exponents tie on degree
        packed = sorted(monos, key=ring.sort_key)
        assert packed == sorted(monos, key=lambda m: grevlex_key(ring, m))
        for a, b in zip(monos, reversed(monos)):
            ka, kb = ring.sort_key(a), ring.sort_key(b)
            ra, rb = grevlex_key(ring, a), grevlex_key(ring, b)
            assert (ka < kb, ka == kb) == (ra < rb, ra == rb)


def test_packed_keys_unpack_and_multiply_by_adding():
    memos = {}  # one gcd memo per ring, shared by all its pairs
    for ring, a, b in _key_pairs(22):
        ab = tuple(map(add, a, b))  # up to 2 * MAX_EXPONENT
        for m in (a, b, ab):
            key = ring.sort_key(m)
            assert key >= 0
            assert ring.from_sort_key(key) == m
            assert from_grevlex_key(ring, grevlex_key(ring, m)) == m
            assert ring.key_bidegree(key).d == grevlex_key(ring, m)[0]
            assert (key & ring.limit_mask == ring.limit_mask) == (max(m, default=0) <= MAX_EXPONENT)
        ka, kb = ring.sort_key(a), ring.sort_key(b)
        pa, pb = (a, ka), (b, kb)
        pab = (ab, ka + kb - ring.unit_key)
        pbb = (tuple(map(add, b, b)), kb + kb - ring.unit_key)
        for m, key in (pab, pbb):
            assert key == ring.sort_key(m)
        # lcms of keys and of products, whose exponents reach 2 * MAX_EXPONENT
        for (x, kx), (y, ky) in ((pa, pb), (pab, pbb), (pbb, pa), (pab, pab)):
            lcm = tuple(map(max, x, y))
            (key,) = ring.key_lcms(kx, [ky], {})
            assert [key] == ring.key_lcms(ky, [kx], {}) == [ring.sort_key(lcm)]
            assert ring.key_bidegree(key) == monomial_bidegree(ring, lcm)
            # keys add: lcm + gcd == a + b
            gcd = ring.sort_key(tuple(map(min, x, y)))
            assert key + gcd == kx + ky
            # a memo shared by the ring's pairs returns what a cold call does
            gcds = memos.setdefault(ring, {})
            assert ring.key_lcms(kx, [ky, kx], gcds) == [key, kx]
            assert ring.key_lcms(ky, [kx], gcds) == [key]
            # a miss files the gcd's key, and a hit, in either order, reads it
            memo = {}
            ring.key_lcms(kx, [ky], memo)
            assert list(memo.values()) == [gcd]
            memo = dict.fromkeys(memo, gcd - 1)
            assert ring.key_lcms(ky, [kx, kx], memo) == [key + 1] * 2
    # the memo of a groebner_basis call dies with it: the ring keeps nothing
    ring = bso_ring(8)
    state = {name: getattr(ring, name) for name in Ring.__slots__}
    u2, u3, u5, t = (ring.gen(name) for name in ("u2", "u3", "u5", "t"))
    assert len(groebner_basis(ring, [u2 * u3 + u5, u2 * u2 + u3 * t])) > 2
    assert {name: getattr(ring, name) for name in Ring.__slots__} == state
    assert not hasattr(ring, "__dict__")
    assert Ring([]).sort_key(()) == Ring([]).unit_key == 0
    # a ring without p has no p field; otherwise the p field lies lowest
    assert Ring([("t", (0, 1))]).unit_key == FIELD_MAX
    assert Ring([("w1", (1, 0))]).unit_key == (FIELD_MAX << FIELD_BITS + 1) + FIELD_MAX


def test_key_bidegree_is_the_tuple_reference():
    for ring, a, b in _key_pairs(25):
        for m in (a, b, tuple(map(add, a, b))):
            assert ring.key_bidegree(ring.sort_key(m)) == monomial_bidegree(ring, m)
        assert ring.key_bidegree(ring.unit_key) == (0, 0)
    for ring in _key_rings():
        for name, bd in zip(ring.names, ring.bidegrees):
            assert ring.key_bidegree(ring.gen(name).keys[0]) == bd


def test_bidegree_reads_the_keys_without_decoding(monkeypatch):
    decode, decoded = Ring.from_sort_key, []

    def counting(ring, key):
        decoded.append(key)
        return decode(ring, key)

    monkeypatch.setattr(Ring, "from_sort_key", counting)
    rng = random.Random(26)
    homogeneous = 0
    for ring in _key_rings():
        # the monomials of one bidegree, which random_bihomogeneous lists,
        # grow fast with the generators: the widest ring draws lower degrees
        factors = 2 if len(ring) > 16 else 4
        for i in range(20):
            if ring.names and i % 2:
                x = random_bihomogeneous(ring, rng, factors)
            else:
                x = _random_poly(ring, rng)
            decoded.clear()
            bd = x.bidegree()
            assert decoded == []
            want = {monomial_bidegree(ring, m) for m in x.terms}
            if not want:
                assert bd is ZERO_DEGREE
            elif len(want) > 1:
                assert bd is INHOMOGENEOUS
            else:
                assert bd == want.pop()
                homogeneous += 1
    assert homogeneous > 100
    x = parse_poly(bso_ring(5), "t^2*u2+t*u3")  # both of combined degree 5, p = 2 and p = 3
    decoded.clear()
    assert x.bidegree() is INHOMOGENEOUS
    assert decoded == []


def _monomials_of_bidegree_unpruned(ring, p, q):
    """``oracles.monomials_of_bidegree`` without its reachability test: every
    branch is entered, and the ones that cannot reach (q)[p] add nothing."""
    n = len(ring)
    out = []
    acc = [0] * n

    def rec(i, p_left, q_left):
        if p_left < 0 or q_left < 0:
            return
        if i == n:
            if p_left == 0 and q_left == 0:
                out.append(tuple(acc))
            return
        bp, bq = ring.bidegrees[i]
        caps = []
        if bp:
            caps.append(p_left // bp)
        if bq:
            caps.append(q_left // bq)
        for e in range(min(caps) + 1):
            acc[i] = e
            rec(i + 1, p_left - e * bp, q_left - e * bq)
        acc[i] = 0

    rec(0, p, q)
    return out


def test_pruned_bidegree_enumerator_matches_the_unpruned():
    rng = random.Random(27)
    found = empty = 0
    for ring in _key_rings():
        for _ in range(8):
            p, q = rng.randint(-1, 13), rng.randint(-1, 7)
            want = _monomials_of_bidegree_unpruned(ring, p, q)
            assert monomials_of_bidegree(ring, p, q) == want
            found += bool(want)
            empty += not want
    assert found > 40 and empty > 20


def test_guard_test_is_exponentwise_divisibility():
    divisible = 0
    for i, (ring, a, c) in enumerate(_key_pairs(23)):
        # b is a multiple of a every other time; products reach 2 * MAX_EXPONENT
        b = tuple(map(add, a, c)) if i % 2 else c
        a2 = tuple(map(add, a, a))
        guard = ring.guard_mask
        for x, y in ((a, b), (b, a), (a2, a), (a, a2), (a, a)):
            kx, ky = ring.sort_key(x), ring.sort_key(y)
            divides = all(map(le, x, y))
            assert (((kx | guard) - ky) & guard == guard) == divides
            divisible += divides
    assert divisible > 1000


def test_support_mask_marks_nonzero_exponents():
    for ring, a, b in _key_pairs(24):
        def support(m):
            return ring.support(ring.sort_key(m))

        sa, sb = support(a), support(b)
        assert sa & ~ring.guard_mask == 0
        assert bin(sa).count("1") == sum(1 for e in a if e)
        assert (not sa & ~sb) == all(y or not x for x, y in zip(a, b))
        assert support(tuple(map(add, a, b))) == sa | sb


def _random_poly(ring, rng):
    """Up to five terms, mostly small powers of the first three generators,
    so sums cancel and products collide; a quarter of the terms also take an
    exponent near MAX_EXPONENT / 2 or MAX_EXPONENT, so some products overflow."""
    n = len(ring)
    half = MAX_EXPONENT // 2
    monos = []
    for _ in range(rng.randint(0, 5)):
        e = [0] * n
        for _ in range(rng.randint(0, 3) if n else 0):
            e[rng.randrange(min(n, 3))] += 1
        if n and rng.random() < 0.25:
            e[rng.randrange(n)] = rng.choice((half, half + 1, MAX_EXPONENT - 1, MAX_EXPONENT))
        monos.append(e)
    return ring.poly(monos)


def test_add_and_mul_match_the_tuple_reference():
    rng = random.Random(31)
    raised = cancelled = 0
    for ring in _key_rings():
        for _ in range(40):
            x, y = _random_poly(ring, rng), _random_poly(ring, rng)
            assert (x + y).terms == add_terms(ring, x.terms, y.terms)
            try:
                want = mul_terms(ring, x.terms, y.terms, MAX_EXPONENT)
            except OverflowError:
                with pytest.raises(ExponentOverflow):
                    x * y
                raised += 1
                continue
            assert (x * y).terms == want
            cancelled += len(want) < len(x.terms) * len(y.terms)
    assert raised > 50 and cancelled > 20


def test_terms_are_the_decoded_keys_in_the_same_order():
    rng = random.Random(32)
    for ring in _key_rings():
        for _ in range(20):
            x = _random_poly(ring, rng) + _random_poly(ring, rng)
            assert list(x.keys) == sorted(set(x.keys), reverse=True)
            assert x.terms == tuple(map(ring.from_sort_key, x.keys))
            assert x.terms == add_terms(ring, x.terms, ())  # the reference order
            assert ring.poly(x.terms) == x and hash(ring.poly(x.terms)) == hash(x)
            if x:
                assert x.lead_monomial() == x.terms[0]
    with pytest.raises(AttributeError):
        bso_ring(3).one.terms = ()


def test_product_overflow_counts_terms_that_cancel():
    # u2^M * u2*u3 and u2^M*u3 * u2 are the same overflowing term and cancel;
    # a product always keeps some overflowing term (the product of the terms
    # largest at that exponent), here u2^(M+1), so it raises
    ring = bso_ring(3)
    m = MAX_EXPONENT
    x = ring.poly([(0, m, 0), (0, m, 1)])
    y = ring.poly([(0, 1, 1), (0, 1, 0)])
    with pytest.raises(OverflowError):
        mul_terms(ring, x.terms, y.terms, m)
    with pytest.raises(ExponentOverflow):
        x * y


def test_squares_parities_and_exponents_read_off_the_keys():
    rng = random.Random(33)
    checked = raised = 0
    for ring in _key_rings():
        for _ in range(40):
            x = _random_poly(ring, rng)
            # tie-break order: list order with t last
            order = sorted(range(len(ring)), key=lambda i: i == ring.tau_index)
            for key, mono in zip(x.keys, x.terms):
                assert [ring.exponent(key, i) for i in range(len(ring))] == list(mono)
                assert ring.odd_positions(key) == [i for i in order if mono[i] & 1]
            try:
                want = x * x
            except ExponentOverflow:
                with pytest.raises(ExponentOverflow):
                    x.squared()
                raised += 1
                continue
            assert x.squared() == want
            checked += 1
    assert raised and checked


def test_lead_monomial():
    ring = bso_ring(5)
    theta2 = parse_poly(ring, "u2*u3+u5")
    assert theta2.lead_monomial() == (0, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        ring.zero.lead_monomial()


def test_ring_mismatch_rejected():
    a, b = bso_ring(3), bso_ring(4)
    with pytest.raises(RingError):
        a.gen("u2") + b.gen("u2")
    with pytest.raises(TypeError):
        a.gen("u2") + 1


def test_arithmetic_properties_random():
    rng = random.Random(11)
    ring = bso_ring(4)
    for _ in range(200):
        x = random_bihomogeneous(ring, rng)
        y = random_bihomogeneous(ring, rng)
        z = random_bihomogeneous(ring, rng)
        assert x + x == ring.zero
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * ring.one == x
        assert x * ring.zero == ring.zero
        # frobenius over F2
        assert (x + y) ** 2 == x**2 + y**2


def test_bidegree_additive_random():
    rng = random.Random(12)
    ring = bso_ring(5)
    for _ in range(200):
        x = random_bihomogeneous(ring, rng)
        y = random_bihomogeneous(ring, rng)
        xy = x * y
        if xy:
            assert xy.bidegree() == x.bidegree() + y.bidegree()


def test_roundtrip_random():
    rng = random.Random(13)
    ring = bo_ring(5)
    for _ in range(200):
        x = random_bihomogeneous(ring, rng) + random_bihomogeneous(ring, rng)
        assert parse_poly(ring, str(x)) == x


def test_pow():
    ring = bso_ring(3)
    rng = random.Random(5)
    for _ in range(20):
        x = random_bihomogeneous(ring, rng)
        want = ring.one
        for n in range(10):
            assert x**n == want, (x, n)
            want = want * x
    with pytest.raises(ValueError):
        x ** (-1)


def test_src_squares_only_through_squared():
    # Over F2 a square is termwise, and Poly.squared owns that rule: no
    # product in src/subtlesw multiplies an expression by itself.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((Path(__file__).parents[1] / "src" / "subtlesw").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and ast.unparse(node.left) == ast.unparse(node.right)
    ]
    assert found == []


def test_ring_map_checks_and_homomorphism():
    src = Ring([("x1", Bidegree(1, 0)), ("x2", Bidegree(1, 0))])
    dst = Ring([("y1", Bidegree(1, 0)), ("y2", Bidegree(1, 0))])
    f = RingMap(src, dst, [dst.gen("y1") + dst.gen("y2"), dst.gen("y2")])
    assert str(f(src.gen("x1"))) == "y1+y2"
    assert f(src.one) == dst.one
    with pytest.raises(RingError):
        RingMap(src, dst, [dst.gen("y1")])  # wrong arity
    with pytest.raises(RingError):
        RingMap(src, dst, [src.gen("x1"), src.gen("x2")])  # images in wrong ring
    with pytest.raises(RingError):
        f(dst.gen("y1"))  # argument not in the source

    rng = random.Random(14)
    for _ in range(100):
        x = random_bihomogeneous(src, rng)
        y = random_bihomogeneous(src, rng)
        assert f(x + y) == f(x) + f(y)
        assert f(x * y) == f(x) * f(y)


def test_ring_map_stops_a_term_at_a_zero_factor():
    # t -> 0 kills the first term before u2^20000 -> y1^40000, past the limit
    src = bso_ring(3)
    dst = Ring([("y1", Bidegree(1, 0))])
    y1 = dst.gen("y1")
    f = RingMap(src, dst, [dst.zero, y1.squared(), y1])
    assert f(parse_poly(src, "t*u2^20000+u3")) == y1
    with pytest.raises(ExponentOverflow):
        f(parse_poly(src, "u2^20000+u3"))


def test_reprs_of_polys_maps_series_and_thom_elements():
    ring = bso_ring(3)
    t, u2, u3 = (ring.gen(name) for name in ("t", "u2", "u3"))
    assert repr(u2 * u3 + t * u2) == "<u2*u3+t*u2>"
    assert repr(RingMap(ring, ring, [t, u2, u3])) == "RingMap(Ring(t,u2,u3) -> Ring(t,u2,u3))"
    series = hilbert_series(groebner_basis(ring, [u2]))
    assert repr(series) == "HilbertSeries({(0, 0): 1, (2, 1): -1} / ((0, 1), (2, 1), (3, 1)))"
    assert repr(ThomModuleElement(bso_context(3), u2)) == "ThomModuleElement((u2)*alpha)"


def test_random_bihomogeneous_refuses_a_pool_past_the_limit():
    # seed 0 draws a monomial of bso_ring(16) whose bidegree holds 714,569
    # monomials: the oracle counts them and raises rather than list them
    with pytest.raises(ValueError, match="714569 monomials"):
        random_bihomogeneous(bso_ring(16), random.Random(0), 12)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Ring([("x1", (-1, 2))]), RingError),
        (lambda: Ring([("w2", (2, 1))]), RingError),
        (lambda: Ring([("v3", (3, 0))]), RingError),
        (lambda: bso_ring(3).monomial({"u2": -1}), ExponentOverflow),
    ],
    ids=["negative-bidegree", "w-bidegree", "v-index", "monomial-exponent"],
)
def test_input_checks(call, error):
    with pytest.raises((ValueError, OverflowError)) as info:
        call()
    assert type(info.value) is error
