import hashlib
import math
import random

import pytest

from subtlesw import steenrod
from subtlesw.poly import (
    MAX_EXPONENT,
    Bidegree,
    ExponentOverflow,
    Ring,
    RingError,
    bso_ring,
    parse_poly,
)
from subtlesw.steenrod import (
    SteenrodContext,
    ThomModuleElement,
    binom_mod2,
    bo_context,
    bo_top_context,
    bso_context,
    bso_top_context,
    cartan,
    sq,
    theta,
    thom_sq,
)

from oracles import (
    cartan_by_fold,
    monomials_of_bidegree,
    random_bihomogeneous,
    sq_by_fold,
    thom_sq_by_fold,
)


def test_binom_mod2_matches_math_comb():
    for a in range(0, 120):
        for b in range(0, a + 1):
            assert binom_mod2(a, b) == math.comb(a, b) % 2
    assert binom_mod2(3, 5) == 0
    assert binom_mod2(-1, 2) == 0


def test_context_flavors():
    assert bso_context(5).flavor == "bso"
    assert bo_context(3).flavor == "bo"
    assert bso_top_context(4).flavor == "bso_top"
    assert bo_top_context(4).flavor == "bo_top"
    assert bso_context(5).n == 5
    assert bso_context(5) is bso_context(5)


def test_context_rejects_incomplete_rings():
    # u4 missing below n breaks the Wu recursion
    ring = Ring([("t", (0, 1)), ("u2", (2, 1)), ("u3", (3, 1)), ("u5", (5, 2))])
    with pytest.raises(RingError):
        SteenrodContext(ring)
    # a ring without t and without w-classes is no flavor at all
    with pytest.raises(RingError):
        SteenrodContext(Ring([("x1", (1, 0))]))


def test_sq_rejects_foreign_generators():
    ring = Ring([("t", (0, 1)), ("u2", (2, 1)), ("u3", (3, 1)), ("v4", (4, 2))])
    ctx = SteenrodContext(ring)
    with pytest.raises(RingError, match="generator v4$"):
        sq(ctx, 1, ring.gen("v4"))
    for text in ("u3^2+t*u2*v4", "t^7*u2^3*u3+v4^5", "u2+u3+t*v4"):
        with pytest.raises(RingError, match="generator v4$"):
            sq(ctx, 1, parse_poly(ring, text))  # v4 in any term, at any power
    sq(ctx, 1, ring.gen("u2"))  # plain classes still fine
    sq(ctx, 2, parse_poly(ring, "t^7*u2^3*u3+u3^2+t"))


def test_wu_examples_on_generators():
    ctx = bso_context(5)
    ring = ctx.ring
    assert str(sq(ctx, 1, ring.gen("u2"))) == "u3"
    assert str(sq(ctx, 2, ring.gen("u2"))) == "u2^2"
    assert sq(ctx, 3, ring.gen("u2")) == ring.zero
    assert str(sq(ctx, 2, ring.gen("u3"))) == "u2*u3+u5"
    assert sq(ctx, 1, ring.gen("u3")) == ring.zero  # u1 = 0 kills the Wu term
    assert str(sq(ctx, 3, ring.gen("u3"))) == "u3^2"
    assert sq(ctx, 0, ring.gen("u5")) == ring.gen("u5")


def test_wu_keeps_u1_in_bo_flavor():
    ctx = bo_context(5)
    ring = ctx.ring
    assert str(sq(ctx, 1, ring.gen("u2"))) == "u1*u2+u3"
    assert str(sq(ctx, 1, ring.gen("u3"))) == "u1*u3"


def test_sq_on_tau_and_linearity_literals():
    ctx = bso_context(7)
    ring = ctx.ring
    t = ring.gen("t")
    assert sq(ctx, 0, t) == t
    assert sq(ctx, 1, t) == ring.zero
    assert str(sq(ctx, 5, parse_poly(ring, "t*u2*u3"))) == "t*u2^2*u3^2"


def test_cartan_and_square_literals():
    ctx = bso_context(7)
    ring = ctx.ring
    u2, u3 = ring.gen("u2"), ring.gen("u3")
    assert str(sq(ctx, 2, u2 * u3)) == "u2*u5"
    # odd half-degree squares pick up one tau, even ones none
    assert str(sq(ctx, 2, u2 * u2)) == "t*u3^2"
    assert str(sq(ctx, 4, u2 * u2)) == "u2^4"
    assert cartan(ctx, 2, u2, u3) == sq(ctx, 2, u2 * u3)


def test_truncation_above_n():
    # theta_1 = u3 dies in BSO_2
    c2 = bso_context(2)
    assert str(theta(c2, 0)) == "u2"
    assert theta(c2, 1) == c2.ring.zero
    assert theta(c2, 2) == c2.ring.zero


def test_theta_literals():
    c7 = bso_context(7)
    assert str(theta(c7, 0)) == "u2"
    assert str(theta(c7, 1)) == "u3"
    assert str(theta(c7, 2)) == "u2*u3+u5"
    c11 = bso_context(11)
    t3 = theta(c11, 3)
    assert str(t3) == "u2^3*u3+u2^2*u5+u4*u5+u3*u6+u2*u7+u9+t*u3^3"
    assert t3.bidegree() == Bidegree(9, 4)
    t4 = theta(c11, 4)
    assert len(t4.terms) == 32
    assert t4.bidegree() == Bidegree(17, 8)
    t5 = theta(c11, 5)
    assert len(t5.terms) == 164
    assert t5.bidegree() == Bidegree(33, 16)


def test_theta_needs_so_flavor():
    with pytest.raises(RingError):
        theta(bo_context(4), 0)


def test_rho_is_theta_in_topological_flavor():
    top = bso_top_context(7)
    assert str(theta(top, 2)) == "w2*w3+w5"
    # same recursion, classical Wu: no tau anywhere
    r3 = theta(bso_top_context(11), 3)
    assert r3.bidegree() == Bidegree(9, 0)


def test_bidegree_shift_random():
    rng = random.Random(31)
    for n in (3, 5, 8):
        ctx = bso_context(n)
        for _ in range(120):
            x = random_bihomogeneous(ctx.ring, rng, 3, 3)
            if not x:
                continue
            k = rng.randint(0, 9)
            y = sq(ctx, k, x)
            if y:
                bd = x.bidegree()
                assert y.bidegree() == Bidegree(bd.p + k, bd.q + k // 2)


def test_instability_random():
    rng = random.Random(32)
    ctx = bso_context(6)
    for _ in range(150):
        x = random_bihomogeneous(ctx.ring, rng, 3, 3)
        if not x:
            continue
        p = x.bidegree().p
        assert sq(ctx, p + 1 + rng.randint(0, 4), x) == ctx.ring.zero


def test_h_linearity_random():
    rng = random.Random(33)
    ctx = bso_context(6)
    t = ctx.ring.gen("t")
    for _ in range(150):
        x = random_bihomogeneous(ctx.ring, rng, 3, 3)
        k = rng.randint(0, 8)
        assert sq(ctx, k, t * x) == t * sq(ctx, k, x)


def test_additivity_random():
    rng = random.Random(34)
    ctx = bso_context(5)
    for _ in range(100):
        x = random_bihomogeneous(ctx.ring, rng, 3, 3)
        y = random_bihomogeneous(ctx.ring, rng, 3, 3)
        k = rng.randint(0, 8)
        assert sq(ctx, k, x + y) == sq(ctx, k, x) + sq(ctx, k, y)


def test_cartan_associativity_random():
    rng = random.Random(35)
    ctx = bso_context(6)
    for _ in range(60):
        x = random_bihomogeneous(ctx.ring, rng, 2, 2)
        y = random_bihomogeneous(ctx.ring, rng, 2, 2)
        z = random_bihomogeneous(ctx.ring, rng, 2, 2)
        k = rng.randint(0, 6)
        assert cartan(ctx, k, x * y, z) == cartan(ctx, k, x, y * z)
        assert cartan(ctx, k, x, y) == sq(ctx, k, x * y)


def test_slope_two_diagonal_squares():
    # every monomial of bidegree ([m/2])[m] squares under sq(m, .) and dies above
    ctx = bso_context(6)
    ring = ctx.ring
    for m in range(2, 11):
        for mono in monomials_of_bidegree(ring, m, m // 2):
            w = ring.poly([mono])
            assert sq(ctx, m, w) == w * w
            assert sq(ctx, m + 1, w) == ring.zero


def test_square_split_parity():
    rng = random.Random(36)
    ctx = bso_context(5)
    t = ctx.ring.gen("t")
    for _ in range(60):
        z = random_bihomogeneous(ctx.ring, rng, 2, 2)
        for c in (1, 2, 3):
            lhs = sq(ctx, 2 * c, z * z)
            rhs = sq(ctx, c, z) ** 2
            if c % 2:
                rhs = t * rhs
            assert lhs == rhs


def test_topological_flavor_is_classical():
    rng = random.Random(37)
    ctx = bso_top_context(6)
    for _ in range(80):
        x = random_bihomogeneous(ctx.ring, rng, 3, 3)
        if not x:
            continue
        k = rng.randint(0, 8)
        y = sq(ctx, k, x)
        if y:
            assert y.bidegree().q == 0


def test_thom_module_examples():
    ctx = bso_context(3)
    one_alpha = ThomModuleElement(ctx, ctx.ring.one)
    assert str(thom_sq(ctx, 2, one_alpha)) == "(u2)*alpha"
    assert str(thom_sq(ctx, 3, one_alpha)) == "(u3)*alpha"
    assert not thom_sq(ctx, 5, one_alpha)
    assert not thom_sq(ctx, 1, one_alpha)  # u1 = 0 in the SO flavor
    w_alpha = ThomModuleElement(ctx, ctx.ring.gen("u2"))
    assert thom_sq(ctx, 0, w_alpha) == w_alpha
    assert str(thom_sq(ctx, 1, w_alpha)) == "(u3)*alpha"


def test_thom_module_arithmetic():
    ctx = bso_context(4)
    ring = ctx.ring
    a = ThomModuleElement(ctx, ring.gen("u2"))
    b = ThomModuleElement(ctx, ring.gen("u3"))
    assert (a + b) + a == b
    assert str(a + b) == "(u3+u2)*alpha"
    rng = random.Random(38)
    for _ in range(50):
        x = ThomModuleElement(ctx, random_bihomogeneous(ring, rng, 2, 2))
        y = ThomModuleElement(ctx, random_bihomogeneous(ring, rng, 2, 2))
        k = rng.randint(0, 6)
        assert thom_sq(ctx, k, x + y) == thom_sq(ctx, k, x) + thom_sq(ctx, k, y)


def test_thom_bidegree_shift():
    # alpha contributes (floor(n/2))[n] on top of the coefficient bidegree
    ctx = bso_context(5)
    ring = ctx.ring
    e = ThomModuleElement(ctx, ring.gen("u2"))
    assert e.bidegree() == Bidegree(2 + 5, 1 + 2)
    # k = 3 cancels completely: the b=2 and b=3 Cartan terms coincide
    assert not thom_sq(ctx, 3, e)
    s = thom_sq(ctx, 4, e)
    assert str(s) == "(u2^3+u2*u4+t*u3^2)*alpha"
    assert s.bidegree() == e.bidegree() + Bidegree(4, 2)


def test_theta_13_byte_identical():
    # term counts and the SHA-256 of str(theta_7), recorded when every Steenrod
    # sum was still a termwise fold
    ctx = bso_context(13)
    assert [len(theta(ctx, j).terms) for j in range(8)] == [1, 1, 2, 7, 35, 207, 1295, 8271]
    digest = hashlib.sha256(str(theta(ctx, 7)).encode()).hexdigest()
    assert digest == "2e7d77909e6c2204f616841091691ae20ba0509717db61ffaf60631e3edebc1a"


def test_theta_16_byte_identical():
    # the SHA-256 of str(theta_7) at n = 16, recorded while every theta step
    # still ran the Cartan recursion of _sq_mono
    ctx = bso_context(16)
    digest = hashlib.sha256(str(theta(ctx, 7)).encode()).hexdigest()
    assert digest == "e279e25aeab3011625c10844c53be0228c7c912cd3e88005ca287d8b9190b4bb"


def test_theta_steps_leave_the_monomial_memo_empty():
    # theta_j has degree 2^j + 1, so every theta step is Sq^{p-1}, which sq
    # takes in closed form without the _sq_mono recursion
    for fn in (steenrod.theta, steenrod._sq_mono, steenrod._sq_gen):
        fn.cache_clear()
    ctx = bso_context(13)
    assert [len(theta(ctx, j).keys) for j in range(8)] == [1, 1, 2, 7, 35, 207, 1295, 8271]
    assert steenrod._sq_mono.cache_info().currsize == 0


def _guard_bits(ring, names):
    """The drop mask of the generators of ``names`` that ``ring`` has."""
    return sum(ring.support(ring.gen(g).keys[0]) for g in names if ring.has(g))


def _without(x, drop):
    support = x.ring.support
    return x.ring.poly_of_keys(k for k in x.keys if not support(k) & drop)


_DROPS = [("u2",), ("u2", "u3"), ("u2", "u3", "u5", "u9"), ("t",), ("t", "u3")]


@pytest.mark.parametrize("top", [False, True], ids=["bso", "bso_top"])
def test_restricted_sq_is_the_filtered_full_sq(top):
    # theta_j less the multiples of the dropped generators, built directly,
    # is theta_j with those terms filtered out; in the topological flavor
    # the u-names stand for w-classes and t is absent
    for n in range(3, 15):
        ctx = bso_top_context(n) if top else bso_context(n)
        ring = ctx.ring
        for names in _DROPS:
            drop = _guard_bits(ring, [ctx.letter + g[1:] if g != "t" else g for g in names])
            for j in range(0, 8):
                got = steenrod._theta_without(ctx, j, drop)
                assert got == _without(theta(ctx, j), drop), (n, names, j)


def test_restricted_sq_is_the_filtered_full_sq_off_the_theta_steps():
    # terms with tau and of every degree, so _sq_mono's images are filtered
    # and _below_top sees parts with a positive tau exponent
    ctx = bso_context(7)
    ring = ctx.ring
    rng = random.Random(24)
    for _ in range(40):
        x = random_bihomogeneous(ring, rng, 4, 6) + random_bihomogeneous(ring, rng, 4, 6)
        k = rng.randint(0, 12)
        full = sq(ctx, k, x)
        for names in _DROPS:
            drop = _guard_bits(ring, names)
            assert steenrod._sq(ctx, k, x, drop) == _without(full, drop), (x, k, names)


def _outcome(f, *args):
    try:
        return f(*args)
    except ExponentOverflow:
        return ExponentOverflow


def test_top_two_squares_match_termwise_fold_at_the_exponent_limit():
    # Sq^{p-1} (closed form) and Sq^p (the square) of tau^c u2^b u3^a, with
    # exponents around half of and at MAX_EXPONENT: both must give the
    # oracle's answer, or raise where it raises
    ctx = bso_context(6)
    h = MAX_EXPONENT // 2
    raised = 0
    for a in (1, h - 1, h, h + 1, h + 2, MAX_EXPONENT):
        for b in (0, 1, h, h + 1):
            for c in (0, 1, MAX_EXPONENT):
                x = ctx.ring.monomial({"t": c, "u2": b, "u3": a})
                p = 2 * b + 3 * a
                for k in (p - 1, p):
                    want = _outcome(sq_by_fold, ctx, k, x)
                    assert _outcome(sq, ctx, k, x) == want, (a, b, c, k)
                    raised += want is ExponentOverflow
    assert 0 < raised < 144
    # with many odd classes the tau exponent of Sq^{p-1} passes the field:
    # t^M*u3^h*u5^h*...*u11^h must raise, not wrap the tau field
    ctx = bso_context(11)
    x = ctx.ring.monomial({"t": MAX_EXPONENT, **{f"u{i}": h for i in (3, 5, 7, 9, 11)}})
    p = x.bidegree().p
    assert _outcome(sq_by_fold, ctx, p - 1, x) is ExponentOverflow
    assert _outcome(sq, ctx, p - 1, x) is ExponentOverflow


@pytest.mark.parametrize(
    "ctx",
    [bso_context(n) for n in range(5, 10)]
    + [bo_context(6), bso_top_context(7), bo_top_context(6)],
    ids=lambda ctx: f"{ctx.flavor}{ctx.n}",
)
def test_squares_match_termwise_fold(ctx):
    rng = random.Random(ctx.n * 101 + len(ctx.ring))
    ring = ctx.ring
    for _ in range(25):
        # the sum of two random bihomogeneous terms mixes bidegrees
        x = random_bihomogeneous(ring, rng, 4, 6) + random_bihomogeneous(ring, rng, 4, 6)
        y = random_bihomogeneous(ring, rng, 2, 3)
        k = rng.randint(0, 12)
        assert sq(ctx, k, x) == sq_by_fold(ctx, k, x)
        assert cartan(ctx, k, x, y) == cartan_by_fold(ctx, k, x, y)
        assert thom_sq(ctx, k, ThomModuleElement(ctx, x)).coefficient == thom_sq_by_fold(ctx, k, x)


def test_theta_term_counts_14_to_16():
    counts = {
        14: [1, 1, 2, 7, 36, 223, 1484, 10155],
        15: [1, 1, 2, 7, 37, 242, 1713, 12535],
        16: [1, 1, 2, 7, 37, 252, 1891, 14739],
    }
    for n, want in counts.items():
        ctx = bso_context(n)
        assert [len(theta(ctx, j).keys) for j in range(8)] == want


@pytest.mark.parametrize(
    "ctx",
    [bso_context(n) for n in range(5, 10)]
    + [bo_context(6), bso_top_context(7), bo_top_context(6)],
    ids=lambda ctx: f"{ctx.flavor}{ctx.n}",
)
def test_squares_match_termwise_fold_at_the_instability_edge(ctx):
    # Sq^k of degree p vanishes for k > p and is the square at k = p; the
    # Cartan recursion skips the indices that instability kills, so test
    # k just below, at and above the degree of the whole argument
    rng = random.Random(ctx.n * 211 + len(ctx.ring))
    ring = ctx.ring
    for _ in range(12):
        x = random_bihomogeneous(ring, rng, 4, 6)
        y = random_bihomogeneous(ring, rng, 2, 3)
        p, py = x.bidegree().p, y.bidegree().p
        for k in range(max(0, p - 2), p + 2):
            assert sq(ctx, k, x) == sq_by_fold(ctx, k, x)
        # Sq^b alpha stops at b = n, so the Thom element's edge is p + n
        w = ThomModuleElement(ctx, x)
        for k in [*range(max(0, p - 2), p + 2), *range(p + ctx.n - 2, p + ctx.n + 2)]:
            assert thom_sq(ctx, k, w).coefficient == thom_sq_by_fold(ctx, k, x)
        for k in range(max(0, p + py - 2), p + py + 2):
            assert cartan(ctx, k, x, y) == cartan_by_fold(ctx, k, x, y)


def _thom_one(n):
    return ThomModuleElement(bso_context(n), bso_ring(n).one)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: sq(bso_context(5), 1, bso_ring(6).gen("u2")), RingError),
        (lambda: sq(bso_context(5), -1, bso_ring(5).gen("u2")), ValueError),
        (lambda: theta(bso_context(5), -1), ValueError),
        (lambda: ThomModuleElement(bso_context(5), bso_ring(6).gen("u2")), RingError),
        (lambda: _thom_one(5) + _thom_one(6), RingError),
        (lambda: thom_sq(bso_context(5), -1, _thom_one(5)), ValueError),
        (lambda: thom_sq(bso_context(6), 1, _thom_one(5)), RingError),
    ],
    ids=["sq-ring", "sq-index", "theta-index", "thom-ring", "thom-add", "thom-sq-index", "thom-sq-context"],
)
def test_input_checks(call, error):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error
