import itertools
import random

import pytest

from subtlesw import _reduction, grobner
from subtlesw.poly import INHOMOGENEOUS, Bidegree, Poly, Ring, RingError, bso_ring, parse_poly
from subtlesw.grobner import (
    Budget,
    BudgetExceeded,
    GroebnerBasis,
    HilbertSeries,
    InhomogeneousError,
    RegularSequenceChecker,
    groebner_basis,
    hilbert_series,
    ideal_member,
    is_regular_sequence,
    krull_dimension,
    normal_form,
)
from subtlesw.spaces import PoincareReport, k_computed, k_expected, present
from subtlesw.steenrod import bso_context, theta

from oracles import (
    count_standard_monomials,
    krull_dimension_by_subsets,
    lt_numerator,
    macaulay_member,
    random_bihomogeneous,
    random_monomial,
)
from test_reduction import BENCH_GENS


def gb_strings(gb):
    return [str(g) for g in gb]


def test_basis_examples():
    ring = bso_ring(5)
    gb = groebner_basis(ring, [parse_poly(ring, "u2"), parse_poly(ring, "u2*u3+u5")])
    assert sorted(gb_strings(gb)) == ["u2", "u5"]
    assert gb_strings(groebner_basis(ring, [])) == []
    assert gb_strings(groebner_basis(ring, [parse_poly(ring, "u3")])) == ["u3"]
    # zero generators are dropped
    assert groebner_basis(ring, [ring.zero]) == groebner_basis(ring, [])


def test_normal_form_examples():
    ring = bso_ring(5)
    gb1 = groebner_basis(ring, [parse_poly(ring, "u2")])
    assert str(normal_form(parse_poly(ring, "u2*u4+u3"), gb1)) == "u3"
    gb2 = groebner_basis(ring, [parse_poly(ring, "u2"), parse_poly(ring, "u2*u3+u5")])
    assert normal_form(parse_poly(ring, "u5"), gb2) == ring.zero
    assert str(normal_form(parse_poly(ring, "u4"), gb2)) == "u4"


def test_membership_examples():
    ring = bso_ring(5)
    gb = groebner_basis(ring, [ring.gen("u2"), ring.gen("u3")])
    theta2 = parse_poly(ring, "u2*u3+u5")
    # one term reduces, the other survives
    assert str(normal_form(theta2, gb)) == "u5"
    assert not ideal_member(theta2, gb)
    assert ideal_member(parse_poly(ring, "u2*u3"), groebner_basis(ring, [ring.gen("u2")]))


def test_theta3_not_in_i3_for_bso11():
    ctx = bso_context(11)
    ring = ctx.ring
    gb = groebner_basis(ring, [theta(ctx, j) for j in range(3)])
    assert not ideal_member(theta(ctx, 3), gb)


def test_normal_form_is_idempotent_and_certifies_membership():
    rng = random.Random(21)
    ring = bso_ring(4)
    for _ in range(50):
        gens = [random_bihomogeneous(ring, rng, 3, 3) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if g]
        gb = groebner_basis(ring, gens)
        x = random_bihomogeneous(ring, rng, 4, 4)
        r = normal_form(x, gb)
        assert normal_form(r, gb) == r
        assert ideal_member(x + r, gb)


def random_inhomogeneous(ring, rng):
    """A sum of random bihomogeneous parts, not all of one bidegree."""
    while True:
        f = sum((random_bihomogeneous(ring, rng, 3, 2) for _ in range(rng.randint(2, 3))), ring.zero)
        if f.bidegree() is INHOMOGENEOUS:
            return f


def test_reduced_basis_is_canonical():
    # the reduced basis must not depend on generator order or redundancy;
    # inhomogeneous generators take the same pair order (smallest lcm first)
    rng = random.Random(22)
    ring = bso_ring(4)
    draws = [lambda: random_bihomogeneous(ring, rng, 3, 3), lambda: random_inhomogeneous(ring, rng)]
    for draw in draws:
        for _ in range(40):
            gens = [draw() for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if g]
            if not gens:
                continue
            gb = groebner_basis(ring, gens)
            for perm in itertools.permutations(gens):
                assert groebner_basis(ring, list(perm)) == gb
            assert groebner_basis(ring, gens + [gens[0] * gens[-1]]) == gb
    # reduced: no term of any element divisible by another leading term
    gb = groebner_basis(ring, [parse_poly(ring, "u2*u3+u4"), parse_poly(ring, "u2^2")])
    lts = [p.lead_monomial() for p in gb]
    for g in gb:
        for m in g.terms:
            others = [lt for lt in lts if lt != g.lead_monomial()]
            assert not any(all(a >= b for a, b in zip(m, lt)) for lt in others)


def test_s_polynomials_reduce_to_zero():
    rng = random.Random(23)
    ring = bso_ring(5)
    draws = [lambda: random_bihomogeneous(ring, rng, 3, 3), lambda: random_inhomogeneous(ring, rng)]
    for draw in draws:
        for _ in range(20):
            gens = [draw() for _ in range(rng.randint(2, 3))]
            gens = [g for g in gens if g]
            if len(gens) < 2:
                continue
            gb = groebner_basis(ring, gens)
            polys = list(gb)
            for f, g in itertools.combinations(polys, 2):
                lf, lg = f.lead_monomial(), g.lead_monomial()
                lcm = tuple(max(a, b) for a, b in zip(lf, lg))
                mf = ring.poly([tuple(l - a for l, a in zip(lcm, lf))])
                mg = ring.poly([tuple(l - a for l, a in zip(lcm, lg))])
                assert normal_form(mf * f + mg * g, gb) == ring.zero


def test_hilbert_series_free_algebra():
    ring = Ring([("u2", Bidegree(2, 1)), ("u3", Bidegree(3, 1))])
    hs = hilbert_series(groebner_basis(ring, []))
    assert hs.to_json() == {"numerator": [[1, 0, 0]], "denominator": [[2, 1], [3, 1]]}
    exp = hs.expand(10)
    assert exp[(0, 0)] == 1 and exp[(5, 2)] == 1 and exp[(6, 2)] == 1
    assert (1, 0) not in exp


def test_hilbert_series_principal_ideal():
    ring = Ring([("u2", Bidegree(2, 1)), ("u3", Bidegree(3, 1))])
    hs = hilbert_series(groebner_basis(ring, [ring.gen("u2") * ring.gen("u3")]))
    assert hs.to_json()["numerator"] == [[1, 0, 0], [-1, 5, 2]]
    free = hilbert_series(groebner_basis(ring, []))
    assert hs == free.times_factor(5, 2)


def test_hilbert_series_complete_intersection_cross_checked():
    ring = bso_ring(7)
    gens = [parse_poly(ring, s) for s in ("u2", "u3", "u2*u3+u5")]
    gb = groebner_basis(ring, gens)
    hs = hilbert_series(gb)
    free = hilbert_series(groebner_basis(ring, []))
    want = free.times_factor(2, 1).times_factor(3, 1).times_factor(5, 2)
    assert hs == want
    # degreewise dimension count agrees with standard monomial enumeration
    lts = [p.lead_monomial() for p in gb]
    for (p, q), dim in hs.expand(20).items():
        assert dim == count_standard_monomials(ring, lts, p, q)


def _oracle_rings():
    xy = Ring([("x1", (1, 0)), ("y1", (0, 1)), ("x2", (2, 1)), ("y2", (1, 3))])
    return [bso_ring(n) for n in range(3, 9)] + [xy]


def _random_monomial_ideal(ring, rng):
    """Pure powers (often above 1, of t too) and monomials of mixed support."""
    gens = []
    for _ in range(rng.randint(1, 5)):
        e = [0] * len(ring)
        kind = rng.random()
        if kind < 0.4:
            e[rng.randrange(len(ring))] = rng.randint(1, 3)
        elif kind < 0.5 and ring.has("t"):
            e[ring.index("t")] = rng.randint(1, 3)
        else:
            e = list(random_monomial(ring, rng, 4))
        gens.append(ring.poly([e]))
    return gens


def _oracle_ideals(seed):
    """Seeded monomial ideals, with the zero and unit ideals, in every ring."""
    rng = random.Random(seed)
    for ring in _oracle_rings():
        yield ring, groebner_basis(ring, [])
        yield ring, groebner_basis(ring, [ring.one])
        for _ in range(12):
            yield ring, groebner_basis(ring, _random_monomial_ideal(ring, rng))


def test_hilbert_series_of_monomial_ideals_counts_standard_monomials():
    seen = {"power": 0, "t": 0, "mixed": 0, "unit": 0}
    for ring, gb in _oracle_ideals(91):
        lts = [p.lead_monomial() for p in gb]
        for m in lts:
            support = [i for i, e in enumerate(m) if e]
            seen["unit"] += not support
            seen["mixed"] += len(support) > 1
            seen["power"] += len(support) == 1 and max(m) > 1
            seen["t"] += ring.has("t") and support == [ring.index("t")]
        exp = hilbert_series(gb).expand(9)
        for d in range(10):
            for p in range(d + 1):
                assert exp.get((p, d - p), 0) == count_standard_monomials(ring, lts, p, d - p)
    assert min(seen.values()) >= 5, seen


def test_krull_dimension_matches_the_subset_oracle():
    rng = random.Random(92)
    for ring, gb in _oracle_ideals(93):
        assert krull_dimension(gb) == krull_dimension_by_subsets(ring, [p.lead_monomial() for p in gb])
    # leading terms of polynomial ideals, which are not monomial
    for ring in _oracle_rings()[:4]:
        for _ in range(10):
            gens = [random_bihomogeneous(ring, rng, max_factors=3) for _ in range(3)]
            gb = groebner_basis(ring, gens)
            assert krull_dimension(gb) == krull_dimension_by_subsets(ring, [p.lead_monomial() for p in gb])


def _random_leads(ring, rng, seen):
    """Keys of a random monomial ideal: variables, pure powers, powers of t,
    mixed monomials, generators in variables no other generator uses, and
    now and then 1.  ``seen`` counts the shapes drawn."""
    n = len(ring)
    order = list(range(n))
    rng.shuffle(order)
    lonely, common = order[: rng.randint(0, 2)], order[2:] or order
    shapes = []
    for i in lonely:
        shapes.append(("isolated", {i: rng.randint(1, 3)}))
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(("variable", "power", "t", "mixed"))
        if kind == "t" and ring.has("t"):
            shapes.append((kind, {ring.index("t"): rng.randint(1, 3)}))
        elif kind == "variable":
            shapes.append((kind, {rng.choice(common): 1}))
        elif kind == "power":
            shapes.append((kind, {rng.choice(common): rng.randint(2, 4)}))
        elif kind == "mixed" and len(common) > 1:
            support = rng.sample(common, min(len(common), rng.randint(2, 3)))
            shapes.append((kind, {i: rng.randint(1, 3) for i in support}))
    if rng.random() < 0.05:
        shapes.append(("unit", {}))
    leads = []
    for kind, exponents in shapes:
        seen[kind] += 1
        leads.append(ring.sort_key(tuple(exponents.get(i, 0) for i in range(n))))
    return leads


def test_lt_numerator_matches_the_reference_on_random_monomial_ideals(monkeypatch):
    # both branches of the colon rule: a quotient freed of the pivot removes
    # a generator without it from I : x^e, or removes none
    pivot = grobner._pivot
    branches = {"removes": 0, "keeps": 0}

    def counting(ring, linked, shared):
        p, q, plus, colon = pivot(ring, linked, shared)
        branches["removes" if len(colon) < len(linked) else "keeps"] += 1
        return p, q, plus, colon

    monkeypatch.setattr(grobner, "_pivot", counting)
    rng = random.Random(95)
    seen = dict.fromkeys(("isolated", "variable", "power", "t", "mixed", "unit"), 0)
    for ring in _oracle_rings():
        for _ in range(50):
            leads = _random_leads(ring, rng, seen)
            gens = grobner._minimalize(ring, leads)
            assert grobner._lt_numerator(ring, gens) == lt_numerator(ring, leads), leads
    assert min(seen.values()) >= 5, seen
    assert min(branches.values()) >= 5, branches


def test_lt_numerator_matches_the_reference_on_theta_bases(monkeypatch):
    # every numerator that k_computed(2..13) asks for: the leading terms of
    # each checker basis and the colon ideals of the running numerator
    numerator = grobner._lt_numerator
    calls = []

    def recording(ring, leads):
        calls.append((ring, list(leads)))
        return numerator(ring, leads)

    monkeypatch.setattr(grobner, "_lt_numerator", recording)
    for n in range(2, 14):
        assert k_computed(n) == k_expected(n)
    assert len(calls) > 100
    for ring, leads in calls:
        assert numerator(ring, leads) == lt_numerator(ring, leads)


def test_the_running_numerator_check_fires(monkeypatch):
    # a colon numerator knocked off by one term leaves the running gap
    # wrong, and the final from-scratch numerator of the basis says so
    ctx = bso_context(13)
    chk = RegularSequenceChecker(ctx.ring)
    for j in range(6):
        assert chk.append(theta(ctx, j))
    numerator = grobner._lt_numerator
    calls = [0]

    def perturbed(ring, gens):
        calls[0] += 1
        res = numerator(ring, gens)
        # a colon numerator: the first call is the numerator of the known
        # leads, the last the final check, and the third colon comes fourth
        if calls[0] == 4:
            res = grobner._p2_axpy(res, 1, 40, 40, {(0, 0): 1})
        return res

    theta_6 = theta(ctx, 6)
    monkeypatch.setattr(grobner, "_lt_numerator", perturbed)
    with pytest.raises(ArithmeticError, match="^the running Hilbert numerator disagrees with the basis$"):
        chk.append(theta_6)
    assert calls[0] > 4 and chk.length == 6
    monkeypatch.undo()
    assert chk.append(theta_6)


def _bench_checker():
    """The bench ideal's generators as a sequence g3, g1, g0, g2 (0-based
    in BENCH_GENS), a checker of the first three, and the last."""
    ring = bso_ring(8)
    g = [parse_poly(ring, s) for s in BENCH_GENS]
    chk = RegularSequenceChecker(ring, Budget())
    for f in (g[3], g[1], g[0]):
        assert chk.append(f)
    return ring, chk, g[2]


def test_a_failed_append_stops_once_the_gap_lies_below_the_basis_degree():
    # g2 is a zero divisor on the ideal of g3, g1, g0.  Once a popped pair's
    # lcm lies above the lowest degree of the Hilbert gap, G is a basis up
    # to there, and the append returns: 1,599 units, where treating every
    # pair took 23,540.  The state is as it was before the append: the
    # same basis object and the same length.
    ring = bso_ring(8)
    g = [parse_poly(ring, s) for s in BENCH_GENS]
    b = Budget()
    assert is_regular_sequence(ring, [g[3], g[1], g[0], g[2]], b) == (False, 4)
    assert b.used == 1599
    ring, chk, last = _bench_checker()
    basis = chk.basis
    assert not chk.append(last)
    assert chk.budget.used == 1599
    assert chk.basis is basis and chk.length == 3
    # the verdict of the full basis: the series of the ideal of all four
    # is not the drop by g2's factor
    bd = last.bidegree()
    full = hilbert_series(groebner_basis(ring, g))
    assert full != hilbert_series(basis).times_factor(bd.p, bd.q)


def test_a_failed_append_still_checks_the_running_numerator(monkeypatch):
    # the append that stops early still compares the running numerator
    # with the one of its minimal leading terms
    ring, chk, last = _bench_checker()
    numerator = grobner._lt_numerator
    calls = [0]

    def perturbed(ring, gens):
        calls[0] += 1
        res = numerator(ring, gens)
        if calls[0] == 2:  # the appended element's colon; call 1 is the known leads'
            res = grobner._p2_axpy(res, 1, 40, 40, {(0, 0): 1})
        return res

    monkeypatch.setattr(grobner, "_lt_numerator", perturbed)
    with pytest.raises(ArithmeticError, match="^the running Hilbert numerator disagrees with the basis$"):
        chk.append(last)
    assert chk.budget.used <= 1599 and chk.length == 3


def _dropped_terms_are_charged_as_the_kernel_would(gb, x, limits):
    """normal_form and ideal_member against one kernel call on all of x's
    keys, under each budget limit; True when some limit ran out.  The
    kernel takes the same steps under any limit and stops at the first
    step past it, so it runs out exactly when its steps exceed the limit."""
    want, steps = _reduction.normal_form_terms(x.keys, gb._keys, gb._table, 10**9)
    ran_out = False
    for limit in limits:
        for reduce in (normal_form, ideal_member):
            budget = Budget(limit)
            if steps > limit:
                with pytest.raises(BudgetExceeded) as info:
                    reduce(x, gb, budget)
                assert (info.value.used, info.value.limit) == (limit + 1, limit)
                ran_out = True
            else:
                got = reduce(x, gb, budget)
                assert got == (Poly(gb.ring, want) if reduce is normal_form else not want)
                assert budget.used == steps
    return ran_out


def test_basis_variables_drop_out_with_the_kernel_remainder_and_units():
    # the theta bases of n = 9..16 and a lifted BSpin basis lead with the
    # variables u2, u3, u5, u9: the terms they divide are dropped before the
    # kernel runs, at one unit each, with the kernel's remainder and units
    rng = random.Random(96)
    bases = []
    for n in range(9, 17):
        ctx = bso_context(n)
        chk = RegularSequenceChecker(ctx.ring)
        k = k_expected(n)
        for j in range(k):
            assert chk.append(theta(ctx, j))
        bases.append((chk.basis, theta(ctx, k)))
    pres = present("BSpin", 11)
    lifted = pres.ring.poly(t + (0,) for t in theta(bso_context(11), pres.k).terms)
    bases.append((pres.relations, lifted))
    exhausted = 0
    for gb, member in bases:
        ring = gb.ring
        assert [str(g) for g in gb.polys[-4:]] == ["u9", "u5", "u3", "u2"]
        variables = [ring.index(v) for v in ("u2", "u3", "u5", "u9")]
        other = ring.poly([random_monomial(ring, rng, 6) for _ in range(20)])
        for x in (member, other):
            dropped = sum(1 for k in x.keys if any(ring.exponent(k, i) for i in variables))
            assert dropped
            # the dropped terms alone exhaust dropped - 1
            limits = [10**7, dropped - 1] if len(x.keys) > 100 else [10**7, 0, dropped - 1, dropped, dropped + 1]
            exhausted += _dropped_terms_are_charged_as_the_kernel_would(gb, x, limits)
    assert exhausted == 2 * len(bases)
    # u5 sorts behind u2^2 + u4, which the kernel tries first on u2^2*u5:
    # the terms u5 divides are left to the kernel
    ring = bso_ring(6)
    gb = groebner_basis(ring, [parse_poly(ring, "u2^2+u4"), parse_poly(ring, "u5")])
    x = parse_poly(ring, "u2^2*u5+u4*u5+u3*u5")
    assert _dropped_terms_are_charged_as_the_kernel_would(gb, x, [10**7, 0, 1, 2])


def test_hilbert_expansion_json_shape():
    ring = Ring([("u2", Bidegree(2, 1))])
    hs = hilbert_series(groebner_basis(ring, []))
    rows = PoincareReport(hs, hs.expand(6)).to_json()["expansion"]
    assert rows == [[1, 0, 0], [1, 2, 1], [1, 4, 2]]


def test_hilbert_series_equality_cancels_common_factors():
    ring = Ring([("u2", Bidegree(2, 1)), ("u3", Bidegree(3, 1))])
    a = HilbertSeries({(0, 0): 1}, [(2, 1)])
    b = HilbertSeries({(0, 0): 1, (3, 1): -1}, [(2, 1), (3, 1)])
    assert a == b  # (1-T^3S) cancels
    assert not (a == HilbertSeries({(0, 0): 1}, [(3, 1)]))
    del ring
    # a non-series is left to the other operand, and a series is unhashable
    assert a.__eq__((0, 0)) is NotImplemented and a != (0, 0)
    with pytest.raises(TypeError):
        hash(a)


def test_hilbert_expansion_rejects_a_negative_coefficient():
    with pytest.raises(ArithmeticError, match="negative coefficient"):
        HilbertSeries({(0, 0): 1, (2, 1): -2}, [(2, 1)]).expand(4)


def test_hilbert_expansion_rejects_a_negative_degree():
    hs = HilbertSeries({(0, 0): 1}, [(2, 1)])
    assert hs.expand(0) == {(0, 0): 1}
    with pytest.raises(ValueError, match="nonnegative"):
        hs.expand(-1)


def test_hilbert_series_rejects_inhomogeneous():
    ring = bso_ring(3)
    gb = groebner_basis(ring, [parse_poly(ring, "u2+u3")])
    with pytest.raises(InhomogeneousError):
        hilbert_series(gb)


def test_krull_dimension_examples():
    ring = Ring([("x1", Bidegree(1, 0)), ("y1", Bidegree(1, 0))])
    assert krull_dimension(groebner_basis(ring, [ring.gen("x1") * ring.gen("y1")])) == 1
    four = Ring(
        [("x1", (1, 0)), ("y1", (1, 0)), ("x2", (1, 0)), ("y2", (1, 0))]
    )
    assert krull_dimension(groebner_basis(four, [])) == 4
    assert krull_dimension(groebner_basis(four, [four.one])) == -1


def test_krull_dimension_twisted_form_truncation():
    # first two twisted pairings for the 10-dimensional split form cut the
    # dimension of the 8-variable ambient space by exactly two
    from subtlesw.formsf2 import form_ring, quillen_form, twisted_sequence

    form = quillen_form(10)
    assert form.dim == 4
    seq = twisted_sequence(form, 2)
    gb = groebner_basis(form_ring(form.dim), seq)
    assert krull_dimension(gb) == 8 - 2


def test_regular_sequence_examples():
    ring4 = bso_ring(4)
    assert is_regular_sequence(ring4, [ring4.gen("u2"), ring4.gen("u3")]) == (True, None)
    u2, u3 = ring4.gen("u2"), ring4.gen("u3")
    assert is_regular_sequence(ring4, [u2, u2 * u3]) == (False, 2)
    ctx = bso_context(7)
    seq = [ctx.ring.gen("t")] + [theta(ctx, j) for j in range(3)]
    assert is_regular_sequence(ctx.ring, seq) == (True, None)


def test_regular_sequence_edge_cases():
    ring = bso_ring(3)
    assert is_regular_sequence(ring, [ring.gen("u2"), ring.zero]) == (False, 2)
    assert is_regular_sequence(ring, [ring.zero]) == (False, 1)
    with pytest.raises(InhomogeneousError):
        is_regular_sequence(ring, [parse_poly(ring, "u2+u3")])
    with pytest.raises(ValueError):
        is_regular_sequence(ring, [ring.one])
    assert is_regular_sequence(ring, []) == (True, None)


def test_checker_incremental_state():
    ring = bso_ring(5)
    chk = RegularSequenceChecker(ring)
    assert chk.append(ring.gen("u2"))
    assert chk.append(ring.gen("u3"))
    assert chk.length == 2
    # failure leaves the accumulated ideal unchanged
    assert not chk.append(ring.gen("u2") * ring.gen("u4"))
    assert chk.length == 2
    assert chk.basis == groebner_basis(ring, [ring.gen("u2"), ring.gen("u3")])
    assert chk.append(ring.gen("u4"))
    assert chk.length == 3


def test_checker_basis_is_built_once_per_accepted_append():
    ring = bso_ring(5)
    chk = RegularSequenceChecker(ring)
    first = chk.basis
    assert chk.basis is first
    assert chk.append(ring.gen("u2"))
    second = chk.basis
    assert second is not first and chk.basis is second
    assert not chk.append(ring.gen("u2") * ring.gen("u3"))  # in the ideal
    assert not chk.append(ring.zero)
    assert chk.basis is second


def check_incremental_bases(ring, seq):
    """Append ``seq``; after each accepted append the basis must equal the
    from-scratch basis of the accepted prefix.  Returns how many elements
    were accepted, rejected as ideal members, and rejected by the Hilbert
    series."""
    chk = RegularSequenceChecker(ring)
    accepted = []
    counts = [0, 0, 0]
    for f in seq:
        member = ideal_member(f, chk.basis)
        if chk.append(f):
            accepted.append(f)
            gb = groebner_basis(ring, accepted)
            assert chk.basis == gb
            assert chk.basis._keys == gb._keys
            counts[0] += 1
        else:
            counts[1 if member else 2] += 1
    return counts


def random_sequences():
    """The seeded random sample of short sequences in bso_ring(4..6)."""
    rng = random.Random(31)
    sample = []
    for n in (4, 5, 6):
        ring = bso_ring(n)
        for _ in range(30):
            seq = [random_bihomogeneous(ring, rng, 3, 4) for _ in range(rng.randint(1, 5))]
            sample.append((ring, seq))
    return sample


def test_incremental_bases_equal_from_scratch_random():
    totals = [0, 0, 0]
    for ring, seq in random_sequences():
        counts = check_incremental_bases(ring, seq)
        totals = [t + c for t, c in zip(totals, counts)]
    # the sample takes every path of append
    assert all(totals)


def test_incremental_bases_equal_from_scratch_theta():
    for n in range(2, 13):
        ctx = bso_context(n)
        k = k_expected(n)
        assert check_incremental_bases(ctx.ring, [theta(ctx, j) for j in range(k)]) == [k, 0, 0]


def _appends_match_the_oracles(ring, seq, var):
    """Append ``seq`` to a checker.  After each append its basis must be
    ``groebner_basis`` of the accepted prefix, and the verdict must be
    whether the oracle numerator of that prefix and f is the one before,
    dropped by f's factor.  Returns, for each append made while the
    variable ``var`` leads an element of the basis, the verdict and
    whether ``var`` is in the run of variables that leads the key basis."""
    chk = RegularSequenceChecker(ring)
    accepted, before, out = [], {(0, 0): 1}, []
    for f in seq:
        keys = chk.basis._keys
        run = chk.basis._drop & ring.support(var.keys[0])
        bd = f.bidegree()
        after = lt_numerator(ring, [g.keys[0] for g in groebner_basis(ring, accepted + [f])])
        verdict = chk.append(f)
        assert verdict == (after == grobner._p2_axpy(before, -1, bd.p, bd.q, before))
        if verdict:
            accepted.append(f)
            before = after
        assert chk.basis == groebner_basis(ring, accepted)
        if var.keys in keys:
            out.append((verdict, bool(run)))
    return out


def test_a_variable_that_joins_mid_sequence_sits_out_later_appends():
    # t sorts below every other monomial but 1, so once it joins it leads
    # the basis, and every later append leaves it out of G
    rng = random.Random(32)
    later = {True: 0, False: 0}  # verdicts of the appends after t joined
    for n in (6, 7, 8):
        ring = bso_ring(n)
        t = ring.gen("t")
        for _ in range(6):
            head = [random_bihomogeneous(ring, rng, 3, 4) for _ in range(2)]
            tail = [random_bihomogeneous(ring, rng, 3, 4) for _ in range(3)]
            for verdict, inert in _appends_match_the_oracles(ring, head + [t] + tail, t):
                assert inert
                later[verdict] += 1
    assert min(later.values()) >= 3, later


def test_a_variable_above_a_lead_that_is_no_variable_stays_in_g():
    # u_n sorts above the leads of low-degree elements, so the run of
    # variables that leads the basis can end before it, and it stays in G
    rng = random.Random(33)
    later = {True: 0, False: 0}  # verdicts of the appends with u_n in G
    for n in (6, 7, 8):
        ring = bso_ring(n)
        u = ring.gen(f"u{n}")
        for _ in range(6):
            head = [random_bihomogeneous(ring, rng, 2, 4)]
            tail = [random_bihomogeneous(ring, rng, 3, 4) for _ in range(3)]
            for verdict, inert in _appends_match_the_oracles(ring, head + [u] + tail, u):
                if not inert:
                    later[verdict] += 1
    assert min(later.values()) >= 3, later


def test_theta_appends_reduce_no_pair_to_zero():
    # the pairs that would reduce to zero lie below the lowest degree where
    # the Hilbert numerator of the leading terms misses the expected one
    ctx = bso_context(14)
    budget = Budget()
    chk = RegularSequenceChecker(ctx.ring, budget)
    assert all(chk.append(theta(ctx, j)) for j in range(k_expected(14)))
    assert budget.zeros == 0
    assert budget.skipped > 0


def test_append_reuses_the_membership_remainder(monkeypatch):
    # f reaches the kernel once, in ideal_member, without the term u2*u3
    # that the basis variable u2 divides; the append, under the same
    # budget, reuses that remainder and seeds the basis with it as it is
    ring = bso_ring(5)
    chk = RegularSequenceChecker(ring)
    assert chk.append(ring.gen("u2"))
    f = parse_poly(ring, "u2*u3+u5")  # its remainder is u5
    reduced = []
    kernel = _reduction.normal_form_terms

    def recording(terms, *args):
        reduced.append(tuple(terms))
        return kernel(terms, *args)

    monkeypatch.setattr(_reduction, "normal_form_terms", recording)
    assert not ideal_member(f, chk.basis, chk.budget)
    assert reduced == [parse_poly(ring, "u5").keys]
    assert chk.append(f)
    assert len(reduced) == 1


def _checker_before_theta3():
    """A checker at n = 9 that holds theta_0..theta_2, and theta_3."""
    ctx = bso_context(9)
    chk = RegularSequenceChecker(ctx.ring, Budget())
    assert all(chk.append(theta(ctx, j)) for j in range(3))
    return chk, theta(ctx, 3)


def test_append_units_do_not_depend_on_an_earlier_membership_test():
    # a remainder computed under another budget is not reused: the append
    # reduces theta_3 again and charges the same 6 units either way
    for earlier in (False, True):
        chk, f = _checker_before_theta3()
        if earlier:
            assert not ideal_member(f, chk.basis, Budget())
        before = chk.budget.used
        assert chk.append(f)
        assert chk.budget.used - before == 6


def test_membership_then_append_under_one_budget_charges_once():
    # under the checker's own budget the append reuses the remainder that
    # ideal_member charged: the pair of calls costs the 6 units once
    chk, f = _checker_before_theta3()
    before = chk.budget.used
    assert not ideal_member(f, chk.basis, chk.budget)
    assert chk.budget.used - before == 6
    assert chk.append(f)
    assert chk.budget.used - before == 6


def test_seeded_appends_reduce_the_seed_once():
    # an append reduces f by the current basis once, then S-pairs and the
    # tails of the final basis that a later leading term reaches; the
    # remainder of f seeds the new basis as it is, without a second kernel
    # call
    ctx = bso_context(13)
    budget = Budget()
    chk = RegularSequenceChecker(ctx.ring, budget)
    per_append = []
    for j in range(7):
        f = theta(ctx, j)
        before = budget.kernel_calls
        assert chk.append(f)
        per_append.append(budget.kernel_calls - before)
    assert per_append == [1, 1, 1, 1, 1, 1, 40]
    assert (budget.used, budget.skipped) == (5273, 367)


def _final_pass_steps(monkeypatch, ring, gens):
    """The reduced basis of ``gens``, its budget units, and the steps of
    each kernel call of the final interreduction: the calls between the
    last two divisor tables, the final pass's own and the result's."""
    kernel, table = _reduction.normal_form_terms, grobner.DivisorTable
    events = []

    def recording_kernel(*args):
        nf, steps = kernel(*args)
        events.append(steps)
        return nf, steps

    def recording_table(*args):
        events.append(None)
        return table(*args)

    monkeypatch.setattr(_reduction, "normal_form_terms", recording_kernel)
    monkeypatch.setattr(grobner, "DivisorTable", recording_table)
    budget = Budget()
    gb = groebner_basis(ring, [parse_poly(ring, s) for s in gens], budget)
    tables = [i for i, e in enumerate(events) if e is None]
    final = events[tables[-2] + 1 : tables[-1]]
    return gb_strings(gb), budget.used, final


def test_final_pass_reduces_a_tail_that_a_later_lower_lead_reaches(monkeypatch):
    # u4*u5 joins after u3^3*u4^4+u3*u4^3*u5^2, and its lead, of lower
    # degree, divides that tail; the tail takes one step to zero, and every
    # other tail is final
    ring = bso_ring(5)
    gens = ("t*u3*u5", "u2^2+u4", "u2^2*u3+u3*u4+u2*u5", "u2^2*u3^3*u4^3+u2^4*u3*u4*u5^2")
    basis, units, final = _final_pass_steps(monkeypatch, ring, gens)
    assert basis == ["u3^3*u4^4", "u4*u5", "t*u3*u5", "u2*u5", "u2^2+u4"]
    assert units == 11
    assert final == [1]


def test_final_pass_reduces_a_tail_term_equal_to_a_later_lead(monkeypatch):
    # u6, the remainder of u2^3, joins after u2*u4+u6 at the same degree and
    # equals its tail term; the tail takes one step to zero, and every other
    # tail is final
    ring = bso_ring(6)
    gens = ("u2^2+u4", "t*u2^2*u3^3", "u2*u4+u6", "u2^3")
    basis, units, final = _final_pass_steps(monkeypatch, ring, gens)
    assert basis == ["t*u3^3*u4", "u4^2", "u2*u4", "u6", "u2^2+u4"]
    assert units == 11
    assert final == [1]


def test_complete_intersection_numerator():
    ctx = bso_context(7)
    seq = [theta(ctx, j) for j in range(3)]
    chk = RegularSequenceChecker(ctx.ring)
    for f in seq:
        assert chk.append(f)
    hs = hilbert_series(chk.basis)
    free = hilbert_series(groebner_basis(ctx.ring, []))
    for f in seq:
        bd = f.bidegree()
        free = free.times_factor(bd.p, bd.q)
    assert hs == free


def test_permutation_invariance_random():
    rng = random.Random(24)
    ring = bso_ring(4)
    for _ in range(25):
        seq = []
        for _ in range(rng.randint(1, 3)):
            f = random_bihomogeneous(ring, rng, 3, 3)
            if f:
                seq.append(f)
        if not seq:
            continue
        verdicts = {
            is_regular_sequence(ring, list(perm))[0]
            for perm in itertools.permutations(seq)
        }
        assert len(verdicts) == 1


def test_membership_agrees_with_macaulay_oracle():
    rng = random.Random(25)
    ring = bso_ring(4)
    for _ in range(60):
        gens = [random_bihomogeneous(ring, rng, 3, 3) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        gb = groebner_basis(ring, gens)
        x = random_bihomogeneous(ring, rng, 4, 4)
        if x.bidegree().d > 8:
            continue
        assert ideal_member(x, gb) == macaulay_member(x, gens)


def test_budget_exceeded_reporting():
    ring = bso_ring(6)
    gens = [parse_poly(ring, s) for s in ("u2*u3+u5", "t*u3^2+u3*u4")]
    with pytest.raises(BudgetExceeded) as info:
        groebner_basis(ring, gens, budget=Budget(1, context="n=6"))
    err = info.value
    assert err.limit == 1 and err.used == 2 and err.context == "n=6"
    assert str(err) == "budget exceeded after 2 of 1 reduction steps (n=6)"
    with pytest.raises(ValueError):
        Budget(-1)


def test_a_budget_limit_is_an_integer():
    # a limit is a count of units: a float, a string, NaN (which no count
    # exceeds) or inf raises rather than being truncated or never running out
    for limit in (1.5, 8.9, "100", float("nan"), float("inf")):
        with pytest.raises(TypeError):
            Budget(limit)
        with pytest.raises(TypeError):
            k_computed(11, limit)
    with pytest.raises(ValueError):
        Budget(-1)


def test_charge_past_the_limit_stops_at_limit_plus_one():
    b = Budget(5, context="c")
    b.charge(5)
    assert b.used == 5 and b.remaining == 0
    with pytest.raises(BudgetExceeded) as info:
        b.charge(100)
    assert b.used == info.value.used == 6
    assert str(info.value) == "budget exceeded after 6 of 5 reduction steps (c)"


def test_budget_charges_shared_across_calls():
    ring = bso_ring(5)
    b = Budget(10**6)
    gb = groebner_basis(ring, [ring.gen("u2"), ring.gen("u3")], budget=b)
    used_after_gb = 10**6 - b.remaining
    normal_form(parse_poly(ring, "u2*u3+u5"), gb, budget=b)
    assert 10**6 - b.remaining > used_after_gb


def test_groebner_basis_equality_and_iteration():
    ring = bso_ring(4)
    gb = groebner_basis(ring, [ring.gen("u2")])
    assert isinstance(gb, GroebnerBasis)
    assert list(gb) == list(gb.polys)
    assert gb == groebner_basis(ring, [ring.gen("u2"), ring.gen("u2")])
    assert hash(gb) == hash(groebner_basis(ring, [ring.gen("u2")]))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: groebner_basis(bso_ring(4), [bso_ring(5).gen("u2")]), RingError),
        (lambda: GroebnerBasis(bso_ring(4), [bso_ring(5).gen("u5")]), RingError),
        (lambda: GroebnerBasis(bso_ring(4), [bso_ring(4).gen("u2"), bso_ring(4).zero]), ValueError),
        (lambda: normal_form(bso_ring(5).gen("u2"), groebner_basis(bso_ring(4), [])), RingError),
        (lambda: RegularSequenceChecker(bso_ring(4)).append(bso_ring(5).gen("u2")), RingError),
        (lambda: RegularSequenceChecker(bso_ring(4)).append(bso_ring(4).gen("u2") + bso_ring(4).gen("u3")),
         InhomogeneousError),
        (lambda: RegularSequenceChecker(bso_ring(4)).append(bso_ring(4).one), ValueError),
        (lambda: is_regular_sequence(bso_ring(4), [bso_ring(5).gen("u2")]), RingError),
    ],
    ids=["basis-ring", "reduced-basis-ring", "reduced-basis-zero", "nf-ring", "append-ring",
         "append-inhomogeneous", "append-degree-0", "sequence-ring"],
)
def test_input_checks(call, error):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error
