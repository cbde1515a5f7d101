import random
from operator import ge

import pytest

from subtlesw import _reduction, spaces, steenrod
from subtlesw.grobner import (
    Budget,
    BudgetExceeded,
    GroebnerBasis,
    HilbertSeries,
    RegularSequenceChecker,
    groebner_basis,
    hilbert_series,
    ideal_member,
    is_regular_sequence,
    normal_form,
)
from subtlesw.poly import MAX_EXPONENT, Bidegree, ExponentOverflow, Ring, RingError, bso_ring, bso_top_ring, parse_poly
from subtlesw.steenrod import bso_context, bso_top_context, theta
from subtlesw.spaces import (
    FAMILIES,
    chern_square_ideal,
    g2_gysin_check,
    h_map,
    h_row,
    i_map,
    j_lower_bound,
    k_computed,
    k_expected,
    k_row,
    poincare,
    present,
    t_map,
    torsor_relations,
    verify_theta,
)

from oracles import random_bihomogeneous

K_TABLE = {2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3, 8: 3, 9: 4, 10: 5, 11: 6, 12: 6}


def test_k_expected_examples():
    assert k_expected(7) == 3
    assert k_expected(12) == 6
    assert k_expected(2) == 1
    for n, k in K_TABLE.items():
        assert k_expected(n) == k
    with pytest.raises(ValueError):
        k_expected(1)


def test_k_expected_monotone_lifting():
    for n in range(2, 60):
        assert k_expected(n + 1) - k_expected(n) in (0, 1)


def test_k_computed_small_n():
    assert k_computed(3) == 2
    assert k_computed(7) == 3
    for n in range(2, 9):
        assert k_computed(n) == k_expected(n)


def test_verify_theta_reports():
    rep = verify_theta(7)
    assert rep == {
        "n": 7,
        "k": 3,
        "h": 3,
        "regular": True,
        "theta_k_in_ideal": True,
        "tau_prefix_regular": True,
    }
    rep4 = verify_theta(4, 2)
    assert rep4["regular"] and rep4["theta_k_in_ideal"] and rep4["tau_prefix_regular"]
    assert rep4["h"] == 1
    # an overlong sequence cannot be regular: theta_2 already lies in I_2
    rep3 = verify_theta(3, 3)
    assert not rep3["regular"]
    with pytest.raises(ValueError):
        verify_theta(5, -1)


def test_verify_theta_certifies_the_tau_prefix_with_h_thetas(monkeypatch):
    # tau and theta_0..theta_{h-1}, whatever k is: h(9) = 4 and h(13) = 6
    lengths = []

    def recording(ring, seq, budget=None):
        lengths.append(len(seq))
        return is_regular_sequence(ring, seq, budget)

    monkeypatch.setattr(spaces, "is_regular_sequence", recording)
    for n, k, want in ((9, 1, 5), (13, 2, 7), (9, None, 5)):
        lengths.clear()
        rep = verify_theta(n, k)
        assert lengths == [want] and rep["h"] == want - 1
        assert rep["tau_prefix_regular"]


def test_budget_messages_name_n_unless_the_caller_owns_the_budget():
    for run in (lambda b: k_computed(11, b), lambda b: verify_theta(11, budget=b)):
        with pytest.raises(BudgetExceeded) as info:
            run(10)
        assert str(info.value) == "budget exceeded after 11 of 10 reduction steps (n=11)"
        with pytest.raises(BudgetExceeded) as info:
            run(Budget(10))
        assert str(info.value) == "budget exceeded after 11 of 10 reduction steps"


def test_present_families_and_errors():
    assert set(FAMILIES) == {"BO", "BSO", "BSpin", "BG2", "BO_top", "BSO_top", "BSpin_top"}
    free = present("BSO", 4)
    assert free.ring is bso_ring(4)
    assert list(free.relations) == []
    assert present("bso", 4) == free  # case-insensitive
    top = present("BSO_top", 4)
    assert top.ring is bso_top_ring(4)
    with pytest.raises(ValueError):
        present("BG2", 5)  # BG2 takes no n
    with pytest.raises(ValueError):
        present("BSpin", 1)
    with pytest.raises(ValueError):
        present("BSU", 4)


def test_present_bspin_base_case():
    p2 = present("BSpin", 2)
    assert p2.ring.names == ("t", "v2")
    assert list(p2.relations) == []
    assert p2.k == 1
    t2 = present("BSpin_top", 2)
    assert t2.ring.names == ("v2",)
    assert t2.ring.bidegrees == (Bidegree(2, 0),)


def test_present_bspin3():
    p = present("BSpin", 3)
    assert p.family == "BSpin"
    assert p.ring.names == ("t", "u2", "u3", "v4")
    assert p.ring.bidegrees[-1] == Bidegree(4, 2)
    assert sorted(str(g) for g in p.relations) == ["u2", "u3"]
    assert p.k == 2
    # quotient is the free algebra H[v4]
    free = Ring([("t", (0, 1)), ("v4", (4, 2))])
    assert hilbert_series(p.relations) == hilbert_series(groebner_basis(free, []))


def test_present_bspin_v_generator_scaling():
    for n, vname in ((4, "v4"), (5, "v8"), (7, "v8"), (9, "v16"), (10, "v32")):
        p = present("BSpin", n)
        assert p.ring.names[-1] == vname
        assert p.k == k_expected(n)
        v = int(vname[1:])
        assert p.ring.bidegrees[-1] == Bidegree(v, v // 2)
    ptop = present("BSpin_top", 5)
    assert ptop.ring.names[-1] == "v8"
    assert ptop.ring.bidegrees[-1] == Bidegree(8, 0)


def test_present_to_json_shape():
    j = present("BSpin", 3).to_json()
    assert j["family"] == "BSpin" and j["n"] == 3 and j["k"] == 2
    assert j["generators"][0] == {"name": "t", "p": 0, "q": 1}
    assert j["generators"][-1] == {"name": "v4", "p": 4, "q": 2}
    assert sorted(j["relations"]) == ["u2", "u3"]
    jg = present("BG2").to_json()
    assert jg["n"] is None and jg["relations"] == [] and jg["k"] is None


def test_u2_vanishes_in_bspin_quotients():
    for n in range(3, 9):
        p = present("BSpin", n)
        u2 = p.ring.gen("u2")
        assert normal_form(u2, p.relations) == p.ring.zero


def test_bg2_presentation():
    g = present("BG2")
    assert g.ring.names == ("t", "u4", "u6", "u7")
    assert list(g.relations) == []


def test_bg2_poincare_ranks_against_enumeration():
    rep = poincare(present("BG2"), 16)
    # rank over H at p-degree p: dim of the (p, p) slice is saturated there
    got = [rep.expansion.get((p, p), 0) for p in range(9)]
    want = []
    for p in range(9):
        count = 0
        for a in range(p // 4 + 1):
            for b in range((p - 4 * a) // 6 + 1):
                if (p - 4 * a - 6 * b) % 7 == 0:
                    count += 1
        want.append(count)
    assert got == want
    assert want == [1, 0, 0, 0, 1, 0, 1, 1, 1]


def test_poincare_free_bso3():
    rep = poincare(present("BSO", 3), 8)
    assert rep.series.to_json() == {
        "numerator": [[1, 0, 0]],
        "denominator": [[0, 1], [2, 1], [3, 1]],
    }
    assert rep.expansion[(0, 0)] == 1
    assert rep.expansion[(2, 1)] == 1
    assert rep.to_json()["expansion"][0] == [1, 0, 0]


def test_bspin_series_match_stated_free_algebras():
    stated = {
        3: [("t", (0, 1)), ("v4", (4, 2))],
        4: [("t", (0, 1)), ("u4", (4, 2)), ("v4", (4, 2))],
        5: [("t", (0, 1)), ("u4", (4, 2)), ("v8", (8, 4))],
    }
    for n, gens in stated.items():
        p = present("BSpin", n)
        free = Ring(gens)
        assert hilbert_series(p.relations) == hilbert_series(groebner_basis(free, []))


def test_bspin_series_match_the_closed_form():
    # theta_0..theta_{k-1} is regular, so the quotient's series is the free
    # series of the ambient ring (BSO_n and v) times (1 - T^p S^q) per theta
    for n in range(8, 17):
        p = present("BSpin", n)
        ctx = bso_context(n)
        num = HilbertSeries({(0, 0): 1}, ())
        for j in range(p.k):
            bd = theta(ctx, j).bidegree()
            num = num.times_factor(bd.p, bd.q)
        closed = HilbertSeries(num.numerator, [(bd.p, bd.q) for bd in p.ring.bidegrees])
        assert p.ring.names == bso_ring(n).names + (f"v{1 << p.k}",)
        assert hilbert_series(p.relations) == closed, n


def test_present_relations_are_the_basis_of_the_thetas():
    # present builds the relations by certified appends; they are the
    # reduced basis that groebner_basis gives for the same thetas
    for n in range(3, 13):
        p = present("BSpin", n)
        ctx = bso_context(n)
        rel = groebner_basis(ctx.ring, [theta(ctx, j) for j in range(p.k)])
        lifted = [p.ring.poly(t + (0,) for t in g.terms) for g in rel]
        assert list(p.relations) == lifted, n


def test_torsor_relation_literals():
    rows5 = torsor_relations(5)
    assert [r.j for r in rows5] == [0, 1, 2]
    assert str(rows5[0].relation) == "u3"
    assert str(rows5[2].relation) == "u4*u5"  # classes above n truncate away
    assert rows5[0].verified
    rows7 = torsor_relations(7)
    assert str(rows7[1].relation) == "u2*u3+u5"
    assert rows7[1].verified
    rows11 = torsor_relations(11)
    assert str(rows11[2].relation) == "u4*u5+u3*u6+u2*u7+u9"
    assert str(rows11[3].relation) == "u8*u9+u7*u10+u6*u11"
    assert all(r.verified for r in rows11)
    assert [r.j for r in rows11] == [0, 1, 2, 3]


def test_torsor_verdict_is_exponentwise_divisibility(monkeypatch):
    # with one square monomial left out, some differences leave the ideal;
    # every verdict must match the exponentwise test on the decoded terms
    verdicts = set()
    for n in (5, 7, 9):
        ctx = bso_context(n)
        ideal = chern_square_ideal(n)
        for drop in range(len(ideal)):
            kept = ideal[:drop] + ideal[drop + 1:]
            monkeypatch.setattr(spaces, "chern_square_ideal", lambda n: kept)
            for row in torsor_relations(n):
                diff = theta(ctx, row.j + 1) + row.relation
                want = all(any(all(map(ge, m, s)) for s in kept) for m in diff.terms)
                assert row.verified == want, (n, drop, row.j)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_torsor_max_j_cap():
    rows = torsor_relations(11, max_j=1)
    assert [r.j for r in rows] == [0, 1]


def test_chern_square_ideal_shape():
    ring = bso_ring(5)
    monos = chern_square_ideal(5)
    polys = sorted(str(ring.poly([m])) for m in monos)
    assert polys == sorted(["u2", "u2^2", "t*u3^2", "u4^2", "t*u5^2"])


def test_map_literals():
    top = bso_top_ring(5)
    mot = bso_ring(5)
    assert h_map(top.gen("w3")) == mot.gen("u3")
    assert str(t_map(parse_poly(mot, "t*u5+u2*u3"))) == "w2*w3+w5"
    theta2 = parse_poly(mot, "u2*u3+u5")
    assert h_map(t_map(theta2)) == theta2
    assert i_map(parse_poly(top, "w2*w3")) == parse_poly(mot, "u2*u3")


def test_t_then_h_roundtrip_random():
    rng = random.Random(51)
    top = bso_top_ring(6)
    for _ in range(100):
        x = random_bihomogeneous(top, rng, 3, 3)
        assert t_map(h_map(x)) == x


def test_h_map_rejects_a_tau_exponent_past_the_limit():
    # the tau exponent is p // 2 - q: about 1.5 M for w3^M*w5^M*w7^M, and
    # 2.5 M for w3^M*...*w11^M, which would wrap the tau field into u11's
    top = bso_top_ring(11)
    m = MAX_EXPONENT
    for indices in ((3, 5, 7), range(3, 12)):
        with pytest.raises(ExponentOverflow):
            h_map(top.monomial({f"w{i}": m for i in indices}))
    x = top.monomial({"w3": m})  # tau exponent M // 2
    assert h_map(x) == bso_ring(11).monomial({"t": m // 2, "u3": m})
    assert t_map(h_map(x)) == x


def test_h_product_rule():
    rng = random.Random(52)
    top = bso_top_ring(6)
    mot = bso_ring(6)
    tau = mot.gen("t")
    for _ in range(100):
        x = random_bihomogeneous(top, rng, 2, 2)
        y = random_bihomogeneous(top, rng, 2, 2)
        if not x or not y:
            continue
        eps = (x.bidegree().p * y.bidegree().p) % 2
        lhs = h_map(x * y)
        rhs = h_map(x) * h_map(y)
        if eps:
            rhs = tau * rhs
        assert lhs == rhs


def test_t_of_theta_is_topological_theta():
    for n in (7, 11):
        ctx = bso_context(n)
        top = bso_top_context(n)
        for j in range(5):
            assert t_map(theta(ctx, j)) == theta(top, j)


def test_h_of_t_twists_by_slope_deficit():
    mot = bso_ring(6)
    tau = mot.gen("t")
    rng = random.Random(53)
    for _ in range(100):
        z = random_bihomogeneous(mot, rng, 2, 2)
        if not z:
            continue
        bd = z.bidegree()
        c = bd.p // 2 - bd.q
        if c < 0:
            continue
        assert h_map(t_map(z)) == tau**c * z


def test_g2_gysin_check(monkeypatch):
    rep = g2_gysin_check()
    assert rep == {"v8_regular": True, "series_identity": True}

    # with v8 already a relation of BSpin_7, v8 is no longer regular
    def present_with_v8(family, n=None, budget=None):
        pres = present(family, n, budget)
        if pres.family != "BSpin":
            return pres
        rels = groebner_basis(pres.ring, list(pres.relations) + [pres.ring.gen("v8")])
        return pres._replace(relations=rels)

    monkeypatch.setattr(spaces, "present", present_with_v8)
    broken = g2_gysin_check()
    assert broken["v8_regular"] is False


def test_g2_gysin_check_spends_one_budget(monkeypatch):
    # the BSpin_7 relations and the basis with v8 charge one Budget of the
    # given size, as verify_theta does
    seen = []

    def spy(fn):
        def wrapped(*args):
            seen.append(args[-1])
            return fn(*args)

        return wrapped

    monkeypatch.setattr(spaces, "_theta_basis", spy(spaces._theta_basis))
    monkeypatch.setattr(spaces, "groebner_basis", spy(spaces.groebner_basis))
    assert g2_gysin_check(50) == {"v8_regular": True, "series_identity": True}
    assert len(seen) == 2 and seen[0] is seen[1]
    assert isinstance(seen[0], Budget) and seen[0].limit == 50


def test_j_lower_bound():
    assert j_lower_bound(11) == {1, 2, 4}
    assert j_lower_bound(3) == {1}
    assert j_lower_bound(17) == {1, 2, 4, 8}
    assert j_lower_bound(16) == {1, 2, 4}
    with pytest.raises(ValueError):
        j_lower_bound(2)


def test_tables():
    assert [k_row(n) for n in range(2, 8)] == [
        {"n": n, "expected": K_TABLE[n], "computed": K_TABLE[n], "ok": True} for n in range(2, 8)
    ]
    assert all(h_row(n)["ok"] for n in range(2, 51))


def test_k_computed_reduces_theta_k_once(monkeypatch):
    # theta_7 at n = 13 has 8,271 terms, and u2, u3, u5 or u9, the variables
    # that lead the basis, divide all but 364.  k_computed builds only
    # those 364, which reach GroebnerBasis._remainder once; it makes one
    # kernel call on them and finds the remainder zero.
    ctx = bso_context(13)
    theta7 = theta(ctx, 7)
    assert len(theta7.terms) == 8271
    ring = ctx.ring
    drop = sum(ring.support(ring.gen(g).keys[0]) for g in ("u2", "u3", "u5", "u9"))
    kept = tuple(k for k in theta7.keys if not ring.support(k) & drop)
    assert len(kept) == 364
    remainder, kernel = GroebnerBasis._remainder, _reduction.normal_form_terms
    inside = []  # kernel inputs of each open _remainder call
    results = []

    def record_remainder(self, x, budget):
        inside.append([])
        nf = remainder(self, x, budget)
        sizes = inside.pop()
        if x.keys == kept:
            results.append((sizes, nf))
        return nf

    def record_kernel(terms, *args):
        if inside:
            inside[-1].append(len(terms))
        return kernel(terms, *args)

    monkeypatch.setattr(GroebnerBasis, "_remainder", record_remainder)
    monkeypatch.setattr(_reduction, "normal_form_terms", record_kernel)
    assert k_computed(13, Budget()) == 7
    assert results == [([364], ())]


def test_k_computed_never_builds_theta_k():
    # theta_7 is built only less the multiples of the basis variables, and
    # the theta cache ends with theta_0..theta_6 of bso_context(13)
    steenrod.theta.cache_clear()
    assert k_computed(13) == 7
    assert steenrod.theta.cache_info().currsize == 7


def test_k_computed_bases_match_the_full_theta_appends(monkeypatch):
    # every basis k_computed builds from theta_j less the basis-variable
    # multiples is the basis that appending theta_j itself builds
    append = RegularSequenceChecker.append
    bases = []

    def recording(self, f):
        ok = append(self, f)
        bases.append(tuple(p.keys for p in self.basis))
        return ok

    for n in range(2, 17):
        bases.clear()
        with monkeypatch.context() as m:
            m.setattr(RegularSequenceChecker, "append", recording)
            k = k_computed(n)
        assert k == k_expected(n) == len(bases)
        ctx = bso_context(n)
        chk = RegularSequenceChecker(ctx.ring)
        for j in range(k):
            assert chk.append(theta(ctx, j))
            assert tuple(p.keys for p in chk.basis) == bases[j], (n, j)


def test_k_computed_hands_the_kernel_no_empty_input(monkeypatch):
    # the final interreduction keeps a monomial element as it is, rather
    # than reducing its empty tail, and a zero theta (theta_1 at n = 2) is
    # its own remainder
    kernel = _reduction.normal_form_terms
    sizes = []

    def record(terms, basis, table, max_steps):
        sizes.append(len(terms))
        return kernel(terms, basis, table, max_steps)

    monkeypatch.setattr(_reduction, "normal_form_terms", record)
    for n in range(2, 14):
        sizes.clear()
        assert k_computed(n, Budget()) == k_expected(n)
        assert 0 not in sizes, n


def test_theta_k_membership_across_n():
    # the defining property: theta_k lies in the ideal of its predecessors
    for n in range(2, 9):
        k = k_expected(n)
        ctx = bso_context(n)
        gb = groebner_basis(bso_ring(n), [theta(ctx, j) for j in range(k)])
        assert ideal_member(theta(ctx, k), gb)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: k_computed(1), ValueError),
        (lambda: verify_theta(1), ValueError),
        (lambda: torsor_relations(2), ValueError),
        (lambda: t_map(bso_top_ring(3).gen("w2")), RingError),
        (lambda: t_map(Ring([("t", (0, 1)), ("u2", (2, 1)), ("u4", (4, 2))]).gen("u2")), RingError),
        (lambda: t_map(Ring([("u2", (2, 1)), ("u3", (3, 1))]).gen("u2")), RingError),
        (lambda: t_map(Ring([("t", (0, 1)), ("u2", (2, 1)), ("v4", (4, 2))]).gen("u2")), RingError),
        (lambda: i_map(bso_ring(3).gen("u2")), RingError),
    ],
    ids=["k-n", "verify-n", "torsor-n", "t-map-class", "t-map-range", "t-map-no-tau", "t-map-extra", "i-map-class"],
)
def test_input_checks(call, error):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error
