"""End-to-end checks of the shipped guarantees, one test per guarantee.

Each test pins an externally visible contract: the k- and h-tables, certified
regularity of the theta sequences, the quotient presentations and their
Poincare series, the Steenrod property suite, the torsor relations, and the
dense linear-algebra cross-checks.  The terminal summary prints one line per
criterion (see conftest).
"""

import itertools
import random
import time

from oracles import (
    classical_sq_gen,
    macaulay_member,
    monomials_of_bidegree,
    names_to_poly,
    random_bihomogeneous,
    random_monomial,
)
from subtlesw.formsf2 import h_expected, quillen_form, right_radical
from subtlesw.grobner import (
    groebner_basis,
    hilbert_series,
    ideal_member,
    is_regular_sequence,
)
from subtlesw.poly import Bidegree, Ring, bso_ring
from subtlesw.spaces import (
    g2_gysin_check,
    h_row,
    k_computed,
    k_expected,
    present,
    t_map,
    torsor_relations,
    verify_theta,
)
from subtlesw.steenrod import bso_context, bso_top_context, cartan, sq, theta

K_TABLE = {
    2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3, 8: 3, 9: 4, 10: 5, 11: 6, 12: 6, 13: 7, 14: 7, 15: 7, 16: 7,
}


def test_criterion_01_k_table():
    t0 = time.monotonic()
    got = {n: k_computed(n) for n in sorted(K_TABLE)}
    elapsed = time.monotonic() - t0
    assert got == K_TABLE
    assert all(k_expected(n) == k for n, k in K_TABLE.items())
    assert elapsed < 600.0


def test_criterion_02_theta_prefix_regular_and_next_theta_in_ideal():
    for n in range(2, 11):
        report = verify_theta(n)
        assert report["k"] == K_TABLE[n]
        assert report["regular"] is True
        assert report["theta_k_in_ideal"] is True


def test_criterion_03_tau_theta_sequence_regular():
    for n in range(2, 11):
        ctx = bso_context(n)
        seq = [ctx.ring.gen("t")]
        seq += [theta(ctx, j) for j in range(h_expected(n))]
        assert is_regular_sequence(ctx.ring, seq) == (True, None)


def test_criterion_04_h_table_exact_and_fast():
    t0 = time.monotonic()
    rows = [h_row(n) for n in range(2, 201)]
    elapsed = time.monotonic() - t0
    assert all(row["ok"] for row in rows)
    assert elapsed < 1.0


def test_criterion_05_radical_parity_sweep():
    for m in range(2, 101):
        even = right_radical(quillen_form(2 * m))
        if m % 2:
            assert even.dim == 0 and even.basis == ()
        else:
            assert even.dim == 1
            assert even.basis == (tuple([1] * (m - 1)),)
        odd = right_radical(quillen_form(2 * m + 1))
        assert odd.dim == 1
        assert odd.basis == (tuple([0] * (m - 1) + [1]),)


def test_criterion_06_steenrod_property_suite():
    violations = []

    def flag(msg):
        if len(violations) < 10:
            violations.append(msg)

    for n in range(2, 9):
        ctx = bso_context(n)
        top = bso_top_context(n)
        ring = ctx.ring
        tau = ring.gen("t")
        rng = random.Random(600 + n)
        pool = []
        for i in range(1000):
            x = random_bihomogeneous(ring, rng, 3, 3)
            pool.append(x)
            k = rng.randint(0, 10)
            y = sq(ctx, k, x)
            if y:
                bd = x.bidegree()
                if y.bidegree() != Bidegree(bd.p + k, bd.q + k // 2):
                    flag(f"bidegree shift n={n} i={i}")
            if sq(ctx, x.bidegree().p + 1 + rng.randint(0, 3), x):
                flag(f"instability n={n} i={i}")
            if sq(ctx, k, tau * x) != tau * sq(ctx, k, x):
                flag(f"H-linearity n={n} i={i}")
            if t_map(sq(ctx, k, x)) != sq(top, k, t_map(x)):
                flag(f"tau=1 compatibility n={n} i={i}")
        for i in range(0, len(pool) - 2, 3):
            k = rng.randint(0, 8)
            x, y, z = pool[i : i + 3]
            if cartan(ctx, k, x * y, z) != cartan(ctx, k, x, y * z):
                flag(f"Cartan associativity n={n} i={i}")
        # every slope-2 monomial squares under its own degree
        for m in range(2, 13):
            for mono in monomials_of_bidegree(ring, m, m // 2):
                w = ring.poly([mono])
                if sq(ctx, m, w) != w * w:
                    flag(f"slope-2 square n={n} m={m}")
                if sq(ctx, m + 1, w):
                    flag(f"slope-2 vanishing n={n} m={m}")
        # topological squares on generators against the naive Wu oracle
        for i in range(2, n + 1):
            g = top.ring.gen(f"w{i}")
            for k in range(0, n + 3):
                want = names_to_poly(top.ring, classical_sq_gen(top.ring, k, i, n))
                if sq(top, k, g) != want:
                    flag(f"classical Wu n={n} w{i} k={k}")
    assert not violations, violations


def test_criterion_07_torsor_relations_all_verified():
    t0 = time.monotonic()
    rows = [(n, row) for n in range(3, 12) for row in torsor_relations(n)]
    elapsed = time.monotonic() - t0
    pairs = [(n, j) for n in range(3, 12) for j in range(20) if 2**j + 1 <= n]
    assert [(n, row.j) for n, row in rows] == pairs
    assert all(row.verified for _, row in rows)
    assert elapsed < 60.0


def test_criterion_08_bspin_series_are_free():
    stated = {
        2: [("t", (0, 1)), ("v2", (2, 1))],
        3: [("t", (0, 1)), ("v4", (4, 2))],
        4: [("t", (0, 1)), ("u4", (4, 2)), ("v4", (4, 2))],
        5: [("t", (0, 1)), ("u4", (4, 2)), ("v8", (8, 4))],
        6: [("t", (0, 1)), ("u4", (4, 2)), ("u6", (6, 3)), ("v8", (8, 4))],
        7: [("t", (0, 1)), ("u4", (4, 2)), ("u6", (6, 3)), ("u7", (7, 3)), ("v8", (8, 4))],
    }
    for n, gens in stated.items():
        p = present("BSpin", n)
        free = Ring(gens)
        assert hilbert_series(p.relations) == hilbert_series(groebner_basis(free, []))


def test_criterion_09_g2_gysin():
    assert g2_gysin_check() == {"v8_regular": True, "series_identity": True}


def test_criterion_10_membership_vs_dense_linear_algebra():
    rng = random.Random(1000)
    ideals = 0
    attempts = 0
    checked = 0
    while ideals < 200:
        attempts += 1
        assert attempts < 2000
        nv = rng.randint(1, 4)
        names = []
        for i in range(1, nv + 1):
            p, q = rng.randint(0, 2), rng.randint(0, 1)
            if p + q == 0:
                p = 1
            names.append((f"x{i}", (p, q)))
        ring = Ring(names)
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = random_bihomogeneous(ring, rng, 2, 3)
            if g.bidegree().d <= 4:
                gens.append(g)
        if not gens:
            continue
        ideals += 1
        gb = groebner_basis(ring, gens)
        mult = ring.poly([random_monomial(ring, rng, 2)])
        for x in (gens[0] * mult, random_bihomogeneous(ring, rng, 3, 3)):
            if x.bidegree().d > 8:
                continue
            assert ideal_member(x, gb) == macaulay_member(x, gens)
            checked += 1
    assert checked >= 200


def test_criterion_11_regularity_verdict_permutation_invariant():
    rng = random.Random(1100)
    rings = [bso_ring(3), bso_ring(4), bso_ring(5)]
    for _ in range(100):
        ring = rings[rng.randrange(len(rings))]
        seq = [random_bihomogeneous(ring, rng, 3, 2) for _ in range(rng.randint(1, 3))]
        verdicts = {
            is_regular_sequence(ring, list(perm))[0]
            for perm in itertools.permutations(seq)
        }
        assert len(verdicts) == 1
