"""The reduction kernel against the list-merge reference, step counts included."""

import random

import pytest

import oracles
from subtlesw import _reduction, grobner, spaces
from subtlesw._reduction import DivisorTable
from subtlesw.grobner import DEFAULT_BUDGET, Budget, BudgetExceeded, groebner_basis, normal_form
from subtlesw.poly import MAX_EXPONENT, ExponentOverflow, bso_ring, parse_poly

# the fixed ideal of benchmarks/bench_kernel.py, in bso_ring(8)
BENCH_GENS = (
    "u2^6*u4*u7+t^2*u2^4*u3^5",
    "u4^2*u8+t*u2^3*u3*u7",
    "u2^8*u3^3+u2*u3^3*u6*u8+u2^2*u3^2*u7*u8",
    "u2^2*u3+u3*u4+u2*u5+u7",
)


def test_kernels_agree_on_random_reductions():
    rng = random.Random(2024)
    mismatch = stopped = reduced = 0
    # small bases first, then longer ones whose products collide more often
    for ring, n_gens, size in ((bso_ring(5), 3, 3), (bso_ring(7), 6, 5)):
        L = len(ring) + 1

        def ref_key(m):
            return oracles.grevlex_key(ring, m)

        for _ in range(300):
            x = oracles.random_bihomogeneous(ring, rng, max_factors=5, max_terms=2 * size)
            gens = []
            for _ in range(rng.randint(1, n_gens)):
                g = oracles.random_bihomogeneous(ring, rng, max_factors=3, max_terms=size)
                if g.terms:
                    gens.append(g.terms)
            # the kernel gets packed keys, the reference tuple keys, each
            # sorted by its own order
            basis = [tuple(sorted(map(ring.sort_key, g), reverse=True)) for g in gens]
            table = DivisorTable(ring, [g[0] for g in basis])
            terms = tuple(sorted(map(ring.sort_key, x.terms), reverse=True))
            ref_basis = [tuple(sorted(map(ref_key, g), reverse=True)) for g in gens]
            ref_terms = tuple(sorted(map(ref_key, x.terms), reverse=True))
            for cap in (0, 1, 3, 10**6):
                got = _reduction.normal_form_terms(terms, basis, table, cap)
                want = oracles.normal_form_terms(ref_terms, ref_basis, L, cap)
                if got[0] is not None:
                    got = tuple(map(ring.from_sort_key, got[0])), got[1]
                if want[0] is not None:
                    want = tuple(oracles.from_grevlex_key(ring, k) for k in want[0]), want[1]
                if got != want:
                    mismatch += 1
                stopped += got[0] is None
                reduced += got[1] > 0
    assert mismatch == 0
    # the sample reaches both the cap and real reductions
    assert stopped > 0 and reduced > 0


def test_identical_groebner_runs_and_budgets(monkeypatch):
    ring = bso_ring(6)
    gens = [parse_poly(ring, s) for s in ("u2", "u3", "u2*u3+u5", "t*u3^2+u4*u3")]

    def run():
        b = Budget(10**6)
        gb = groebner_basis(ring, gens, budget=b)
        with pytest.raises(BudgetExceeded) as info:
            groebner_basis(ring, gens, budget=Budget(b.used - 1))
        return tuple(str(g) for g in gb), b.used, (info.value.used, info.value.limit)

    kernel = run()
    with monkeypatch.context() as m:
        m.setattr(_reduction, "normal_form_terms", oracles.packed_normal_form_terms)
        assert run() == kernel == (("u5", "u3", "u2"), 3, (3, 2))

    # budget use of the benchmark ideal and of the k(n) certificates
    ring = bso_ring(8)
    b = Budget(10**6)
    gb = groebner_basis(ring, [parse_poly(ring, s) for s in BENCH_GENS], budget=b)
    assert (len(gb), b.used) == (129, 24710)

    def k_units(ns):
        used = {}
        for n in ns:
            b = Budget()
            spaces.k_computed(n, b)
            used[n] = b.used
        return used

    used = k_units((8, 10, 11, 12, 13))
    assert used == {8: 0, 10: 3, 11: 28, 12: 33, 13: 5597}
    # the reference spends the same units, step for step
    with monkeypatch.context() as m:
        m.setattr(_reduction, "normal_form_terms", oracles.packed_normal_form_terms)
        assert k_units((8, 10, 11, 12)) == {n: used[n] for n in (8, 10, 11, 12)}


def test_kernel_calls_of_the_bench_ideal_and_k13(monkeypatch):
    # the final interreduction sends only the tails that a later leading
    # term reaches to the kernel
    kernel = _reduction.normal_form_terms
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(_reduction, "normal_form_terms", counting)
    ring = bso_ring(8)
    groebner_basis(ring, [parse_poly(ring, s) for s in BENCH_GENS])
    assert calls[0] == 493
    calls[0] = 0
    assert spaces.k_computed(13) == 7
    assert calls[0] == 47


def test_bench_ideal_numerator_matches_the_reference():
    ring = bso_ring(8)
    gb = groebner_basis(ring, [parse_poly(ring, s) for s in BENCH_GENS])
    leads = [g.keys[0] for g in gb]
    assert grobner._lt_numerator(ring, leads) == oracles.lt_numerator(ring, leads)


def test_normal_form_matches_the_reference_kernel(monkeypatch):
    # the kernel and the reference give the same remainder through grobner
    ring = bso_ring(7)
    gb = groebner_basis(ring, [parse_poly(ring, "u2"), parse_poly(ring, "u3")])
    x = parse_poly(ring, "u2*u3+u5")
    answers = {str(normal_form(x, gb))}
    monkeypatch.setattr(_reduction, "normal_form_terms", oracles.packed_normal_form_terms)
    answers.add(str(normal_form(x, gb)))
    assert answers == {"u5"}


def test_default_budget_is_large():
    assert DEFAULT_BUDGET == 10**7


def test_exponents_past_the_limit_raise_instead_of_wrapping():
    ring = bso_ring(3)
    top = MAX_EXPONENT
    g = (ring.sort_key((0, top, 0)), ring.sort_key((top, 0, 0)))  # u2^top + t^top
    table = DivisorTable(ring, [g[0]])
    # in range: u2^top reduces to t^top in one step
    assert _reduction.normal_form_terms((g[0],), [g], table, 10) == ((g[1],), 1)
    # a term at 2 * top, against a tail at top: the product would need 3 * top
    term = ring.sort_key((2 * top, top, 0))
    with pytest.raises(ExponentOverflow):
        _reduction.normal_form_terms((term,), [g], table, 10)
    # an in-range head whose product lands past the limit
    x = parse_poly(ring, f"t*u2^{top}")
    gb = groebner_basis(ring, [parse_poly(ring, f"u2^{top}+t^{top}")])
    with pytest.raises(ExponentOverflow):
        normal_form(x, gb)
