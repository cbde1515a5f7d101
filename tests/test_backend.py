"""The reduction kernel against the list-merge reference, step counts included."""

import random

import pytest

import oracles
from subtlesw import _reduction, spaces
from subtlesw.grobner import DEFAULT_BUDGET, Budget, BudgetExceeded, groebner_basis, normal_form
from subtlesw.poly import bso_ring, parse_poly

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
        L = ring._key_len
        for _ in range(300):
            x = oracles.random_bihomogeneous(ring, rng, max_factors=5, max_terms=2 * size)
            basis = []
            for _ in range(rng.randint(1, n_gens)):
                g = oracles.random_bihomogeneous(ring, rng, max_factors=3, max_terms=size)
                if g.terms:
                    basis.append(tuple(ring.sort_key(m) for m in g.terms))
            terms = tuple(ring.sort_key(m) for m in x.terms)
            for cap in (0, 1, 3, 10**6):
                got = _reduction.normal_form_terms(terms, basis, L, cap)
                if got != oracles.normal_form_terms(terms, basis, L, cap):
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
        m.setattr(_reduction, "normal_form_terms", oracles.normal_form_terms)
        assert run() == kernel == (("u5", "u3", "u2"), 3, (3, 2))

    # budget use of the benchmark ideal and of the k(n) certificates
    ring = bso_ring(8)
    b = Budget(10**6)
    gb = groebner_basis(ring, [parse_poly(ring, s) for s in BENCH_GENS], budget=b)
    assert (len(gb), b.used) == (129, 24710)
    used = {}
    for n in (8, 10, 11):
        b = Budget()
        spaces.k_computed(n, b)
        used[n] = b.used
    assert used == {8: 13, 10: 305, 11: 1941}


def test_normal_form_same_under_both_backends(monkeypatch):
    # the kernel and the reference give the same remainder through grobner
    ring = bso_ring(7)
    gb = groebner_basis(ring, [parse_poly(ring, "u2"), parse_poly(ring, "u3")])
    x = parse_poly(ring, "u2*u3+u5")
    answers = {str(normal_form(x, gb))}
    monkeypatch.setattr(_reduction, "normal_form_terms", oracles.normal_form_terms)
    answers.add(str(normal_form(x, gb)))
    assert answers == {"u5"}


def test_default_budget_is_large():
    assert DEFAULT_BUDGET == 10**7
