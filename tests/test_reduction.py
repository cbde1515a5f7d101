"""The reduction kernel against the list-merge reference, step counts included."""

import random
import sys
from heapq import heappush
from pathlib import Path

import pytest

import oracles
from subtlesw import _reduction, grobner, spaces
from subtlesw._reduction import DivisorTable
from subtlesw.grobner import DEFAULT_BUDGET, Budget, BudgetExceeded, groebner_basis, normal_form
from subtlesw.poly import MAX_EXPONENT, ExponentOverflow, bso_ring, parse_poly

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

# the fixed ideal of perfbench's gbasis workload, in bso_ring(8), and a spy on calls
from bench_kernel import GENS as BENCH_GENS, spying  # noqa: E402


def compare_with_reference():
    """Random reductions in bso_ring(5) and bso_ring(7), each run by the
    kernel and the reference under the caps 0, 1, 3 and 10^6: the
    mismatches, the runs stopped at the cap and the runs that reduced."""
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
    return mismatch, stopped, reduced


def test_kernels_agree_on_random_reductions():
    mismatch, stopped, reduced = compare_with_reference()
    assert mismatch == 0
    # the sample reaches both the cap and real reductions
    assert stopped > 0 and reduced > 0


@pytest.mark.parametrize("window", [1, 2, 3])
def test_heap_tier_agrees_with_the_reference(monkeypatch, window):
    # at the default WINDOW every reduction here fits in the sorted window;
    # a tiny one makes the kernel refill it from the heap (pairing equal
    # keys there), test products against its floor and spill its lower half
    monkeypatch.setattr(_reduction, "WINDOW", window)
    pushed = []

    def counting_push(heap, t):
        pushed.append(t)
        heappush(heap, t)

    monkeypatch.setattr(_reduction, "heappush", counting_push)
    assert compare_with_reference()[0] == 0
    assert pushed  # the heap tier ran


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
    assert used == {8: 4, 10: 10, 11: 30, 12: 42, 13: 4697}
    # the reference spends the same units, step for step
    with monkeypatch.context() as m:
        m.setattr(_reduction, "normal_form_terms", oracles.packed_normal_form_terms)
        assert k_units((8, 10, 11, 12)) == {n: used[n] for n in (8, 10, 11, 12)}


def test_kernel_calls_of_the_bench_ideal_and_k13():
    # the final interreduction sends only the tails that a later leading
    # term reaches to the kernel
    ring = bso_ring(8)
    b = Budget()
    groebner_basis(ring, [parse_poly(ring, s) for s in BENCH_GENS], budget=b)
    assert b.kernel_calls == 493
    b = Budget()
    assert spaces.k_computed(13, b) == 7
    assert b.kernel_calls == 47


def test_pair_counts_of_the_bench_ideal():
    # every pair made is skipped, dropped by one criterion or reduced; the
    # chain criterion scans only the divisor table's candidates for the
    # lcm's support, and drops the same pairs as a scan over every lead
    ring = bso_ring(8)
    b = Budget(10**6)
    groebner_basis(ring, [parse_poly(ring, s) for s in BENCH_GENS], budget=b)
    reduced = b.used - b.kernel_steps  # one unit per reduced pair, beside the steps
    assert (b.pairs, b.skipped, b.coprime, b.chained, reduced) == (8256, 0, 92, 7677, 487)


def test_the_budget_counts_kernel_work_pairs_and_zero_reductions():
    # the Budget's kernel calls and steps against a spy on the kernel, for
    # every k(n) run up to n = 16, the bench ideal and a run cut by its
    # budget, which counts the kernel call it stopped in
    runs = []  # (remainder, steps) of each kernel call since the last check

    def spied(b):
        seen = (b.kernel_calls, b.kernel_steps) == (len(runs), sum(steps for _, steps in runs))
        runs.clear()
        return seen

    with spying(_reduction, "normal_form_terms", lambda result, _: runs.append(result)):
        for n in range(2, 17):
            b = Budget()
            spaces.k_computed(n, b)
            # the theta chain reduces two pairs to zero at n = 13, none elsewhere
            assert spied(b) and b.zeros == (2 if n == 13 else 0), n
        ring = bso_ring(8)
        b = Budget()
        groebner_basis(ring, [parse_poly(ring, s) for s in BENCH_GENS], budget=b)
        assert spied(b) and (b.kernel_calls, b.kernel_steps, b.zeros) == (493, 24223, 362)
        # every pair made is skipped, dropped or charged one unit beside the steps
        assert b.pairs == b.skipped + b.coprime + b.chained + (b.used - b.kernel_steps)
        b = Budget(100)
        with pytest.raises(BudgetExceeded):
            spaces.k_computed(13, b)
        assert runs[-1][0] is None and spied(b)


def test_bench_ideal_numerator_matches_the_reference():
    ring = bso_ring(8)
    gb = groebner_basis(ring, [parse_poly(ring, s) for s in BENCH_GENS])
    leads = [g.keys[0] for g in gb]
    gens = grobner._minimalize(ring, leads)
    assert grobner._lt_numerator(ring, gens) == oracles.lt_numerator(ring, leads)


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
