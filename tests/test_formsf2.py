import random

import pytest

import oracles
from subtlesw.formsf2 import (
    BilinearFormF2,
    Subspace,
    form_ring,
    h_expected,
    h_of,
    quillen_form,
    right_radical,
    twisted_sequence,
)
from subtlesw.grobner import groebner_basis, is_regular_sequence, krull_dimension
from subtlesw.poly import RingMap
from subtlesw.steenrod import bso_context, theta


def test_equality_of_fields_subspaces_and_forms():
    s = Subspace([[1, 1, 0], [0, 1, 1]])
    assert s == Subspace([[1, 0, 1], [0, 1, 1]])  # the same span from another basis
    assert s != Subspace([[1, 1, 0, 0], [0, 1, 1, 0]])  # another ambient dimension
    assert s != Subspace([[1, 1, 0]])  # other rows
    b = BilinearFormF2([[1, 0], [1, 1]])
    assert b == BilinearFormF2([[3, 2], [1, 1]])  # entries reduced mod 2
    assert b != BilinearFormF2([[1, 1], [0, 1]]) and b != BilinearFormF2([[1, 0, 0], [1, 1, 0], [0, 0, 0]])
    assert b != b.to_json()


def test_reprs_rebuild_subspaces_and_forms():
    s = Subspace([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert repr(s) == "Subspace([[1, 0, 1], [0, 1, 1]], ambient_dim=3)"
    empty = Subspace([], ambient_dim=2)
    assert repr(empty) == "Subspace([], ambient_dim=2)"
    b = BilinearFormF2([[1, 0], [3, 2]])
    assert repr(b) == "BilinearFormF2([[1, 0], [1, 0]])"
    for value in (s, empty, b, quillen_form(9)):
        assert eval(repr(value)) == value


def test_form_basics():
    b = BilinearFormF2([[1, 0], [3, 2]])  # entries reduced mod 2
    assert b.to_json() == [[1, 0], [1, 0]]
    assert b.dim == 2
    assert b.evaluate([1, 0], [1, 0]) == 1
    assert b.evaluate([0, 1], [0, 1]) == 0
    with pytest.raises(ValueError):
        BilinearFormF2([[1, 0]])
    with pytest.raises(TypeError):
        b.matrix[0][0] = 0  # frozen


def test_form_entries_are_integers_taken_mod_2():
    want = BilinearFormF2([[0, 1, 1], [1, 0, 1], [1, 1, 1]])
    assert BilinearFormF2(((0, 1, 1), (1, 0, 1), (1, 1, 1))) == want
    assert BilinearFormF2([[False, True, True], [True, False, True], [True, True, True]]) == want
    assert BilinearFormF2([range(0, 3), range(1, 4), [1, 1, 1]]) == BilinearFormF2([[0, 1, 0], [1, 0, 1], [1, 1, 1]])
    assert BilinearFormF2([[256, -1], [-2, 3]]).matrix == ((0, 1), (0, 1))
    assert want.matrix == ((0, 1, 1), (1, 0, 1), (1, 1, 1))
    with pytest.raises(TypeError):
        BilinearFormF2([[1.5, 0], [0, 1]])
    for bad in ([], [[]], [[1, 0], [1]], [[1, 0, 1], [0, 1, 0]]):  # empty, ragged, not square
        with pytest.raises(ValueError, match="square"):
            BilinearFormF2(bad)


def test_evaluate_is_the_dense_sum():
    rng = random.Random(33)
    for d in (1, 2, 63, 64, 65, 99):
        matrix = [[rng.randint(0, 1) for _ in range(d)] for _ in range(d)]
        b = BilinearFormF2(matrix)
        for _ in range(20):
            x = [rng.randint(0, 1) for _ in range(d)]
            y = [rng.randint(0, 1) for _ in range(d)]
            want = sum(x[i] * matrix[i][j] * y[j] for i in range(d) for j in range(d)) % 2
            assert b.evaluate(x, y) == want
        for x, y in (([0] * (d + 1), [0] * d), ([0] * d, [0] * (d - 1))):
            with pytest.raises(ValueError, match="wrong length"):
                b.evaluate(x, y)


def test_quillen_form_is_its_closed_form():
    # even n = 2m: 1 off the diagonal of an (m-1)-square; odd n = 2m+1: on an
    # m-square, x_i y_i and x_m y_i for i < m
    for n in range(4, 201):
        m = n // 2
        if n % 2 == 0:
            want = tuple(tuple(int(i != j) for j in range(m - 1)) for i in range(m - 1))
        else:
            want = tuple(tuple(int(j < m - 1 and i in (j, m - 1)) for j in range(m)) for i in range(m))
        b = quillen_form(n)
        assert b.matrix == want and b == BilinearFormF2(want)


def test_quillen_form_matrices():
    assert quillen_form(8).to_json() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert quillen_form(7).to_json() == [[1, 0, 0], [0, 1, 0], [1, 1, 0]]
    assert quillen_form(4).to_json() == [[0]]
    assert quillen_form(10).dim == 4
    assert quillen_form(9).dim == 4
    with pytest.raises(ValueError):
        quillen_form(3)


def test_right_radical_examples():
    assert right_radical(quillen_form(10)).dim == 0
    r12 = right_radical(quillen_form(12))
    assert r12.to_json() == [[1, 1, 1, 1, 1]]
    r9 = right_radical(quillen_form(9))
    assert r9.to_json() == [[0, 0, 0, 1]]


def test_radical_parity_sweep():
    for m in range(2, 60):
        even = right_radical(quillen_form(2 * m))
        assert even.dim == (0 if m % 2 else 1)
        if even.dim:
            assert even.to_json() == [[1] * (m - 1)]
        odd = right_radical(quillen_form(2 * m + 1))
        assert odd.dim == 1
        assert odd.to_json() == [[0] * (m - 1) + [1]]


def test_radical_annihilates():
    rng = random.Random(41)
    for n in (9, 12, 20, 31):
        b = quillen_form(n)
        rad = right_radical(b)
        for row in rad.basis:
            for _ in range(20):
                x = [rng.randint(0, 1) for _ in range(b.dim)]
                assert b.evaluate(x, row) == 0


def test_twisted_sequence_literals():
    b = BilinearFormF2([[0, 1], [1, 0]])  # B = x1*y2 + x2*y1
    seq = twisted_sequence(b, 2)
    assert [str(f) for f in seq] == ["x2*y1+x1*y2", "x2*y1^2+x1*y2^2"]
    assert len(twisted_sequence(b, 1)) == 1
    with pytest.raises(ValueError):
        twisted_sequence(b, 0)
    # all generators of form_ring carry p-degree 1 and no weight
    ring = form_ring(2)
    assert seq[0].bidegree().q == 0


def test_quillen_twisted_sequences_are_regular():
    # even case: n = 10, dim V = 4, full radical-free length
    b10 = quillen_form(10)
    seq = twisted_sequence(b10, 4)
    ring = form_ring(4)
    assert is_regular_sequence(ring, seq) == (True, None)
    gb = groebner_basis(ring, seq)
    assert krull_dimension(gb) == 2 * 4 - 4
    # odd case: n = 9, dim V = 4, radical forces length 3
    b9 = quillen_form(9)
    seq9 = twisted_sequence(b9, 3)
    assert is_regular_sequence(ring, seq9) == (True, None)
    assert krull_dimension(groebner_basis(ring, seq9)) == 2 * 4 - 3


def test_subspace_echelon_and_contains():
    s = Subspace([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert s.dim == 2  # third row is the sum of the first two
    assert s.contains([1, 0, 1])
    assert not s.contains([1, 0, 0])
    empty = Subspace([], ambient_dim=3)
    assert empty.dim == 0 and not empty.contains([1, 0, 0]) and empty.contains([0, 0, 0])
    with pytest.raises(ValueError):
        Subspace([], ambient_dim=None)
    with pytest.raises(ValueError):
        Subspace([[1, 0], [1, 0, 0]])


def test_subspace_contains_checks_coordinates_as_the_constructor_does():
    line = Subspace([[1, 0]])
    for bad in ([-1, 0], [3, 0], [2, 0]):
        with pytest.raises(ValueError, match="coordinate outside the field"):
            Subspace([bad])
        with pytest.raises(ValueError, match="coordinate outside the field"):
            line.contains(bad)
    with pytest.raises(ValueError, match="wrong length"):
        line.contains([1, 0, 0])


def test_eliminator_matches_the_reference():
    # bases and membership over F2, then radicals
    rng = random.Random(15)
    seen = set()
    for _ in range(150):
        dim = rng.randint(0, 6)
        vecs = []
        for _ in range(rng.randint(0, 5)):
            pick = rng.random()
            if pick < 0.15:
                vecs.append([0] * dim)
            elif pick < 0.3 and vecs:
                vecs.append(list(rng.choice(vecs)))
            else:
                vecs.append([rng.randint(0, 1) for _ in range(dim)])
        s = Subspace(vecs, ambient_dim=dim)
        want = tuple(oracles.echelonize(vecs))
        assert s.basis == want and s.dim == len(want)

        def member(v):
            return len(oracles.echelonize([*vecs, v])) == len(want)

        combo = [0] * dim
        for vec in vecs:
            if rng.randint(0, 1):
                combo = [a ^ b for a, b in zip(combo, vec)]
        for v in ([rng.randint(0, 1) for _ in range(dim)], combo):
            assert s.contains(v) == member(v)
            seen.add(member(v))
    assert seen == {True, False}
    for _ in range(150):
        d = rng.randint(1, 10)
        matrix = [[rng.randint(0, 1) for _ in range(d)] for _ in range(d)]
        assert right_radical(BilinearFormF2(matrix)).basis == oracles.nullspace(matrix)
    for n in range(4, 201):
        b = quillen_form(n)
        assert right_radical(b).basis == oracles.nullspace(b.to_json())


def test_h_examples_and_base_cases():
    assert h_of(2) == 1
    assert h_of(3) == 1
    assert h_of(7) == 3
    assert h_of(4) == 1
    assert h_of(12) == 5
    with pytest.raises(ValueError):
        h_of(1)


def test_h_is_the_rank_of_the_form_plus_one():
    # h_of reads the rank off XOR elimination; the radical is the nullspace
    for n in range(4, 201):
        b = quillen_form(n)
        assert h_of(n) == b.dim - right_radical(b).dim + 1


def test_h_closed_form_table():
    want = {1: 0, 2: 1, 3: 1, 4: 1, 5: 2, 6: 3, 7: 3, 8: 3}
    for n in range(2, 120):
        l, s = divmod(n - 1, 8)
        s += 1
        assert h_expected(n) == 4 * l + want[s]
        assert h_of(n) == h_expected(n)


def _elementary(values, k):
    """e_k of the polynomials ``values``, all in one ring."""
    e = [values[0].ring.one] + [values[0].ring.zero] * k
    for v in values:
        for i in range(k, 0, -1):
            e[i] = e[i] + e[i - 1] * v
    return e[k]


def test_tau_killed_theta_restricts_to_the_twisted_sequence():
    # Quillen's restriction for even n = 2m: t -> 0, u_{2k} -> e_k(y_1..y_m)
    # and u_{2k+1} -> sum_i x_i e_k(the y's without y_i), with
    # x_m = x_1 + .. + x_{m-1} and y_m = y_1 + .. + y_{m-1}, so that u_1 and
    # theta_0 = u_2 go to 0.  Then theta_j goes to B(x, y^{2^{j-1}}) for
    # j = 1..h(n): the form side, which gives h(n), meets the theta chain.
    # n = 14 is left out: it runs for minutes.
    for n in (4, 6, 8, 10, 12):
        m = n // 2
        ring = form_ring(m - 1)
        xs = [ring.gen(f"x{i}") for i in range(1, m)]
        ys = [ring.gen(f"y{i}") for i in range(1, m)]
        xs.append(sum(xs, ring.zero))
        ys.append(sum(ys, ring.zero))
        images = [ring.zero]  # t
        for i in range(2, n + 1):
            k = i // 2
            if i % 2 == 0:
                images.append(_elementary(ys, k))
            else:
                others = (ys[:d] + ys[d + 1 :] for d in range(m))
                images.append(sum((x * _elementary(rest, k) for x, rest in zip(xs, others)), ring.zero))
        ctx = bso_context(n)
        restrict = RingMap(ctx.ring, ring, images)
        h = h_of(n)
        want = twisted_sequence(quillen_form(n), h)
        for j in range(1, h + 1):
            assert restrict(theta(ctx, j)) == want[j - 1], (n, j)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: h_expected(1), ValueError),
    ],
    ids=["h-n"],
)
def test_input_checks(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
