"""Bilinear forms over F2: radicals, the rank that gives h(n), and twisted
sequences.

The length h(n) of the tau-killed regular theta sequence is rank(B) + 1 for
an explicit bilinear form B on a small F2 vector space (one form for even n,
one for odd n).  This module is F2 linear algebra on those forms: it builds
them, computes their right radicals and h(n), and lists the Frobenius-twisted
sequences B(x, y^{2^l}).  The theta chain meets them through Quillen's
restriction: for even n, theta_j with t = 0 restricts to B(x, y^{2^{j-1}})
for j = 1..h(n), an identity tests/test_formsf2.py pins for n <= 12.  No
verdict reads it.

A vector over F2 is one int, one bit per coordinate with the leftmost
highest, so adding vectors is one XOR.  A bilinear form is kept only as its
matrix rows packed the same way, so one XOR eliminator on such rows serves
subspaces, radicals and h(n).
"""

from __future__ import annotations

import functools
import operator

from .poly import Bidegree, Ring


class BilinearFormF2:
    """A form B(x, y) = x^T M y with M a 0/1 matrix, kept as packed int rows."""

    __slots__ = ("dim", "_rows")

    def __init__(self, matrix):
        matrix = [[operator.index(v) & 1 for v in row] for row in matrix]
        d = len(matrix)
        if not d or any(len(row) != d for row in matrix):
            raise ValueError("form matrix must be square")
        self.dim = d
        self._rows = tuple(functools.reduce(lambda acc, v: acc << 1 | v, row, 0) for row in matrix)

    @property
    def matrix(self):
        """The 0/1 entries, as a tuple of row tuples."""
        d = self.dim
        return tuple(tuple(r >> (d - 1 - j) & 1 for j in range(d)) for r in self._rows)

    def evaluate(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector of wrong length")
        y = functools.reduce(lambda acc, v: acc << 1 | operator.index(v) & 1, y, 0)
        return sum((r & y).bit_count() for r, xi in zip(self._rows, x) if operator.index(xi) & 1) & 1

    def to_json(self):
        return [list(row) for row in self.matrix]

    def __eq__(self, other):
        return isinstance(other, BilinearFormF2) and (self.dim, self._rows) == (other.dim, other._rows)

    def __repr__(self):
        return f"BilinearFormF2({self.to_json()})"


def _pivot_rows(rows):
    """Forward elimination over F2 of packed rows: one pivot per leading
    coordinate, as {top bit length: row}.  Rows that lead in the same
    coordinate have the same top bit, and one XOR cancels it."""
    pivots = {}
    for r in rows:
        while r:
            top = r.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = r
                break
            r ^= pivot
    return pivots


def _back_substitute(pivots):
    """The reduced echelon rows of _pivot_rows' pivots, keyed the same way,
    the leftmost lead first.  Clearing in ascending order: every row already
    cleared has zeros at the other leads, so clearing one disturbs no other."""
    done = {}
    for top in sorted(pivots):
        r = pivots[top]
        for low, b in done.items():
            if r >> (low - 1) & 1:
                r ^= b
        done[top] = r
    return dict(reversed(done.items()))


class Subspace:
    """Row space of vectors over F2, kept as the packed rows of its reduced
    echelon basis."""

    __slots__ = ("ambient_dim", "_rows")

    def __init__(self, vectors, ambient_dim=None):
        vectors = [[int(v) for v in vec] for vec in vectors]
        if ambient_dim is None:
            if not vectors:
                raise ValueError("ambient dimension needed for an empty basis")
            ambient_dim = len(vectors[0])
        self.ambient_dim = ambient_dim
        self._rows = tuple(_back_substitute(_pivot_rows([self._pack(vec) for vec in vectors])).values())

    def _pack(self, row):
        """The int list ``row`` as one int, one bit per coordinate with the
        leftmost highest.  Raise ValueError unless it is a vector of the
        ambient space: the right length, every coordinate 0 or 1."""
        if len(row) != self.ambient_dim:
            raise ValueError("vector of wrong length")
        if any(v not in (0, 1) for v in row):
            raise ValueError("coordinate outside the field")
        return functools.reduce(lambda acc, v: acc << 1 | v, row, 0)

    @property
    def basis(self):
        """The reduced echelon basis as coordinate tuples, leftmost lead first."""
        width = self.ambient_dim
        return tuple(tuple(r >> (width - 1 - j) & 1 for j in range(width)) for r in self._rows)

    @property
    def dim(self):
        return len(self._rows)

    def contains(self, vec):
        row = self._pack([int(v) for v in vec])
        # the reduced rows are pivots already; a vector outside adds one
        return len(_pivot_rows((*self._rows, row))) == self.dim

    def to_json(self):
        return [list(r) for r in self.basis]

    def __eq__(self, other):
        return isinstance(other, Subspace) and (self.ambient_dim, self._rows) == (other.ambient_dim, other._rows)

    def __repr__(self):
        return f"Subspace({self.to_json()}, ambient_dim={self.ambient_dim})"


def right_radical(b):
    """rad_r(B) = {y : B(x, y) = 0 for all x}, the nullspace of the matrix."""
    m = b.dim
    rows = _back_substitute(_pivot_rows(b._rows))
    # one basis vector per free column: 1 there, and in each pivot column the
    # entry of that pivot's reduced row in the free column
    basis = []
    for free in range(m):
        if m - free not in rows:
            vec = [0] * m
            vec[free] = 1
            for top, r in rows.items():
                vec[m - top] = r >> (m - 1 - free) & 1
            basis.append(vec)
    return Subspace(basis, ambient_dim=m)


def quillen_form(n):
    """The bilinear form whose right radical controls h(n); defined for n >= 4.

    Even n = 2m: on V of dimension m-1, B(x, y) = sum_{i != j} x_i y_j.
    Odd n = 2m+1: on V of dimension m, B(x, y) = sum_{i<m} (x_i + x_m) y_i.
    """
    if n < 4:
        raise ValueError("the form is defined for n >= 4")
    b = BilinearFormF2.__new__(BilinearFormF2)  # rows built whole, not entry by entry
    if n % 2 == 0:
        b.dim = d = n // 2 - 1
        b._rows = tuple(((1 << d) - 1) ^ 1 << j for j in reversed(range(d)))
    else:
        b.dim = d = n // 2
        b._rows = (*(1 << j for j in reversed(range(1, d))), (1 << d) - 2)
    return b


@functools.lru_cache(maxsize=None)
def form_ring(d):
    """F2[x_1..x_d, y_1..y_d], every generator of bidegree (0)[1]."""
    gens = [(f"x{i}", Bidegree(1, 0)) for i in range(1, d + 1)]
    gens += [(f"y{i}", Bidegree(1, 0)) for i in range(1, d + 1)]
    return Ring(gens)


def twisted_sequence(b, count):
    """[B(x, y), B(x, y^2), ..., B(x, y^{2^{count-1}})] in form_ring(dim)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    d = b.dim
    ring = form_ring(d)
    entries = [(i, j) for i, row in enumerate(b.matrix) for j, v in enumerate(row) if v]
    out = []
    for l in range(count):
        terms = []
        for i, j in entries:
            e = [0] * (2 * d)
            e[i] = 1
            e[d + j] = 1 << l
            terms.append(tuple(e))
        out.append(ring.poly(terms))
    return out


# -- h(n) ------------------------------------------------------------------------

_H8 = {1: 0, 2: 1, 3: 1, 4: 1, 5: 2, 6: 3, 7: 3, 8: 3}


def _period_8(name, residues, n):
    """``name``(n) = 4l + residues[r] for n = 8l + r, r in 1..8 (h and k)."""
    if n < 2:
        raise ValueError(f"{name}(n) is defined for n >= 2")
    l = (n - 1) // 8
    return 4 * l + residues[n - 8 * l]


def h_expected(n):
    """Closed form of h(n) by the residue of n mod 8."""
    return _period_8("h", _H8, n)


def h_of(n):
    """h(n) = dim V - dim rad_r(B) + 1 from the form, which by rank-nullity
    is rank(B) + 1; h(2) = h(3) = 1."""
    if n < 2:
        raise ValueError("h(n) is defined for n >= 2")
    if n in (2, 3):
        return 1
    return len(_pivot_rows(quillen_form(n)._rows)) + 1
