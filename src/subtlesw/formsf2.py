"""Bilinear forms over F2, radicals, Frobenius stability, and h(n).

The length h(n) of the tau-killed regular theta sequence is rank(B) + 1 for
an explicit bilinear form B on a small F2 vector space (one form for even n,
one for odd n).  This module builds those forms and computes h(n), right
radicals, Frobenius stability of subspaces over small fields F_{2^e}, and
the Frobenius-twisted sequences B(x, y^{2^l}).  The theta chain meets them
through Quillen's restriction: for even n, theta_j with t = 0 restricts to
B(x, y^{2^{j-1}}) for j = 1..h(n), an identity tests/test_formsf2.py pins
for n <= 12.  No verdict reads it.

Field elements of F_{2^e} are ints (bit i = coefficient of x^i) reduced
modulo a fixed irreducible polynomial per e, chosen as the lexicographically
smallest irreducible of that degree so the representation is reproducible
without an external table.  A vector over F_{2^e} is one int, e bits per
coordinate with the leftmost highest, so adding vectors is one XOR in every
field.  A bilinear form is kept only as its matrix rows packed the same way
over F2, so one eliminator on such rows serves subspaces, radicals and h(n).
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


# -- F_{2^e} arithmetic ----------------------------------------------------------

MAX_FIELD_EXP = 16


def _cl_mul(a, b):
    res = 0
    while b:
        if b & 1:
            res ^= a
        a <<= 1
        b >>= 1
    return res


def _cl_mod(a, m):
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def _is_irreducible(m, e):
    for d in range(1, e // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if _cl_mod(m, cand) == 0:
                return False
    return True


@functools.lru_cache(maxsize=None)
def field_modulus(e):
    """Smallest irreducible polynomial of degree e over F2, as a bitmask."""
    if not 1 <= e <= MAX_FIELD_EXP:
        raise ValueError(f"field exponent must be in 1..{MAX_FIELD_EXP}")
    for m in range((1 << e) | 1, 1 << (e + 1), 2):
        if _is_irreducible(m, e):
            return m
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field2e:
    """F_{2^e} with elements 0..2^e-1."""

    __slots__ = ("e", "modulus")

    def __init__(self, e):
        self.e = e
        self.modulus = field_modulus(e)

    @property
    def order(self):
        return 1 << self.e

    def mul(self, a, b):
        return _cl_mod(_cl_mul(a, b), self.modulus)

    def pow(self, a, k):
        res, base = 1, a
        while k:
            if k & 1:
                res = self.mul(res, base)
            base = self.mul(base, base)
            k >>= 1
        return res

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.order - 2)

    def frobenius(self, a):
        return self.mul(a, a)

    def __eq__(self, other):
        return isinstance(other, Field2e) and self.e == other.e

    def __hash__(self):
        return self.e

    def __repr__(self):
        return f"Field2e({self.e})"


def _scale(field, c, row):
    """c times the packed row, one field multiply per coordinate."""
    e, mask = field.e, field.order - 1
    out = shift = 0
    while row:
        out |= field.mul(c, row & mask) << shift
        row >>= e
        shift += e
    return out


def _pivot_rows(field, rows):
    """Forward elimination over F_{2^e} of packed rows: one pivot per leading
    coordinate, scaled to lead with 1, as {top bit length: row}.

    Rows that lead with 1 in the same coordinate have the same top bit, and
    one XOR cancels it in every field.  Only a remainder leading with another
    coefficient is multiplied out, which over F2 never happens.
    """
    e = field.e
    pivots = {}
    for r in rows:
        while r:
            top = r.bit_length()
            pivot = pivots.get(top)
            if pivot is not None:
                r ^= pivot
            elif e > 1 and (c := r >> (top - 1) // e * e) != 1:
                r = _scale(field, field.inv(c), r)
            else:
                pivots[top] = r
                break
    return pivots


def _back_substitute(field, pivots):
    """The reduced echelon rows of _pivot_rows' pivots, keyed the same way,
    the leftmost lead first.  Clearing in ascending order: every row already
    cleared has zeros at the other leads, so clearing one disturbs no other."""
    mask = field.order - 1
    done = {}
    for top in sorted(pivots):
        r = pivots[top]
        for low, b in done.items():
            c = r >> (low - 1) & mask
            if c:
                r ^= b if c == 1 else _scale(field, c, b)
        done[top] = r
    return dict(reversed(done.items()))


class Subspace:
    """Row space of vectors over F_{2^e} (e = 1 is plain F2), kept as the
    packed rows of its reduced echelon basis."""

    __slots__ = ("field", "ambient_dim", "_rows")

    def __init__(self, vectors, ambient_dim=None, e=1):
        self.field = Field2e(e)
        vectors = [[int(v) for v in vec] for vec in vectors]
        if ambient_dim is None:
            if not vectors:
                raise ValueError("ambient dimension needed for an empty basis")
            ambient_dim = len(vectors[0])
        self.ambient_dim = ambient_dim
        pivots = _pivot_rows(self.field, [self._pack(vec) for vec in vectors])
        self._rows = tuple(_back_substitute(self.field, pivots).values())

    def _pack(self, row):
        """The int list ``row`` as one int, e bits per coordinate with the
        leftmost highest.  Raise ValueError unless it is a vector of the
        ambient space: the right length, every coordinate in the field."""
        if len(row) != self.ambient_dim:
            raise ValueError("vector of wrong length")
        if any(not 0 <= v < self.field.order for v in row):
            raise ValueError("coordinate outside the field")
        return functools.reduce(lambda acc, v: acc << self.field.e | v, row, 0)

    @property
    def basis(self):
        """The reduced echelon basis as coordinate tuples, leftmost lead first."""
        e, mask, width = self.field.e, self.field.order - 1, self.ambient_dim
        return tuple(tuple(r >> (width - 1 - j) * e & mask for j in range(width)) for r in self._rows)

    @property
    def dim(self):
        return len(self._rows)

    def contains(self, vec):
        row = self._pack([int(v) for v in vec])
        # the reduced rows are pivots already; a vector outside adds one
        return len(_pivot_rows(self.field, (*self._rows, row))) == self.dim

    def to_json(self):
        return [list(r) for r in self.basis]

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"Subspace(e={self.field.e}, basis={self.to_json()})"


def frobenius_stable(w):
    """Whether coordinatewise squaring maps the subspace into itself.

    Over F_{2^e} this holds exactly for subspaces defined over F2.  Squaring
    is a field automorphism, so it maps the reduced echelon basis of W to
    that of its image, of the same dimension; the reduced basis is unique,
    so the image is W exactly when every entry of the basis is 0 or 1.
    """
    return all(v <= 1 for row in w.basis for v in row)


def right_radical(b):
    """rad_r(B) = {y : B(x, y) = 0 for all x}, the nullspace of the matrix."""
    f2 = Field2e(1)
    m = b.dim
    rows = _back_substitute(f2, _pivot_rows(f2, b._rows))
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
    return len(_pivot_rows(Field2e(1), quillen_form(n)._rows)) + 1
