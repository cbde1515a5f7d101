"""Classifying-space presentations, k/h tables, torsor relations, grading maps.

The BSpin presentations quotient the BSO ring by the ideal generated by the
first k(n) theta polynomials and adjoin one v-generator of degree 2^k; k(n)
is both read off a residue table (k_expected) and recomputed from scratch by
certifying the theta sequence (k_computed).  The torsor relations check that
theta_{j+1} collapses to the stated quadratic relation modulo the monomial
ideal of squares.  The t/i/h maps translate between the motivic and
topological flavors.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from . import formsf2
from .grobner import (
    GroebnerBasis,
    RegularSequenceChecker,
    _resolve_budget,
    groebner_basis,
    hilbert_series,
    ideal_member,
    normal_form,
)
from .poly import Bidegree, Poly, Ring, RingError, RingMap, _class_ring, bso_ring
from .steenrod import SteenrodContext, bso_context, sq, theta

FAMILIES = ("BO", "BSO", "BSpin", "BG2", "BO_top", "BSO_top", "BSpin_top")

_K8 = {1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3, 8: 3}


def k_expected(n):
    """Length of the certified theta sequence, by the residue of n mod 8."""
    return formsf2._period_8("k", _K8, n)


def _thetas(ctx, budget):
    """Yield (x_j, the reduced basis of J_j) for j = 0, 1, ..., with J_j the
    ideal of theta_0..theta_{j-1} and x_j = theta_j modulo J_j: x_0 is
    theta_0, and after each yield the chain ends if x_j lies in J_j, else
    x_j joins the basis and x_{j+1} is Sq^{2^j} of r_j, the remainder of
    x_j.  So the last yield is the first member, x_{k(n)}.  No theta_j with
    j >= 1 is built in full.  ``budget`` is resolved to name n; the
    membership test leaves r_j in ``GroebnerBasis._last``, and the append
    reuses it.  A failed append raises ``ArithmeticError``: x_j is then
    neither regular nor in J_j.

    r_j is theta_j plus an element of J_j, so by (B) below x_{j+1} is
    theta_{j+1} modulo J_{j+1}: it has theta_{j+1}'s remainder by the basis
    of J_{j+1} and generates the same ideal with it, so every membership
    test and every append go as with theta_{j+1} itself.  By induction on l:

    (A) Sq^s theta_l lies in J_{l+1} for s < 2^l;
    (B) Sq^t(J_l) lies in J_{l+1} for every t.

    (B) at l: by the Cartan formula, Sq^t of a multiple of theta_i, i < l,
    is a sum of multiples of the Sq^v theta_i, and each lies in J_{l+1}.
    theta_i has degree 2^i + 1, so Sq^v theta_i lies in J_{i+1} for
    v < 2^i by (A) at i, is theta_{i+1} for v = 2^i, is the top square
    theta_i^2 for v = 2^i + 1, and is 0 above, by instability.
    (A) at l >= 1, s >= 1: with b = 2^{l-1}, the Adem relation
    Sq^s Sq^b = sum over c <= s/2 of a_c Sq^{s+b-c} Sq^c, a_c in F2[tau],
    writes Sq^s theta_l as a sum of multiples of Sq^{s+b-c} of
    Sq^c theta_{l-1}, c < 2^{l-1}.  Each Sq^c theta_{l-1} lies in J_l by
    (A) at l - 1, so each Sq^{s+b-c} of it lies in J_{l+1} by (B) at l
    (Quillen, Math. Ann. 194, 1971; for the motivic Adem and Cartan
    formulas, Voevodsky, Publ. IHES 98, 2003).
    """
    budget = _resolve_budget(budget, f"n={ctx.n}")
    checker = RegularSequenceChecker(ctx.ring, budget)
    x = theta(ctx, 0)
    for j in itertools.count():
        yield x, checker.basis
        if ideal_member(x, checker.basis, budget):
            return
        r = normal_form(x, checker.basis, budget)
        if not checker.append(x):
            raise ArithmeticError(
                f"theta_{j} ends the regular sequence but is not in the ideal (n={ctx.n})"
            )
        x = sq(ctx, 1 << j, r)


def _chain_to_k(n, budget):
    """The bases of J_0..J_k, k = k(n), that the chain of ``_thetas`` at n
    yields up to its first member x_k."""
    return [basis for _, basis in _thetas(bso_context(n), budget)]


def _tau_regular(basis):
    """Whether t is a nonzerodivisor modulo the ideal of ``basis``, a
    reduced basis of bihomogeneous polynomials in a ring with t: exactly
    when t divides none of its leading terms (see ``verify_theta``)."""
    return not any(basis.ring.exponent(f.keys[0], basis.ring.tau_index) for f in basis)


def k_computed(n, budget=None):
    """Recompute k(n): the unique k with theta_0..theta_{k-1} regular and
    theta_k in the ideal they generate, read off the chain of ``_thetas``,
    which tests each theta once: the first j whose x_j is a member."""
    if n < 2:
        raise ValueError("k(n) is defined for n >= 2")
    return len(_chain_to_k(n, budget)) - 1


def verify_theta(n, k=None, budget=None):
    """Certify the theta presentation data for one n.

    Checks that theta_0..theta_{k-1} is regular, that theta_k lies in the
    ideal it generates, and that tau followed by the first h(n) thetas is
    regular.  Returns a dict with the three booleans and the parameters.
    All three are read off one run of the chain of ``_thetas`` to its
    first member x_{k(n)}, the run of ``k_computed``, so the verdicts cost
    k(n)'s budget units whatever k is.  The first two are k(n) >= k and
    k(n) <= k.  The tau prefix is regular exactly when k(n) >= h and t
    divides no leading term of the reduced basis of J_h:

    1. x_j is theta_j modulo J_j, so t, theta_0..theta_{h-1} is regular
       exactly when t, x_0..x_{h-1} is.  A homogeneous sequence of
       positive degree in a graded polynomial ring stays regular when
       permuted (the graded form of Matsumura, *Commutative Ring Theory*,
       Thm 16.3), so that holds exactly when x_0..x_{h-1} is regular and
       t is regular on R/J_h.
    2. The chain appends each x_j that is not a member of J_j and stops at
       the first member x_{k(n)}, a zero divisor, so it certifies
       x_0..x_{h-1} as regular exactly when k(n) >= h.
    3. t owns the top field below the degree (see ``Ring``), so among the
       terms of one combined degree the leading one has the least power
       of t, and for homogeneous f, t dividing lead(f) means t divides f.
       Hence (in(J) : t) = in(J : t): if t*m = lead(g) with g in J, then
       g = t*g' with g' in J : t and lead(g') = m.  So t is regular on
       R/J, that is J : t = J, exactly when in(J) : t = in(J), exactly
       when t divides no minimal generator of in(J), the leading terms of
       the reduced basis (Bayer & Stillman, Invent. Math. 87, 1987;
       Eisenbud, *Commutative Algebra*, Prop. 15.12).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k = k_expected(n) if k is None else k
    if k < 0:
        raise ValueError("k must be nonnegative")
    h = formsf2.h_of(n)
    bases = _chain_to_k(n, budget)
    k_n = len(bases) - 1
    return {
        "n": n,
        "k": k,
        "h": h,
        "regular": k_n >= k,
        "theta_k_in_ideal": k_n <= k,
        "tau_prefix_regular": k_n >= h and _tau_regular(bases[h]),
    }


# -- presentations ---------------------------------------------------------------


class Presentation(NamedTuple):
    family: str
    n: int | None
    ring: Ring
    relations: GroebnerBasis
    k: int | None

    def to_json(self):
        return {
            "family": self.family,
            "n": self.n,
            "generators": [
                {"name": name, "p": bd.p, "q": bd.q}
                for name, bd in zip(self.ring.names, self.ring.bidegrees)
            ],
            "relations": [str(p) for p in self.relations],
            "k": self.k,
        }


#: (first class index, motivic) of each family's class ring; BG2 has none
_CLASSES = {
    "BO": (1, True),
    "BSO": (2, True),
    "BSpin": (2, True),
    "BO_top": (1, False),
    "BSO_top": (2, False),
    "BSpin_top": (2, False),
}


def present(family, n=None, budget=None):
    """Build the presentation of one classifying-space family.

    BO/BSO (and their topological shadows) are free; BSpin quotients by the
    theta relations and adjoins v_{2^k}; BG2 is free on t, u4, u6, u7.
    The theta relations are the reduced basis of J_k that the certified
    appends of ``_thetas`` build, under one budget, in the classes' ring
    with v appended: no theta has v, so the chain runs as without it.  A
    chain that ends at its first member before J_k, that is a k past k(n),
    raises ``ArithmeticError``.
    """
    key = str(family).lower()
    fam = next((f for f in FAMILIES if f.lower() == key), None)
    if fam is None:
        raise ValueError(f"unknown family {family!r}")

    if fam == "BG2":
        if n is not None:
            raise ValueError("BG2 takes no n")
        ring = Ring(
            [
                ("t", Bidegree(0, 1)),
                ("u4", Bidegree(4, 2)),
                ("u6", Bidegree(6, 3)),
                ("u7", Bidegree(7, 3)),
            ]
        )
        return Presentation(fam, None, ring, GroebnerBasis(ring, ()), None)

    start, motivic = _CLASSES[fam]
    if n is None or n < start:
        raise ValueError(f"{fam} needs n >= {start}")
    classes = _class_ring(n, start, motivic)
    if not fam.startswith("BSpin"):
        return Presentation(fam, n, classes, GroebnerBasis(classes, ()), None)

    k = k_expected(n)
    vname = f"v{1 << k}"
    vdeg = Bidegree(1 << k, (1 << (k - 1)) if motivic else 0)
    if n == 2:
        gens = ([("t", Bidegree(0, 1))] if motivic else []) + [(vname, vdeg)]
        ring = Ring(gens)
        return Presentation(fam, n, ring, GroebnerBasis(ring, ()), k)

    ambient = Ring(list(zip(classes.names, classes.bidegrees)) + [(vname, vdeg)])
    chain = _thetas(SteenrodContext(ambient), budget)
    bases = [basis for _, basis in itertools.islice(chain, k + 1)]
    if len(bases) <= k:
        raise ArithmeticError(f"the theta chain ends at J_{len(bases) - 1}, before J_{k} (n={n})")
    return Presentation(fam, n, ambient, bases[k], k)


class PoincareReport(NamedTuple):
    series: object
    expansion: dict

    def to_json(self):
        exp = [[dim, p, q] for (p, q), dim in sorted(self.expansion.items())]
        return {"series": self.series.to_json(), "expansion": exp}


def poincare(pres, max_d):
    """Exact Hilbert series of the quotient plus its expansion to degree max_d."""
    series = hilbert_series(pres.relations)
    return PoincareReport(series, series.expand(max_d))


# -- torsor relations ------------------------------------------------------------


class TorsorRow(NamedTuple):
    j: int
    relation: Poly
    verified: bool


def chern_square_ideal(n):
    """The square ideal's monomials as polynomials: u_2, then u_{2i}^2 and
    t*u_{2i+1}^2 for class indices 2..n."""
    ring = bso_ring(n)
    return [ring.gen("u2")] + [
        ring.monomial({f"u{c}": 2} if c % 2 == 0 else {"t": 1, f"u{c}": 2}) for c in range(2, n + 1)
    ]


def _torsor_rows(n):
    """The j with 2^j + 1 <= n, that is 2^j <= n - 1."""
    return range((n - 1).bit_length())


def torsor_relations(n):
    """For each j with 2^j + 1 <= n, the relation sum_h u_{2^j-h} u_{2^j+1+h}
    and whether theta_{j+1} reduces to it modulo the square ideal.

    The verdict is membership of their sum in the ideal, by the reduced
    basis of ``chern_square_ideal(n)``, built once.  There are at most
    log2(n) rows, and each squares the theta of the row before.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    ctx = bso_context(n)
    squares = groebner_basis(ctx.ring, chern_square_ideal(n))
    rows = []
    x = theta(ctx, 0)
    for j in _torsor_rows(n):
        w = 1 << j
        rel = sum((ctx.class_poly(w - h) * ctx.class_poly(w + 1 + h) for h in range(w + 1)), ctx.ring.zero)
        x = sq(ctx, w, x)  # theta_{j+1}
        rows.append(TorsorRow(j, rel, ideal_member(x + rel, squares)))
    return rows


# -- grading maps ----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _renaming(source, letter):
    """The map that renames each class of ``source`` into the class ring of
    the other flavor, with the same n and first index, and sends t to 1.
    ``source`` must hold the ``letter``-classes of one range, t exactly when
    they are u-classes, and no other generator."""
    ctx = SteenrodContext(source)
    if ctx.motivic != (letter == "u") or len(source) != ctx.n - ctx.start + 1 + ctx.motivic:
        raise RingError(f"{source!r} is not a ring of {letter}-classes; map undefined")
    target = _class_ring(ctx.n, ctx.start, not ctx.motivic)
    other = "w" if ctx.motivic else "u"
    images = [target.one if name == "t" else target.gen(other + name[1:]) for name in source.names]
    return RingMap(source, target, images)


def t_map(x):
    """tau to 1 and u_i to w_i: the topological realization."""
    return _renaming(x.ring, "u")(x)


def i_map(x):
    """w_i to u_i into the motivic ring (no tau adjustment)."""
    return _renaming(x.ring, "w")(x)


def h_map(x):
    """w_i to tau^(p//2 - q) u_i monomialwise: the weight-balancing lift.

    Not a ring map; it satisfies h(xy) = tau^(p(x)p(y) mod 2) h(x)h(y).
    """
    f = _renaming(x.ring, "w")
    target = f.target
    out = set()
    # w_i to u_i sends distinct monomials to distinct ones, and so does the
    # tau shift, since it leaves the u-part alone.  Every u_i has q = i // 2,
    # so the power of tau is at least 0
    for key in f(x).keys:
        bd = target.key_bidegree(key)
        out.add(key + target.tau_power(bd.p // 2 - bd.q))
    return target.poly_of_keys(out)


# -- the G2 cross-check ----------------------------------------------------------


def g2_gysin_check(budget=None):
    """Certify that the BG2 series is the BSpin_7 series times
    (1 - T^8 S^4) (``series_identity``).  ``v8_regular``, that v8 drops the
    BSpin_7 series by that factor, holds by construction: the BSpin_7
    relations are u5, u3 and u2, and none names v8.  The BSpin_7
    presentation and the basis with v8 charge one budget."""
    budget = _resolve_budget(budget)
    pres = present("BSpin", 7, budget)
    dropped = hilbert_series(pres.relations).times_factor(8, 4)
    gb1 = groebner_basis(pres.ring, list(pres.relations) + [pres.ring.gen("v8")], budget)
    return {
        "v8_regular": hilbert_series(gb1) == dropped,
        "series_identity": hilbert_series(present("BG2").relations) == dropped,
    }


def j_lower_bound(n):
    """{2^{j-1} : j >= 1 and 2^j + 1 <= n}."""
    if n < 3:
        raise ValueError("need n >= 3")
    return {1 << (j - 1) for j in _torsor_rows(n) if j}


# -- tables ----------------------------------------------------------------------


def _row(n, expected, computed):
    return {"n": n, "expected": expected, "computed": computed, "ok": expected == computed}


def k_row(n, budget=None):
    return _row(n, k_expected(n), k_computed(n, budget))


def h_row(n):
    return _row(n, formsf2.h_expected(n), formsf2.h_of(n))
