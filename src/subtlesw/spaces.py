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
from typing import NamedTuple

from . import formsf2
from .grobner import (
    GroebnerBasis,
    RegularSequenceChecker,
    _resolve_budget,
    groebner_basis,
    hilbert_series,
    ideal_member,
    is_regular_sequence,
)
from .poly import (
    MAX_EXPONENT,
    Bidegree,
    ExponentOverflow,
    Poly,
    Ring,
    RingError,
    RingMap,
    bo_ring,
    bo_top_ring,
    bso_ring,
    bso_top_ring,
)
from .steenrod import SteenrodContext, _theta_without, bso_context, bso_top_context, theta

FAMILIES = ("BO", "BSO", "BSpin", "BG2", "BO_top", "BSO_top", "BSpin_top")

_K8 = {1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3, 8: 3}


def k_expected(n):
    """Length of the certified theta sequence, by the residue of n mod 8."""
    if n < 2:
        raise ValueError("k(n) is defined for n >= 2")
    l = (n - 1) // 8
    return 4 * l + _K8[n - 8 * l]


def _theta_mod(ctx, j, gb):
    """theta_j less the terms that a variable leading the reduced basis
    ``gb`` divides, built without them (see ``steenrod._theta_without``).

    Those terms lie in the ideal of ``gb``, and its normal form drops them
    unread (see ``GroebnerBasis._remainder``), so the result has theta_j's
    normal form, and with ``gb`` it generates the ideal that theta_j does.
    A term never built costs no time and no budget unit.
    """
    return _theta_without(ctx, j, gb._key_basis()[2])


def k_computed(n, budget=None):
    """Recompute k(n): append theta_j while it is not in the ideal so far.

    The answer is the unique k with theta_0..theta_{k-1} regular and
    theta_k in the ideal they generate.  Each theta_j is tested for
    membership first and appended only when it lies outside the ideal, where
    it must be certified regular; so theta_k is reduced to zero once.  Both
    take theta_j less the multiples of the variables that lead the basis
    (see ``_theta_mod``), which give the same answers and the same bases,
    so theta_k is never built in full.
    """
    if n < 2:
        raise ValueError("k(n) is defined for n >= 2")
    budget = _resolve_budget(budget, f"n={n}")
    ring = bso_ring(n)
    ctx = bso_context(n)
    checker = RegularSequenceChecker(ring, budget)
    j = 0
    while True:
        x = _theta_mod(ctx, j, checker.basis)
        if ideal_member(x, checker.basis, budget):
            return j
        if not checker.append(x):
            raise ArithmeticError(
                f"theta_{j} ends the regular sequence but is not in the ideal (n={n})"
            )
        j += 1


def _theta_basis(ring, thetas, budget):
    """Reduced basis of the ideal of ``thetas``, and whether they form a
    regular sequence.  The basis is built by certified appends while the
    sequence stays regular, and by ``groebner_basis`` otherwise.
    ``budget`` is a resolved Budget, so both paths charge the same one."""
    checker = RegularSequenceChecker(ring, budget)
    regular = all(checker.append(f) for f in thetas)
    return (checker.basis if regular else groebner_basis(ring, thetas, budget)), regular


def verify_theta(n, k=None, budget=None):
    """Certify the theta presentation data for one n.

    Checks that theta_0..theta_{k-1} is regular, that theta_k lies in the
    ideal it generates, and that tau followed by the first h(n) thetas is
    regular.  Returns a dict with the three booleans and the parameters.
    theta_k is tested as ``k_computed`` tests it (see ``_theta_mod``).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if k is None:
        k = k_expected(n)
    if k < 0:
        raise ValueError("k must be nonnegative")
    budget = _resolve_budget(budget, f"n={n}")
    ring = bso_ring(n)
    ctx = bso_context(n)

    basis, regular = _theta_basis(ring, [theta(ctx, j) for j in range(k)], budget)
    in_ideal = ideal_member(_theta_mod(ctx, k, basis), basis, budget)

    h = formsf2.h_of(n)
    prefix = [ring.gen("t")] + [theta(ctx, j) for j in range(h)]
    tau_prefix = is_regular_sequence(ring, prefix, budget)[0]

    return {
        "n": n,
        "k": k,
        "h": h,
        "regular": regular,
        "theta_k_in_ideal": in_ideal,
        "tau_prefix_regular": tau_prefix,
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


def _lift(target, x, pad):
    return target.poly(tuple(t) + (0,) * pad for t in x.terms)


_FREE_RINGS = {"BO": bo_ring, "BSO": bso_ring, "BO_top": bo_top_ring, "BSO_top": bso_top_ring}


def present(family, n=None, budget=None):
    """Build the presentation of one classifying-space family.

    BO/BSO (and their topological shadows) are free; BSpin quotients by the
    theta relations and adjoins v_{2^k}; BG2 is free on t, u4, u6, u7.
    The theta relations are built by the certified appends of
    ``verify_theta`` (see ``_theta_basis``), under one budget.
    """
    fam = str(family)
    key = fam.lower()
    if key not in {f.lower() for f in FAMILIES}:
        raise ValueError(f"unknown family {family!r}")
    fam = next(f for f in FAMILIES if f.lower() == key)

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

    if n is None or n < 2:
        raise ValueError(f"{fam} needs n >= 2")

    free = _FREE_RINGS.get(fam)
    if free is not None:
        ring = free(n)
        return Presentation(fam, n, ring, GroebnerBasis(ring, ()), None)

    k = k_expected(n)
    vname = f"v{1 << k}"
    motivic = fam == "BSpin"
    vdeg = Bidegree(1 << k, (1 << (k - 1)) if motivic else 0)
    if n == 2:
        gens = ([("t", Bidegree(0, 1))] if motivic else []) + [(vname, vdeg)]
        ring = Ring(gens)
        return Presentation(fam, n, ring, GroebnerBasis(ring, ()), k)

    base = bso_ring(n) if motivic else bso_top_ring(n)
    ctx = bso_context(n) if motivic else bso_top_context(n)
    ambient = Ring(
        list(zip(base.names, base.bidegrees)) + [(vname, vdeg)]
    )
    rel, _ = _theta_basis(base, [theta(ctx, j) for j in range(k)], _resolve_budget(budget))
    lifted = GroebnerBasis(ambient, [_lift(ambient, p, 1) for p in rel])
    return Presentation(fam, n, ambient, lifted, k)


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
    """Monomials u_2, then u_{2i}^2 and t*u_{2i+1}^2 for class indices 2..n."""
    ring = bso_ring(n)
    monos = [ring.gen("u2").lead_monomial()]
    for c in range(2, n + 1):
        exps = {f"u{c}": 2} if c % 2 == 0 else {"t": 1, f"u{c}": 2}
        monos.append(ring.monomial(exps).lead_monomial())
    return monos


def torsor_relations(n, max_j=None):
    """For each j with 2^j + 1 <= n, the relation sum_h u_{2^j-h} u_{2^j+1+h}
    and whether theta_{j+1} reduces to it modulo the square ideal.

    Membership in a monomial ideal is per-term divisibility, so no basis
    computation is involved.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    ctx = bso_context(n)
    ring = ctx.ring
    guard = ring.guard_mask
    squares = [ring.sort_key(m) | guard for m in chern_square_ideal(n)]
    rows = []
    j = 0
    while (1 << j) + 1 <= n and (max_j is None or j <= max_j):
        w = 1 << j
        acc = set()
        for h in range(w + 1):
            part = ctx.class_poly(w - h) * ctx.class_poly(w + 1 + h)
            acc.symmetric_difference_update(part.keys)
        rel = ring.poly_of_keys(acc)
        diff = theta(ctx, j + 1) + rel
        ok = all(any((h - k) & guard == guard for h in squares) for k in diff.keys)
        rows.append(TorsorRow(j, rel, ok))
        j += 1
    return rows


# -- grading maps ----------------------------------------------------------------


def _classes(source, letter):
    """The context of ``source``, which must hold the ``letter``-classes of
    one range, t exactly when they are u-classes, and no other generator."""
    ctx = SteenrodContext(source)
    if ctx.letter != letter or len(source) != ctx.n - ctx.start + 1 + ctx.motivic:
        raise RingError(f"{source!r} is not a ring of {letter}-classes; map undefined")
    return ctx


@functools.lru_cache(maxsize=None)
def _t_ringmap(source):
    ctx = _classes(source, "u")
    target = bo_top_ring(ctx.n) if ctx.start == 1 else bso_top_ring(ctx.n)
    images = [target.one if name == "t" else target.gen("w" + name[1:]) for name in source.names]
    return RingMap(source, target, images)


def t_map(x):
    """tau to 1 and u_i to w_i: the topological realization."""
    return _t_ringmap(x.ring)(x)


@functools.lru_cache(maxsize=None)
def _i_ringmap(source):
    ctx = _classes(source, "w")
    target = bo_ring(ctx.n) if ctx.start == 1 else bso_ring(ctx.n)
    images = [target.gen("u" + name[1:]) for name in source.names]
    return RingMap(source, target, images)


def i_map(x):
    """w_i to u_i into the motivic ring (no tau adjustment)."""
    return _i_ringmap(x.ring)(x)


def h_map(x):
    """w_i to tau^(p//2 - q) u_i monomialwise: the weight-balancing lift.

    Not a ring map; it satisfies h(xy) = tau^(p(x)p(y) mod 2) h(x)h(y).
    """
    f = _i_ringmap(x.ring)
    target = f.target
    tau = target.steps[target.tau_index]
    out = set()
    # w_i to u_i sends distinct monomials to distinct ones, and so does the
    # tau shift, since it leaves the u-part alone.  Every u_i has q = i // 2,
    # so c >= 0, and the image has no tau, so c is the new tau exponent;
    # it is checked before the shift, which would carry out of the tau field
    for key in f(x).keys:
        bd = target.key_bidegree(key)
        c = bd.p // 2 - bd.q
        if c > MAX_EXPONENT:
            raise ExponentOverflow
        out.add(key + c * tau)
    return target.poly_of_keys(out)


# -- the G2 cross-check ----------------------------------------------------------


def g2_gysin_check(budget=None):
    """Certify that v8 drops the BSpin_7 series by (1 - T^8 S^4) and that the
    BG2 series equals the dropped series.  The BSpin_7 presentation and the
    basis with v8 charge one budget."""
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
    out = set()
    j = 1
    while (1 << j) + 1 <= n:
        out.add(1 << (j - 1))
        j += 1
    return out


# -- tables ----------------------------------------------------------------------


def k_row(n, budget=None):
    expected = k_expected(n)
    computed = k_computed(n, budget)
    return {"n": n, "expected": expected, "computed": computed, "ok": expected == computed}


def h_row(n):
    expected = formsf2.h_expected(n)
    computed = formsf2.h_of(n)
    return {"n": n, "expected": expected, "computed": computed, "ok": expected == computed}
