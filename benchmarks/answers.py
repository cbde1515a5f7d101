"""Print one SHA-256 per area of subtlesw's answers, to compare two trees.

Run it in a checkout of each tree and compare the lines:

    PYTHONPATH=src python3 benchmarks/answers.py

A change that should keep every answer must print the same digests.  Each
line gives the area, the number of answers hashed and the SHA-256 of their
text, one answer per line, in a fixed order.  An answer that raises
``ExponentOverflow`` is hashed as that name, so a change in which inputs
overflow shows too.  The areas:

- ``steenrod``: ``sq``, ``cartan`` and ``thom_sq`` on seeded random
  inputs in the four flavours, for n in STEENROD_NS.  The inputs are sums
  of monomials of different bidegrees with powers of tau, some near
  ``MAX_EXPONENT``; k is random, or the degree of the leading term or one
  less (the square and the closed form of ``_below_top``).
- ``theta``: theta_0..theta_7 in both SO flavours, for n in THETA_NS.
- ``k.answers``: ``k_computed(n)`` for n in K_NS; ``k.work``: the budget
  units, the pairs ``skipped``, ``coprime`` and ``chained`` and the
  kernel calls and steps of each, read off its ``Budget``; ``chain``: every basis J_0..J_{k(n)}
  that the same run of ``spaces._chain_to_k(n)`` yields.
- ``present.answers``: ``present`` of every family for n in PRESENT_NS
  (BG2 once), as JSON, whose relations are every basis of J_k;
  ``present.work``: the budget units of each; ``present.series``: the
  Hilbert series of each, as JSON.
- ``verify``: ``verify_theta(n)`` for n in VERIFY_NS,
  ``torsor_relations(n)`` for n in TORSOR_NS and ``g2_gysin_check()``.
- ``verify_k``: ``verify_theta(n, k)`` for n in VERIFY_NS and k in
  {0, 1, k(n) + 1}.
- ``groebner.answers``: ``groebner_basis`` of the ideal ``GENS`` of
  ``bench_kernel.py`` in ``bso_ring(8)`` and of seeded random ideals in
  the classical rings of BSO_n and BO_n for n in GROEBNER_NS;
  ``groebner.work``: the budget units and the pairs ``coprime`` and
  ``chained`` of each.

The ``k``, ``present`` and ``groebner`` areas hash the work apart from the
answers, so a change to the work alone shows as such.

``benchmarks/answers.json`` pins every digest: the ``.work`` areas under
``work``, the others under ``answers``, and ``tests/test_benchmarks.py``
recomputes and compares them.  After a deliberate change, rewrite it with

    PYTHONPATH=src:benchmarks python3 -c "import answers; answers.write_pins()"

The whole run takes five to six seconds on one core (5.0-6.2 s in three
runs on an x86_64 host, Python 3.11).
"""

import hashlib
import json
import random
from pathlib import Path

from bench_kernel import GENS
from subtlesw import spaces
from subtlesw.grobner import Budget, groebner_basis, hilbert_series
from subtlesw.poly import MAX_EXPONENT, ExponentOverflow, bso_ring, parse_poly
from subtlesw.spaces import FAMILIES, g2_gysin_check, k_expected, present, torsor_relations, verify_theta
from subtlesw.steenrod import (
    ThomModuleElement,
    bo_context,
    bo_top_context,
    bso_context,
    bso_top_context,
    cartan,
    sq,
    theta,
    thom_sq,
)

STEENROD_NS = range(4, 10)
SAMPLES = 100  # random inputs per flavour and n
THETA_NS = range(2, 17)
K_NS = range(2, 17)
PRESENT_NS = range(2, 17)
VERIFY_NS = range(2, 14)
TORSOR_NS = range(3, 14)
GROEBNER_NS = range(4, 7)
IDEALS = 6  # random ideals per ring
FLAVOURS = (bso_context, bo_context, bso_top_context, bo_top_context)


def _outcome(fn, *args):
    try:
        return str(fn(*args))
    except ExponentOverflow:
        return "ExponentOverflow"


def _random_poly(ctx, rng, max_terms, max_factors):
    """A sum of random monomials in the classes of ``ctx``, each with a
    power of tau in the motivic flavours, now and then near the limit."""
    ring = ctx.ring
    classes = [name for name in ring.names if name != "t"]
    x = ring.zero
    for _ in range(rng.randint(1, max_terms)):
        exps = {}
        for _ in range(rng.randint(1, max_factors)):
            name = rng.choice(classes)
            exps[name] = exps.get(name, 0) + 1
        if ctx.motivic:
            exps["t"] = rng.choice((0, 0, 1, 2, 3, MAX_EXPONENT - rng.randint(0, 8)))
        x = x + ring.monomial(exps)
    return x


def steenrod_answers(ns=STEENROD_NS, samples=SAMPLES):
    for make in FLAVOURS:
        for n in ns:
            ctx = make(n)
            rng = random.Random(n * 7919 + len(ctx.ring))
            for _ in range(samples):
                x = _random_poly(ctx, rng, 4, 4)
                y = _random_poly(ctx, rng, 2, 2)
                p = ctx.ring.key_bidegree(x.keys[0]).p if x else 0
                k = rng.choice((rng.randint(0, 12), max(p - 1, 0), p))
                yield f"{ctx!r} k={k} x={x} y={y}"
                yield _outcome(sq, ctx, k, x)
                yield _outcome(cartan, ctx, k, x, y)
                yield _outcome(thom_sq, ctx, k, ThomModuleElement(ctx, x))


def theta_answers(ns=THETA_NS, last=7):
    for make in (bso_context, bso_top_context):
        for n in ns:
            ctx = make(n)
            for j in range(last + 1):
                yield f"{ctx!r} theta_{j} = {theta(ctx, j)}"


def k_rows(ns=K_NS):
    """(answer, work, chain) for each n: k, then the budget units, the
    pairs skipped and dropped by each criterion and the kernel work of
    ``k_computed``'s run of the chain, then the bases of J_0..J_k it
    yielded."""
    for n in ns:
        budget = Budget()
        bases = spaces._chain_to_k(n, budget)
        yield (
            f"n={n} k={len(bases) - 1}",
            f"units={budget.used} skipped={budget.skipped} coprime={budget.coprime}"
            f" chained={budget.chained} kernel_calls={budget.kernel_calls}"
            f" kernel_steps={budget.kernel_steps}",
            f"n={n} " + " ".join(f"J_{j}={basis!r}" for j, basis in enumerate(bases)),
        )


def present_rows(ns=PRESENT_NS):
    """(answer, work, series) for each family and n: the presentation's
    JSON, the budget units of ``present``, then the JSON of the Hilbert
    series of the presentation's relations."""
    for family in FAMILIES:
        for n in [None] if family == "BG2" else ns:
            budget = Budget()
            pres = present(family, n, budget)
            yield (
                json.dumps(pres.to_json(), sort_keys=True),
                f"units={budget.used}",
                json.dumps(hilbert_series(pres.relations).to_json()),
            )


def groebner_rows(ns=GROEBNER_NS, ideals=IDEALS):
    """(answer, work) for the bench ideal and for ``ideals`` seeded random
    ideals, of two to four generators, in the rings of the classical
    flavours for each n (the motivic inputs' powers of tau near the limit
    would swamp the run): the reduced basis, then the budget units and the
    pairs dropped by each criterion."""
    ring = bso_ring(8)
    inputs = [(ring, [parse_poly(ring, s) for s in GENS])]
    for make in (bso_top_context, bo_top_context):
        for n in ns:
            ctx = make(n)
            rng = random.Random(n * 7919 + len(ctx.ring))
            for _ in range(ideals):
                gens = [_random_poly(ctx, rng, 3, 4) for _ in range(rng.randint(2, 4))]
                inputs.append((ctx.ring, gens))
    for ring, gens in inputs:
        budget = Budget()
        gb = groebner_basis(ring, gens, budget)
        yield f"{ring!r} {gb!r}", f"units={budget.used} coprime={budget.coprime} chained={budget.chained}"


def verify_answers(verify_ns=VERIFY_NS, torsor_ns=TORSOR_NS):
    for n in verify_ns:
        yield json.dumps(verify_theta(n), sort_keys=True)
    for n in torsor_ns:
        for row in torsor_relations(n):
            yield f"n={n} {row.j} {row.relation} {row.verified}"
    yield json.dumps(g2_gysin_check(), sort_keys=True)


def verify_k_answers(ns=VERIFY_NS):
    for n in ns:
        for k in sorted({0, 1, k_expected(n) + 1}):
            yield json.dumps(verify_theta(n, k), sort_keys=True)


# each area, and its label; an area of rows hashes each column of its
# rows under the label in that place
AREAS = {
    "steenrod": steenrod_answers,
    "theta": theta_answers,
    ("k.answers", "k.work", "chain"): k_rows,
    ("present.answers", "present.work", "present.series"): present_rows,
    "verify": verify_answers,
    "verify_k": verify_k_answers,
    ("groebner.answers", "groebner.work"): groebner_rows,
}

PINS = Path(__file__).with_name("answers.json")


def digest(lines):
    """The number of lines and the SHA-256 of their text, one per line."""
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode() + b"\n")
        count += 1
    return count, h.hexdigest()


def digests():
    """Yield (label, count, SHA-256) for each area, or each column of an
    area of rows, in order.  An area of rows runs once for all its
    columns."""
    for labels, area in AREAS.items():
        if isinstance(labels, str):
            yield (labels, *digest(area()))
            continue
        rows = list(area())
        for i, label in enumerate(labels):
            yield (label, *digest(row[i] for row in rows))


def pins():
    """Every digest as ``answers.json`` keeps it, with the areas of work
    apart from the areas of answers."""
    out = {"answers": {}, "work": {}}
    for label, count, hexdigest in digests():
        group = "work" if label.endswith(".work") else "answers"
        out[group][label] = [count, hexdigest]
    return out


def write_pins():
    PINS.write_text(json.dumps(pins(), indent=2) + "\n")


def main():
    for label, count, hexdigest in digests():
        print(f"{label:<16}{count:>7}  {hexdigest}", flush=True)


if __name__ == "__main__":
    main()
