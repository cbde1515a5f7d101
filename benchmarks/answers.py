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
- ``k``: ``k_computed(n)`` for n in K_NS, with the budget units, the
  ``skipped`` pairs and the kernel calls of each.
- ``present``: ``present`` of every family for n in PRESENT_NS (BG2 once),
  with the budget units of each.
- ``verify``: ``verify_theta(n)`` for n in VERIFY_NS,
  ``torsor_relations(n)`` for n in TORSOR_NS and ``g2_gysin_check()``.

The whole run takes about ten seconds on one core.
"""

import hashlib
import json
import random

from bench_kernel import kernel_work
from subtlesw.grobner import Budget
from subtlesw.poly import MAX_EXPONENT, ExponentOverflow
from subtlesw.spaces import (
    FAMILIES,
    g2_gysin_check,
    k_computed,
    present,
    torsor_relations,
    verify_theta,
)
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


def k_answers(ns=K_NS):
    for n in ns:
        budget = Budget()
        k, calls, steps, _ = kernel_work(lambda: k_computed(n, budget))
        yield (
            f"n={n} k={k} units={budget.used} skipped={budget.skipped}"
            f" kernel_calls={calls} kernel_steps={steps}"
        )


def present_answers(ns=PRESENT_NS):
    for family in FAMILIES:
        for n in [None] if family == "BG2" else ns:
            budget = Budget()
            pres = present(family, n, budget)
            yield f"units={budget.used} " + json.dumps(pres.to_json(), sort_keys=True)


def verify_answers(verify_ns=VERIFY_NS, torsor_ns=TORSOR_NS):
    for n in verify_ns:
        yield json.dumps(verify_theta(n), sort_keys=True)
    for n in torsor_ns:
        for row in torsor_relations(n):
            yield f"n={n} {row.j} {row.relation} {row.verified}"
    yield json.dumps(g2_gysin_check(), sort_keys=True)


AREAS = {
    "steenrod": steenrod_answers,
    "theta": theta_answers,
    "k": k_answers,
    "present": present_answers,
    "verify": verify_answers,
}


def digest(lines):
    """The number of lines and the SHA-256 of their text, one per line."""
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode() + b"\n")
        count += 1
    return count, h.hexdigest()


def main():
    for name, answers in AREAS.items():
        count, hexdigest = digest(answers())
        print(f"{name:<10}{count:>7}  {hexdigest}", flush=True)


if __name__ == "__main__":
    main()
