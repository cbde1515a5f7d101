"""Command-line front end.

Every subcommand is deterministic given its flags: the monomial order is
fixed and there is no randomness, so identical invocations print identical
payloads (timing metadata aside).  JSON output carries a "meta" object with
the tool version, the wall time and, for a subcommand that takes --budget,
the effective reduction budget (--budget, else DEFAULT_BUDGET); JSON Lines
output streams table rows as they finish (in n order) so partial progress
survives budget exhaustion.

A ``_cmd_*`` function only computes: it returns a `Scalar` or a `Table`.
`main` times it, builds the meta object, prints the result in the chosen
format and turns the result's verdict into the exit code.

Exit codes: 0 success, 1 mathematical mismatch or failed verification,
2 usage error, 3 budget exceeded, 70 unexpected internal error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Iterable, NamedTuple

from . import __version__, formsf2, spaces
from .grobner import DEFAULT_BUDGET, BudgetExceeded
from .poly import ExponentOverflow, parse_poly
from .steenrod import bo_context, bso_context, bso_top_context, sq, theta

FAMILIES = [f.lower() for f in spaces.FAMILIES]


class Scalar(NamedTuple):
    """One answer: its JSON payload, its text lines and its verdict."""

    payload: dict
    lines: list
    ok: bool = True


class Table(NamedTuple):
    """Rows in key order and their columns.  `rows` may be lazy: jsonl prints
    each row as it comes.  It passes when every row is true in `check`.
    `rows_ms`, if given, fills with each row's time."""

    rows: Iterable[dict]
    columns: list
    check: str
    rows_ms: dict | None = None


def _jval(v):
    return json.dumps(v, sort_keys=True)


def _cell(v):
    return _jval(v) if isinstance(v, (bool, type(None))) else str(v)


def _timed_rows(keys, row_fn, rows_ms):
    for key in keys:
        r0 = time.monotonic()
        row = row_fn(key)
        rows_ms[str(key)] = round((time.monotonic() - r0) * 1000, 3)
        yield row


# -- subcommands -----------------------------------------------------------------


def _ctx_for(flavor, n):
    return {"bo": bo_context, "bso": bso_context}.get(flavor, bso_top_context)(n)


def _cmd_sq(args):
    ctx = _ctx_for(args.flavor, args.n)
    x = parse_poly(ctx.ring, args.expr)
    res = sq(ctx, args.k, x)
    payload = {"flavor": args.flavor, "n": args.n, "k": args.k, "input": str(x), "result": str(res)}
    return Scalar(payload, [str(res)])


def _cmd_theta(args):
    res = theta(_ctx_for(args.flavor, args.n), args.j)
    return Scalar({"flavor": args.flavor, "n": args.n, "j": args.j, "result": str(res)}, [str(res)])


def _range_table(args, row_fn):
    """Expected against computed for n in --from..--to; a mismatch fails."""
    if args.from_n > args.to_n:
        raise ValueError("--from must not exceed --to")
    rows_ms = {}
    rows = _timed_rows(range(args.from_n, args.to_n + 1), row_fn, rows_ms)
    return Table(rows, ["n", "expected", "computed", "ok"], "ok", rows_ms)


def _cmd_ktable(args):
    return _range_table(args, lambda n: spaces.k_row(n, args.budget))


def _cmd_htable(args):
    return _range_table(args, spaces.h_row)


def _report(report, checks):
    """A report dict, one ``key: value`` line per entry; it passes when every check holds."""
    lines = [f"{key}: {_jval(report[key])}" for key in report]
    return Scalar(report, lines, all(report[c] for c in checks))


def _cmd_verify(args):
    report = spaces.verify_theta(args.n, args.k, args.budget)
    return _report(report, ("regular", "theta_k_in_ideal", "tau_prefix_regular"))


def _cmd_g2check(args):
    report = spaces.g2_gysin_check(args.budget)
    return _report(report, report)


def _cmd_present(args):
    pres = spaces.present(args.flavor, args.n, args.budget)
    payload = pres.to_json()
    lines = [f"family: {pres.family}", f"n: {_jval(pres.n)}", f"k: {_jval(pres.k)}", "generators:"]
    lines += [f"  {g['name']}  ({g['q']})[{g['p']}]" for g in payload["generators"]]
    lines += ["relations:" if payload["relations"] else "relations: none"]
    lines += [f"  {rel}" for rel in payload["relations"]]
    return Scalar(payload, lines)


def _cmd_poincare(args):
    pres = spaces.present(args.flavor, args.n, args.budget)
    payload = {**spaces.poincare(pres, args.max_degree).to_json(), "family": pres.family, "n": pres.n}
    series = payload["series"]
    lines = [f"numerator: {series['numerator']}", f"denominator factors (p, q): {series['denominator']}"]
    lines += ["p\tq\tdim"] + [f"{p}\t{q}\t{dim}" for dim, p, q in payload["expansion"]]
    return Scalar(payload, lines)


def _cmd_torsor(args):
    res = spaces.torsor_relations(args.n)
    rows = [{"j": r.j, "relation": str(r.relation), "verified": r.verified} for r in res]
    return Table(rows, ["j", "relation", "verified"], "verified")


def _cmd_radical(args):
    form = formsf2.quillen_form(args.n)
    rad = formsf2.right_radical(form)
    matrix, basis = form.to_json(), rad.to_json()
    payload = {"n": args.n, "dim_v": form.dim, "matrix": matrix, "radical_dim": rad.dim, "radical_basis": basis}
    lines = [f"n: {args.n}", f"dim V: {form.dim}", "matrix:"] + ["  " + "".join(map(str, row)) for row in matrix]
    lines += [f"radical dim: {rad.dim}"] + ["  " + " ".join(map(str, row)) for row in basis]
    return Scalar(payload, lines)


def _cmd_jbound(args):
    values = sorted(spaces.j_lower_bound(args.n))
    return Scalar({"n": args.n, "values": values}, ["{" + ", ".join(str(v) for v in values) + "}"])


# -- parser ----------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="subtlesw",
        description="Subtle Stiefel-Whitney calculator: Steenrod squares, "
        "Groebner-certified regular sequences, classifying-space tables.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    budgeted = {}

    def command(name, func, help, budget=False):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        budgeted[sp] = budget
        return sp

    def add_range(sp, to_n):
        sp.add_argument("--from", dest="from_n", type=int, default=2)
        sp.add_argument("--to", dest="to_n", type=int, default=to_n)

    def add_family(sp):
        sp.add_argument("--flavor", choices=FAMILIES, required=True)
        sp.add_argument("--n", type=int, default=None)
        return sp

    sp = command("sq", _cmd_sq, "apply Sq^k to a polynomial")
    sp.add_argument("--flavor", choices=["bo", "bso", "top"], default="bso")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("expr", help="polynomial in the term grammar")

    sp = command("theta", _cmd_theta, "the theta/rho sequence")
    sp.add_argument("--flavor", choices=["bso", "top"], default="bso")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)

    add_range(command("ktable", _cmd_ktable, "expected vs recomputed k(n)", budget=True), 10)
    add_range(command("htable", _cmd_htable, "expected vs radical-computed h(n)"), 200)

    sp = command("verify", _cmd_verify, "certify the theta data for one n", budget=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=None, help="defaults to the table k(n)")

    add_family(command("present", _cmd_present, "generators and relations of a family", budget=True))
    sp = add_family(command("poincare", _cmd_poincare, "Hilbert series of a presentation", budget=True))
    sp.add_argument("--max-degree", dest="max_degree", type=int, default=16)

    sp = command("torsor", _cmd_torsor, "quadratic torsor relations and their certificates")
    sp.add_argument("--n", type=int, required=True)

    sp = command("radical", _cmd_radical, "the h(n) bilinear form and its right radical")
    sp.add_argument("--n", type=int, required=True)

    command("g2check", _cmd_g2check, "the rank-7 to G2 series cross-check", budget=True)

    sp = command("jbound", _cmd_jbound, "guaranteed members of the J-set")
    sp.add_argument("--n", type=int, required=True)

    # the common flags come after each subcommand's own, in usage and --help
    for sp, budget in budgeted.items():
        sp.add_argument("--format", choices=["json", "jsonl", "csv", "text"], default="text")
        if budget:
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="reduction-step budget per ktable row, else per command")
    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    fmt = args.format
    t0 = time.monotonic()
    try:
        res = args.func(args)
        if isinstance(res, Table):
            rows = []
            for row in res.rows:
                rows.append(row)
                if fmt == "jsonl":
                    print(_jval(row), flush=True)
            body, unstreamed, rows_ms = {"rows": rows}, [], res.rows_ms
            grid = [res.columns] + [[_cell(row[c]) for c in res.columns] for row in rows]
            lines = ["\t".join(cells) for cells in grid]
            ok = all(row[res.check] for row in rows)
        else:
            body, lines, ok = res
            unstreamed, rows_ms = [body], None
            grid = [["key", "value"]] + [[k, _jval(body[k])] for k in sorted(body)]
        meta = {"version": __version__, "wall_time_ms": round((time.monotonic() - t0) * 1000, 3)}
        if "budget" in args:
            meta["budget"] = args.budget
        if rows_ms is not None:
            meta["rows_ms"] = rows_ms
        if fmt == "json":
            print(_jval({"meta": meta, **body}))
        elif fmt == "jsonl":
            for record in unstreamed:
                print(_jval(record))
            print(_jval({"meta": meta}))
        elif fmt == "csv":
            import csv  # here only: text, the default, needs no csv

            csv.writer(sys.stdout).writerows(grid)
        else:
            for line in lines:
                print(line)
        return 0 if ok else 1
    except BrokenPipeError:
        # downstream closed the pipe (e.g. head); suppress the shutdown noise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    # ParseError and RingError are ValueErrors; ExponentOverflow, an
    # ArithmeticError, must be caught ahead of the clause below
    except (ValueError, ExponentOverflow) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1
    except Exception:
        import traceback  # here only: it costs every start-up a few ms

        traceback.print_exc()
        return 70


def run():
    """Run `main` on the command line and exit with its code.

    Only interpreter shutdown follows, so gc.freeze() first moves every
    tracked object into the permanent generation, which the collections at
    shutdown skip.  stdout and stderr are flushed and atexit handlers run as
    before.  `main` itself leaves the collector alone, for callers in the
    same process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
