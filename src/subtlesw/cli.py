"""Command-line front end.

Every subcommand is deterministic given its flags: the monomial order is
fixed and there is no randomness, so identical invocations print identical
payloads (timing metadata aside).  JSON output carries a "meta" object with
the tool version, the effective reduction budget, and wall time; JSON Lines
output streams table rows as they finish (in n order) so partial progress
survives budget exhaustion.

Exit codes: 0 success, 1 mathematical mismatch or failed verification,
2 usage error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import traceback

from . import __version__, formsf2, spaces
from .grobner import DEFAULT_BUDGET, BudgetExceeded
from .poly import ExponentOverflow, ParseError, RingError, parse_poly
from .steenrod import bo_context, bso_context, bso_top_context, sq, theta


def _effective_budget(args):
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("SUBTLE_BUDGET")
    return int(env) if env else None


def _meta(args, t0, rows_ms=None):
    limit = _effective_budget(args)
    meta = {
        "version": __version__,
        "budget": limit if limit is not None else DEFAULT_BUDGET,
        "wall_time_ms": round((time.monotonic() - t0) * 1000, 3),
    }
    if rows_ms is not None:
        meta["rows_ms"] = rows_ms
    return meta


def _jval(v):
    return json.dumps(v, sort_keys=True)


def _emit_scalar(args, payload, meta, text_lines):
    fmt = args.format
    if fmt == "json":
        print(_jval({"meta": meta, **payload}))
    elif fmt == "jsonl":
        print(_jval(payload))
        print(_jval({"meta": meta}))
    elif fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["key", "value"])
        for k in sorted(payload):
            w.writerow([k, _jval(payload[k])])
    else:
        for line in text_lines:
            print(line)


def _emit_table(args, rows, meta, columns, streamed):
    fmt = args.format
    if fmt == "json":
        print(_jval({"meta": meta, "rows": rows}))
    elif fmt == "jsonl":
        if not streamed:
            for row in rows:
                print(_jval(row))
        print(_jval({"meta": meta}))
    elif fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(columns)
        for row in rows:
            w.writerow([_jval(row[c]) if isinstance(row[c], (bool, type(None))) else row[c] for c in columns])
    else:
        print("\t".join(columns))
        for row in rows:
            print("\t".join(_jval(row[c]) if isinstance(row[c], (bool, type(None))) else str(row[c]) for c in columns))


def _table_rows(args, keys, row_fn):
    """Compute rows in key order, streaming each one under jsonl."""
    stream = args.format == "jsonl"
    rows, rows_ms = [], {}
    for key in keys:
        r0 = time.monotonic()
        row = row_fn(key)
        rows.append(row)
        rows_ms[str(key)] = round((time.monotonic() - r0) * 1000, 3)
        if stream:
            print(_jval(row), flush=True)
    return rows, rows_ms, stream


# -- subcommands -----------------------------------------------------------------


def _ctx_for(flavor, n):
    if flavor == "bo":
        return bo_context(n)
    if flavor == "bso":
        return bso_context(n)
    return bso_top_context(n)


def _cmd_sq(args):
    t0 = time.monotonic()
    if args.k < 0:
        raise ValueError("--k must be nonnegative")
    ctx = _ctx_for(args.flavor, args.n)
    x = parse_poly(ctx.ring, args.expr)
    res = sq(ctx, args.k, x)
    payload = {
        "flavor": args.flavor,
        "n": args.n,
        "k": args.k,
        "input": str(x),
        "result": str(res),
    }
    _emit_scalar(args, payload, _meta(args, t0), [str(res)])
    return 0


def _cmd_theta(args):
    t0 = time.monotonic()
    if args.j < 0:
        raise ValueError("--j must be nonnegative")
    ctx = _ctx_for(args.flavor, args.n)
    res = theta(ctx, args.j)
    payload = {"flavor": args.flavor, "n": args.n, "j": args.j, "result": str(res)}
    _emit_scalar(args, payload, _meta(args, t0), [str(res)])
    return 0


def _cmd_ktable(args):
    t0 = time.monotonic()
    limit = _effective_budget(args)
    ns = range(args.from_n, args.to_n + 1)
    rows, rows_ms, streamed = _table_rows(args, ns, lambda n: spaces.k_row(n, limit))
    _emit_table(args, rows, _meta(args, t0, rows_ms), ["n", "expected", "computed", "ok"], streamed)
    if args.verify and not all(r["ok"] for r in rows):
        return 1
    return 0


def _cmd_htable(args):
    t0 = time.monotonic()
    ns = range(args.from_n, args.to_n + 1)
    rows, rows_ms, streamed = _table_rows(args, ns, spaces.h_row)
    _emit_table(args, rows, _meta(args, t0, rows_ms), ["n", "expected", "computed", "ok"], streamed)
    if args.verify and not all(r["ok"] for r in rows):
        return 1
    return 0


def _cmd_verify(args):
    t0 = time.monotonic()
    report = spaces.verify_theta(args.n, args.k, _effective_budget(args))
    lines = [f"{key}: {_jval(report[key])}" for key in report]
    _emit_scalar(args, report, _meta(args, t0), lines)
    checks = ("regular", "theta_k_in_ideal", "tau_prefix_regular")
    return 0 if all(report[c] for c in checks) else 1


def _cmd_present(args):
    t0 = time.monotonic()
    pres = spaces.present(args.flavor, args.n, _effective_budget(args))
    payload = pres.to_json()
    lines = [f"family: {pres.family}", f"n: {_jval(pres.n)}", f"k: {_jval(pres.k)}", "generators:"]
    for g in payload["generators"]:
        lines.append(f"  {g['name']}  ({g['q']})[{g['p']}]")
    lines.append("relations:" if payload["relations"] else "relations: none")
    for rel in payload["relations"]:
        lines.append(f"  {rel}")
    _emit_scalar(args, payload, _meta(args, t0), lines)
    return 0


def _cmd_poincare(args):
    t0 = time.monotonic()
    pres = spaces.present(args.flavor, args.n, _effective_budget(args))
    rep = spaces.poincare(pres, args.max_degree)
    payload = rep.to_json()
    payload["family"] = pres.family
    payload["n"] = pres.n
    lines = [f"numerator: {payload['series']['numerator']}"]
    lines.append(f"denominator factors (p, q): {payload['series']['denominator']}")
    lines.append("p\tq\tdim")
    for dim, p, q in payload["expansion"]:
        lines.append(f"{p}\t{q}\t{dim}")
    _emit_scalar(args, payload, _meta(args, t0), lines)
    return 0


def _cmd_torsor(args):
    t0 = time.monotonic()
    res = spaces.torsor_relations(args.n, args.max_j)
    rows = [{"j": r.j, "relation": str(r.relation), "verified": r.verified} for r in res]
    stream = args.format == "jsonl"
    if stream:
        for row in rows:
            print(_jval(row), flush=True)
    _emit_table(args, rows, _meta(args, t0), ["j", "relation", "verified"], stream)
    return 0 if all(r["verified"] for r in rows) else 1


def _cmd_radical(args):
    t0 = time.monotonic()
    form = formsf2.quillen_form(args.n)
    rad = formsf2.right_radical(form)
    payload = {
        "n": args.n,
        "dim_v": form.dim,
        "matrix": form.to_json(),
        "radical_dim": rad.dim,
        "radical_basis": rad.to_json(),
    }
    lines = [f"n: {args.n}", f"dim V: {form.dim}", "matrix:"]
    lines += ["  " + "".join(str(v) for v in row) for row in form.to_json()]
    lines.append(f"radical dim: {rad.dim}")
    lines += ["  " + " ".join(str(v) for v in row) for row in rad.to_json()]
    _emit_scalar(args, payload, _meta(args, t0), lines)
    return 0


def _cmd_g2check(args):
    t0 = time.monotonic()
    report = spaces.g2_gysin_check(_effective_budget(args))
    lines = [f"{key}: {_jval(report[key])}" for key in report]
    _emit_scalar(args, report, _meta(args, t0), lines)
    return 0 if all(report.values()) else 1


def _cmd_jbound(args):
    t0 = time.monotonic()
    values = sorted(spaces.j_lower_bound(args.n))
    payload = {"n": args.n, "values": values}
    text = "{" + ", ".join(str(v) for v in values) + "}"
    _emit_scalar(args, payload, _meta(args, t0), [text])
    return 0


# -- parser ----------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="subtlesw",
        description="Subtle Stiefel-Whitney calculator: Steenrod squares, "
        "Groebner-certified regular sequences, classifying-space tables.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, budget=False):
        sp.add_argument(
            "--format", choices=["json", "jsonl", "csv", "text"], default="text"
        )
        if budget:
            sp.add_argument("--budget", type=int, default=None, help="reduction-step budget per Groebner run")

    sp = sub.add_parser("sq", help="apply Sq^k to a polynomial")
    sp.add_argument("--flavor", choices=["bo", "bso", "top"], default="bso")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("expr", help="polynomial in the term grammar")
    add_common(sp)
    sp.set_defaults(func=_cmd_sq)

    sp = sub.add_parser("theta", help="the theta/rho sequence")
    sp.add_argument("--flavor", choices=["bso", "top"], default="bso")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_theta)

    sp = sub.add_parser("ktable", help="expected vs recomputed k(n)")
    sp.add_argument("--from", dest="from_n", type=int, default=2)
    sp.add_argument("--to", dest="to_n", type=int, default=10)
    sp.add_argument("--verify", action="store_true", help="exit 1 on any mismatch")
    add_common(sp, budget=True)
    sp.set_defaults(func=_cmd_ktable)

    sp = sub.add_parser("htable", help="expected vs radical-computed h(n)")
    sp.add_argument("--from", dest="from_n", type=int, default=2)
    sp.add_argument("--to", dest="to_n", type=int, default=200)
    sp.add_argument("--verify", action="store_true", help="exit 1 on any mismatch")
    add_common(sp)
    sp.set_defaults(func=_cmd_htable)

    sp = sub.add_parser("verify", help="certify the theta data for one n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=None, help="defaults to the table k(n)")
    add_common(sp, budget=True)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("present", help="generators and relations of a family")
    sp.add_argument(
        "--flavor",
        choices=["bo", "bso", "bspin", "bg2", "bo_top", "bso_top", "bspin_top"],
        required=True,
    )
    sp.add_argument("--n", type=int, default=None)
    add_common(sp, budget=True)
    sp.set_defaults(func=_cmd_present)

    sp = sub.add_parser("poincare", help="Hilbert series of a presentation")
    sp.add_argument(
        "--flavor",
        choices=["bo", "bso", "bspin", "bg2", "bo_top", "bso_top", "bspin_top"],
        required=True,
    )
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--max-degree", dest="max_degree", type=int, default=16)
    add_common(sp, budget=True)
    sp.set_defaults(func=_cmd_poincare)

    sp = sub.add_parser("torsor", help="quadratic torsor relations and their certificates")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-j", dest="max_j", type=int, default=None)
    add_common(sp)
    sp.set_defaults(func=_cmd_torsor)

    sp = sub.add_parser("radical", help="the h(n) bilinear form and its right radical")
    sp.add_argument("--n", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_radical)

    sp = sub.add_parser("g2check", help="the rank-7 to G2 series cross-check")
    add_common(sp, budget=True)
    sp.set_defaults(func=_cmd_g2check)

    sp = sub.add_parser("jbound", help="guaranteed members of the J-set")
    sp.add_argument("--n", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_jbound)

    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. head); suppress the shutdown noise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (ParseError, RingError, ExponentOverflow, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 70


if __name__ == "__main__":
    sys.exit(main())
