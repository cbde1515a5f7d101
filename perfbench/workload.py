"""One pass of a benchmark workload, run in a fresh interpreter.

``run.py`` starts this file once per pass, so no memo cache of subtlesw
(theta, the Steenrod squares, ``_k_cache``, ``_gb_cache``) survives from an
earlier pass.  The pass imports subtlesw, builds its inputs from the seed,
reports when set-up ended, runs the timed part, checks every answer against
data kept in ``golden.json`` (never against subtlesw's own expectations) and
prints one JSON object as its last line of output.

Untraced passes also time a reference chunk next to the work (hostspeed.py):
``run_s`` (and on cli the per-call ``ops_ms``) are rescaled by it to the
nominal host, and ``raw_s`` is the plain wall time of the work.

    python3 perfbench/workload.py --workload ktable|gbasis|cli --seed N
        [--mode pass|setup] [--trace 0|1] [--scale full|small] [--corrupt]

``--mode setup`` stops after set-up.  ``--trace 1`` wraps the layer entry
points (see tracer.py) and adds the spans to the result.  ``--scale small``
is the self-test size.  ``--corrupt`` falsifies one expected answer, so a
working gate must report a failure.

``--mode cli-traced --argv JSON`` runs one CLI command in-process under the
tracer; the traced ``cli`` pass uses it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = json.loads((HERE / "golden.json").read_text())

# pass sizes by --scale
KTABLE_TO = {"full": 13, "small": 10}
NF_COUNT = {"full": 300, "small": 5}
NF_FACTORS = 12
SHIFT_CHECKS = {"full": 10, "small": 2}
CLI_TIMEOUT_S = 120


def import_subtlesw():
    import subtlesw

    src = (ROOT / "src").resolve()
    if src not in Path(subtlesw.__file__).resolve().parents:
        raise SystemExit(f"subtlesw was imported from {subtlesw.__file__}, not from {src}")
    return subtlesw


class Pass:
    """Operations attempted and failed in one pass, with their latencies."""

    def __init__(self):
        self.ops_ms = []
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# -- ktable: k_row(n), n = 2..13, cold ------------------------------------------


def setup_ktable(args):
    ns = list(range(2, KTABLE_TO[args.scale] + 1))
    # rows share no work (each n has its own ring, context and caches), so the
    # seeded order changes only the allocator state each row starts from
    random.Random(args.seed).shuffle(ns)
    expected = {int(n): k for n, k in GOLDEN["ktable"].items()}
    if args.corrupt:
        expected[max(ns)] += 1
    return ns, expected


def timed_ktable(inputs, p):
    from subtlesw import spaces

    ns, _ = inputs
    rows = {}
    for n in ns:
        t0 = time.perf_counter()
        try:
            rows[n] = spaces.k_row(n)
        except Exception as exc:  # a raising row is a failed operation
            rows[n] = exc
        p.ops_ms.append(["k_row", (time.perf_counter() - t0) * 1000])
    return rows


def check_ktable(inputs, rows, p):
    _, expected = inputs
    for n, row in sorted(rows.items()):
        ok = isinstance(row, dict) and row["computed"] == expected[n]
        p.check(ok, f"k({n}) = {row!r}, expected {expected[n]}")


# -- gbasis: fixed-ideal basis, normal forms, Hilbert series ---------------------


def setup_gbasis(args):
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from bench_kernel import GENS, random_monomial
    from subtlesw.poly import bso_ring, parse_poly

    ring = bso_ring(8)
    gens = [parse_poly(ring, s) for s in GENS]
    rng = random.Random(args.seed)
    elems = [random_monomial(ring, rng, NF_FACTORS) for _ in range(NF_COUNT[args.scale])]
    # (element index, multiplier m, basis index) for nf(x + m*g) == nf(x)
    shifts = [
        (rng.randrange(len(elems)), random_monomial(ring, rng, rng.randint(1, 4)), rng.randrange(10**6))
        for _ in range(SHIFT_CHECKS[args.scale])
    ]
    expected = dict(GOLDEN["gbasis"])
    if args.corrupt:
        expected["length"] += 1
    return ring, gens, elems, shifts, expected


def timed_gbasis(inputs, p):
    from subtlesw import grobner

    ring, gens, elems, _, _ = inputs
    gb = grobner.groebner_basis(ring, gens)
    nfs = []
    for x in elems:
        t0 = time.perf_counter()
        nfs.append(grobner.normal_form(x, gb))
        p.ops_ms.append(["normal_form", (time.perf_counter() - t0) * 1000])
    return gb, nfs, grobner.hilbert_series(gb), grobner.krull_dimension(gb)


def _reduced(nf, leads):
    """No term of nf is divisible by a leading monomial."""
    return not any(all(a <= b for a, b in zip(lt, m)) for m in nf.terms for lt in leads)


def check_gbasis(inputs, result, p):
    from subtlesw import grobner

    ring, _, elems, shifts, expected = inputs
    gb, nfs, hs, kd = result
    digest = hashlib.sha256("\n".join(str(g) for g in gb).encode()).hexdigest()
    p.check(len(gb) == expected["length"], f"basis length {len(gb)}, expected {expected['length']}")
    p.check(digest == expected["sha256"], f"basis digest {digest}")
    leads = [g.lead_monomial() for g in gb]
    for x, nf in zip(elems, nfs):
        p.check(nf.ring == ring and _reduced(nf, leads), f"normal form of {x} is not reduced: {nf}")
    for i, m, k in shifts:
        g = gb.polys[k % len(gb)]
        x = elems[i]
        p.check(grobner.normal_form(x + m * g, gb) == nfs[i], f"nf({x} + ({m})*g{k % len(gb)}) != nf({x})")
    p.check(hs.to_json() == expected["hilbert"], f"Hilbert series {hs.to_json()}")
    p.check(kd == expected["krull"], f"Krull dimension {kd}, expected {expected['krull']}")


# -- cli: a fixed mix of CLI processes, one at a time ----------------------------


def cli_env():
    env = dict(os.environ)
    env.pop("SUBTLE_BUDGET", None)  # the CLI would read it as its budget
    return env


def setup_cli(args):
    mix = list(GOLDEN["cli"])
    random.Random(args.seed).shuffle(mix)
    if args.corrupt:
        mix[0] = dict(mix[0], stdout=mix[0]["stdout"] + "x")
    return mix


def timed_cli(mix, p, traced):
    """Run the mix; return the processes and (normalized, raw) seconds of the
    sweep.  Untraced, a reference chunk is timed between calls, on the CPU
    the calls run on (run.py pins the pass to one CPU)."""
    env = cli_env()
    results = []
    norm_s = raw_s = 0.0
    ref = None if traced else hostspeed.time_reference(hostspeed.REF_REPEAT)
    for cmd in mix:
        if traced:
            argv = [sys.executable, str(HERE / "workload.py"), "--mode", "cli-traced", "--argv", json.dumps(cmd["argv"])]
        else:
            argv = [sys.executable, "-m", "subtlesw.cli", *cmd["argv"]]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=CLI_TIMEOUT_S)
        raw = time.perf_counter() - t0
        norm = raw
        if not traced:
            after = hostspeed.time_reference(hostspeed.REF_REPEAT)
            norm = hostspeed.around(raw, ref, after)
            ref = after
        p.ops_ms.append([cmd["name"], norm * 1000])
        norm_s += norm
        raw_s += raw
        results.append(proc)
    return results, norm_s, raw_s


def check_cli(mix, results, p, traced):
    summaries = []
    for cmd, proc in zip(mix, results):
        if traced:
            try:
                out = json.loads(proc.stdout.decode().splitlines()[-1])
            except (IndexError, ValueError):
                out = {"rc": proc.returncode, "stdout": proc.stdout.decode(errors="replace")}
            rc, stdout = out["rc"], out["stdout"]
            summaries.append(out.get("summary", {}))
        else:
            rc, stdout = proc.returncode, proc.stdout.decode(errors="replace")
        p.check(rc == 0 and stdout == cmd["stdout"], f"{cmd['name']}: exit {rc}, stdout {stdout[:200]!r}")
    return summaries


def cli_traced(argv):
    """Run one CLI command in this process under the tracer; print the result."""
    import_subtlesw()
    from subtlesw import cli

    tr = tracer.install(tracer.Tracer())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    summary = tracer.summarize(tr.spans)
    print(json.dumps({"rc": rc, "stdout": buf.getvalue(), "summary": summary}))


# -- one pass --------------------------------------------------------------------


def run_pass(args):
    sub = import_subtlesw()
    if args.workload == "ktable":
        inputs = setup_ktable(args)
    elif args.workload == "gbasis":
        inputs = setup_gbasis(args)
    else:
        inputs = setup_cli(args)
    ready = time.monotonic()
    result = {"ready": ready, "backend": sub.backend.name(), "numpy": sys.modules["numpy"].__version__}
    if args.mode == "setup":
        return result

    p = Pass()
    tr = summary = sampler = None
    if args.workload == "cli":  # the cli work is traced in its children
        out, run_s, raw_s = timed_cli(inputs, p, bool(args.trace))
    else:
        if args.trace:
            tr = tracer.install(tracer.Tracer())
        else:
            sampler = hostspeed.Sampler()
            sampler.start()
        t0 = time.perf_counter()
        out = (timed_ktable if args.workload == "ktable" else timed_gbasis)(inputs, p)
        run_s = raw_s = time.perf_counter() - t0
        if sampler is not None:
            sampler.stop()
            run_s, raw_s = sampler.normalized(), sampler.raw()
    if tr is not None:
        # spans recorded by the checks below are not part of the timed work
        summary = tracer.summarize(tr.spans)
    if args.workload == "ktable":
        check_ktable(inputs, out, p)
    elif args.workload == "gbasis":
        check_gbasis(inputs, out, p)
    else:
        cli_summaries = check_cli(inputs, out, p, bool(args.trace))
        if args.trace:
            summary = tracer.merge(cli_summaries)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        run_s=run_s,
        raw_s=raw_s,
        ops_ms=p.ops_ms,
        attempted=p.attempted,
        failures=p.failures,
        # for cli the work runs in the child processes
        rss_kib=children if args.workload == "cli" else own,
    )
    if summary is not None:
        result["summary"] = summary
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description="one pass of a perfbench workload")
    ap.add_argument("--workload", choices=["ktable", "gbasis", "cli"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=["pass", "setup", "cli-traced"], default="pass")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "small"], default="full")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--argv", help="JSON list of CLI arguments (cli-traced mode)")
    args = ap.parse_args(argv)
    if args.mode == "cli-traced":
        cli_traced(json.loads(args.argv))
        return
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(run_pass(args)))


if __name__ == "__main__":
    main()
