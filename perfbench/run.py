"""subtlesw benchmark: cold k(n) table, fixed-ideal Groebner basis, CLI mix.

    python3 perfbench/run.py --workload ktable|gbasis|cli --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source tree; subtlesw is imported from its ``src``
directory.  Each pass of a workload runs in a fresh interpreter
(workload.py), one at a time, until ``--seconds`` of timed work have passed
(at least one pass).  Set-up is measured in set-up-only passes.  The run
is pinned to one CPU, and every time that feeds an end-to-end metric is
rescaled by a reference chunk timed next to it on that CPU (hostspeed.py),
because the host's speed drifts far more than the bounds allow.
The last line of output is the result object; the line before it holds the
distributions behind each median and the provenance of the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, plus start-up
and per-subcommand CLI timings.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
AFFINITY = len(os.sched_getaffinity(0))  # CPUs available before pin()
SETUP_PASSES = 10
STARTUP_PROBES = 5
RUN_CAP_S = 170  # every child is stopped by then, so a run ends within 180 s

# spans that must fire on each workload; a rename fails the traced run
EXPECTED_SPANS = {
    "ktable": (
        "spaces.k_row", "steenrod.theta", "poly.add", "poly.mul",
        "grobner.append", "grobner.member", "grobner.nf", "kernel",
    ),
    "gbasis": ("grobner.basis", "grobner.nf", "kernel", "hilbert.series", "hilbert.krull"),
    "cli": (
        "cli.main", "spaces.k_row", "steenrod.theta", "poly.add", "poly.mul",
        "grobner.basis", "grobner.append", "grobner.member", "grobner.nf", "kernel",
        "hilbert.series", "formsf2.h_of", "formsf2.quillen_form", "formsf2.right_radical",
    ),
}


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload, seed, scale="full", corrupt=False):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.corrupt = corrupt
        self.t_start = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def _timeout(self):
        left = RUN_CAP_S - (time.monotonic() - self.t_start)
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_CAP_S} s")
        return left

    def child(self, argv):
        """Run a child interpreter; return (spawn time, its last output line as JSON)."""
        timeout = self._timeout()
        t_spawn = time.monotonic()
        # own process group, so a timeout also stops the CLI processes a pass started
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self.env, cwd=ROOT, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child {argv[:3]} timed out") from exc
        lines = out.decode().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"child {argv} exited {proc.returncode}: {err.decode()[-2000:]}")
        return t_spawn, json.loads(lines[-1])

    def workload_pass(self, mode="pass", trace=0, workload=None):
        argv = [
            str(HERE / "workload.py"), "--workload", workload or self.workload, "--seed", str(self.seed),
            "--mode", mode, "--trace", str(trace), "--scale", self.scale,
        ]
        if self.corrupt:
            argv.append("--corrupt")
        t_spawn, res = self.child(argv)
        res["setup_s"] = res["ready"] - t_spawn
        return res

    def setup_pass(self):
        """Seconds to spawn a pass and build its inputs: (normalized, raw)."""
        before = hostspeed.time_reference(hostspeed.REF_REPEAT)
        raw = self.workload_pass(mode="setup")["setup_s"]
        return hostspeed.around(raw, before, hostspeed.time_reference(hostspeed.REF_REPEAT)), raw

    def startup_probe(self):
        """Bare interpreter start (ms) and ``import subtlesw`` inside it (ms)."""
        interp, imp = [], []
        for _ in range(STARTUP_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True, env=self.env, timeout=self._timeout())
            interp.append((time.perf_counter() - t0) * 1000)
            code = "import time; t = time.perf_counter(); import subtlesw; print((time.perf_counter() - t) * 1000)"
            _, ms = self.child(["-c", code])
            imp.append(ms)
        return statistics.median(interp), statistics.median(imp)


def dist(values):
    """Median, quartiles, count, and the highest percentile with ten samples beyond it."""
    v = sorted(values)
    out = {"n": len(v), "median": statistics.median(v)}
    if len(v) >= 2:
        q1, _, q3 = statistics.quantiles(v, n=4)
        out.update(q1=q1, q3=q3)
    if len(v) > 10:
        k = len(v) - 10
        out.update(tail_pct=round(100 * k / len(v), 1), tail=v[k - 1])
    return out


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit():
    """HEAD of the source tree, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.decode().strip()


def run(workload, seed, seconds, trace, scale="full", corrupt=False):
    """Measure one workload; return (result object, detail object)."""
    r = Runner(workload, seed, scale, corrupt)
    untraced, traced = [], []
    detail = {}
    if not trace:
        setups = [r.setup_pass() for _ in range(SETUP_PASSES)]
        t0 = time.monotonic()
        while not untraced or time.monotonic() - t0 < seconds:
            untraced.append(r.workload_pass())
        passes = untraced
        run_s = [p["run_s"] for p in passes]
        # a request is one CLI process on cli, and one whole pass (a k(n)
        # table, a basis computation) on the in-process workloads
        requests = [ms for p in passes for _, ms in p["ops_ms"]] if workload == "cli" else [t * 1000 for t in run_s]
        setup_s = [norm for norm, _ in setups]
        rss = [p["rss_kib"] / 1024 for p in passes]
        metrics = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mib": statistics.median(rss),
            "latency_p50_ms": statistics.median(requests),
        }
        detail = {
            "run_s": dist(run_s),
            "raw_run_s": dist([p["raw_s"] for p in passes]),
            "setup_s": dist(setup_s),
            "raw_setup_s": dist([raw for _, raw in setups]),
            "peak_rss_mib": dist(rss),
            "latency_ms": dist(requests),
            "op_ms": dist([ms for p in passes for _, ms in p["ops_ms"]]),
        }
        checked = passes
    else:
        t0 = time.monotonic()
        interp_ms, import_ms = r.startup_probe()
        while not traced or time.monotonic() - t0 < seconds:
            untraced.append(r.workload_pass())
            traced.append(r.workload_pass(trace=1))
        passes = untraced + traced
        # per-subcommand CLI timings: the untraced cli passes, or one extra sweep
        cli_passes = untraced if workload == "cli" else [r.workload_pass(workload="cli")]
        checked = passes if workload == "cli" else passes + cli_passes
        per_cmd = {}
        for p in cli_passes:
            for name, ms in p["ops_ms"]:
                per_cmd.setdefault(name, []).append(ms)
        layers = [tracer.layer_metrics(p["summary"], p["raw_s"]) for p in traced]
        # counts are equal across passes; median_low keeps them whole numbers
        metrics = {
            name: (statistics.median_low if UNITS[name] == "count" else statistics.median)([l[name] for l in layers])
            for name in layers[0]
        }
        metrics["startup.interp_ms"] = interp_ms
        metrics["startup.import_ms"] = import_ms
        for name, values in sorted(per_cmd.items()):
            metrics[f"cli.{name}_ms"] = statistics.median(values)
        # plain wall times on both sides: traced passes time no reference chunk
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["raw_s"] for p in traced) / statistics.median(p["raw_s"] for p in untraced)
        )
        merged = tracer.merge(p["summary"] for p in traced)
        detail["spans"] = {name: {k: s[k] for k in ("calls", "incl", "self")} for name, s in merged.items()}
        missing = [s for s in EXPECTED_SPANS[workload] if s not in merged]
        if missing:
            raise BenchError(f"spans never fired on {workload}: {', '.join(missing)}")
    failures = [f for p in checked for f in p["failures"]]
    result = {
        "correct": not failures,
        "attempted": sum(p["attempted"] for p in checked),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    detail.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        scale=scale,
        passes=len(passes),
        failures=failures[:20],
        provenance={
            "backend": passes[0]["backend"],
            "python": platform.python_version(),
            "numpy": passes[0]["numpy"],
            "nproc": os.cpu_count(),
            "affinity": AFFINITY,
            "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "reference_s": hostspeed.REF_S,
            "commit": commit(),
            "source_sha256": source_digest(),
        },
    )
    return result, detail


def check_layout():
    for path in (ROOT / "src" / "subtlesw" / "__init__.py", ROOT / "benchmarks" / "bench_kernel.py"):
        if not path.is_file():
            raise BenchError(f"{path.relative_to(ROOT)} not found: run from a subtlesw source tree")


def self_test():
    """Small passes of every workload: all metric names are emitted, and a
    falsified expected answer is counted as a failure."""
    wanted = {0: [m["name"] for m in SPEC["end_to_end"]], 1: [m["name"] for m in SPEC["per_layer"]]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            res, _ = run(workload, 1, 0, trace, scale="small")
            got = set(res["metrics"])
            if got != set(wanted[trace]):
                problems.append(f"{workload} trace={trace}: missing {sorted(set(wanted[trace]) - got)}, "
                                f"extra {sorted(got - set(wanted[trace]))}")
            if res["failed"] or not res["correct"]:
                problems.append(f"{workload} trace={trace}: {res['failed']} failed at the right answers")
            print(f"self-test {workload} trace={trace}: {len(got)} metrics, "
                  f"{res['failed']}/{res['attempted']} failed", flush=True)
        res, _ = run(workload, 1, 0, 0, scale="small", corrupt=True)
        ratio = res["failed"] / res["attempted"]
        print(f"self-test {workload} with a wrong expected answer: failed_ratio {ratio:.3f}", flush=True)
        if not ratio > 0 or res["correct"]:
            problems.append(f"{workload}: a wrong expected answer was not caught")
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def pin():
    """Run this process and every pass it starts on one CPU, so a reference
    chunk timed here runs where the CLI processes of a cli pass run."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    try:
        check_layout()
        pin()
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
