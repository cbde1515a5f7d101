"""Smoke tests of the hand-run scripts in benchmarks/, and of the spans
that perfbench's traced runs require.

They reach into private names of subtlesw (the Steenrod memos, the chain
of representatives, the Groebner layer's internals), so a renamed internal
fails here rather than at the next measurement.
"""

import ast
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import answers  # noqa: E402
import bench_kernel  # noqa: E402
import bench_theta  # noqa: E402

from subtlesw import spaces  # noqa: E402
from subtlesw.grobner import Budget  # noqa: E402
from subtlesw.steenrod import bso_context, theta  # noqa: E402


def test_bench_theta_cold_k():
    seconds, k, budget, hilbert, built, terms = bench_theta.cold_k(10)
    assert k == 5 and budget.used == 10
    # x_1..x_5, each the square of the remainder before it, timed through
    # bench_kernel's spy on spaces.sq
    assert len(terms) == k and built > 0
    assert budget.kernel_calls > 0 and seconds >= hilbert >= 0


def test_bench_theta_time_thetas():
    seconds, top = bench_theta.time_thetas(7, 3)
    assert str(top) == "u2^3*u3+u2^2*u5+u4*u5+u3*u6+u2*u7+t*u3^3" and seconds >= 0


@pytest.mark.parametrize("family", bench_theta.SPIN)
def test_bench_theta_cold_present(family):
    # the row's budget counts what a direct present spends under a fresh one
    seconds, budget = bench_theta.cold_present(family, 5)
    direct = Budget()
    spaces.present(family, 5, direct)
    assert seconds >= 0 and budget.used == direct.used > 0
    assert (budget.kernel_calls, budget.skipped) == (direct.kernel_calls, direct.skipped)


def test_bench_theta_kept_terms():
    # theta_7 at n = 13 against the chain's basis of J_7: u2, u3, u5 and u9
    # lead it, and divide all but 364 of theta_7's 8,271 terms
    ctx = bso_context(13)
    _, basis = next(itertools.islice(spaces._thetas(ctx, Budget()), 7, None))
    top = theta(ctx, 7)
    assert (len(top.keys), bench_theta.kept_terms(basis, top)) == (8271, 364)


def test_spying_restores_the_original_when_its_block_raises():
    original = spaces.sq
    seen = []
    with pytest.raises(KeyError):
        with bench_kernel.spying(spaces, "sq", lambda result, s: seen.append(result)):
            assert spaces.sq is not original
            spaces.sq(bso_context(5), 1, theta(bso_context(5), 0))
            raise KeyError("stop")
    assert spaces.sq is original
    assert [str(x) for x in seen] == ["u3"]


def test_answers_digests_small_ranges():
    lines = {
        "steenrod": list(answers.steenrod_answers(ns=[4], samples=3)),
        "theta": list(answers.theta_answers(ns=[7], last=2)),
        "k": list(answers.k_rows(ns=[10])),
        "present": list(answers.present_rows(ns=[3])),
        "verify": list(answers.verify_answers(verify_ns=[5], torsor_ns=[5])),
        "groebner": list(answers.groebner_rows(ns=[4], ideals=2)),
    }
    # each input line of the Steenrod area is followed by sq, cartan and thom_sq
    assert len(lines["steenrod"]) == 4 * 4 * 3
    assert lines["theta"][2] == "<SteenrodContext bso n=7> theta_2 = u2*u3+u5"
    # k(10) = 5, its work, and the bases of J_0..J_5
    [(k, work, chain)] = lines["k"]
    assert k == "n=10 k=5" and work.startswith("units=10 ")
    assert chain.startswith("n=10 J_0=GroebnerBasis[") and chain.count("GroebnerBasis[") == 6
    # every family at n = 3, and BG2 once; BSpin_3 is F2[t, u2, u3, v4]/(u3, u2)
    assert len(lines["present"]) == 7
    series = json.loads(lines["present"][2][2])
    assert series == {
        "numerator": [[1, 0, 0], [-1, 2, 1], [-1, 3, 1], [1, 5, 2]],
        "denominator": [[0, 1], [2, 1], [3, 1], [4, 2]],
    }
    # the bench ideal, then two ideals in each of bso_ring(4) and bo_ring(4)
    assert len(lines["groebner"]) == 5
    assert lines["groebner"][0][1] == "units=24710 coprime=92 chained=7677"
    assert lines["verify"][-1] == '{"series_identity": true, "v8_regular": true}'
    count, hexdigest = answers.digest(lines["theta"])
    assert count == 6 and len(hexdigest) == 64


def test_answers_match_the_pinned_digests():
    # every area on its full range against benchmarks/answers.json; the
    # answers are compared before the work that found them
    pinned = json.loads(answers.PINS.read_text())
    got = answers.pins()
    assert got["answers"] == pinned["answers"]
    assert got["work"] == pinned["work"]


def _expected_spans():
    """``EXPECTED_SPANS`` as perfbench/run.py states it, read without
    importing run.py."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "EXPECTED_SPANS":
            return ast.literal_eval(node.value)
    raise AssertionError("EXPECTED_SPANS not found in perfbench/run.py")


@pytest.mark.parametrize("workload", ["ktable", "gbasis", "cli"])
def test_perfbench_spans_fire_at_small_scale(workload):
    """One small traced pass, as the benchmark's self-test runs it: right
    answers, and every span the traced runs require fires."""
    argv = [sys.executable, "perfbench/workload.py", "--workload", workload,
            "--seed", "1", "--scale", "small", "--trace", "1"]
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    missing = set(_expected_spans()[workload]) - set(result["summary"])
    assert not missing
