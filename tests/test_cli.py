import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import subtlesw
from subtlesw import cli, formsf2, spaces
from subtlesw.grobner import DEFAULT_BUDGET


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theta_byte_exact(capsys):
    code, out, _ = run(capsys, ["theta", "--flavor", "bso", "--n", "7", "--j", "2"])
    assert code == 0
    assert out == "u2*u3+u5\n"


def test_sq_flavors(capsys):
    code, out, _ = run(capsys, ["sq", "--flavor", "bso", "--n", "5", "--k", "2", "u3"])
    assert code == 0 and out == "u2*u3+u5\n"
    code, out, _ = run(capsys, ["sq", "--flavor", "top", "--n", "5", "--k", "1", "w2"])
    assert code == 0 and out == "w3\n"
    code, out, _ = run(capsys, ["sq", "--flavor", "bo", "--n", "5", "--k", "1", "u2"])
    assert code == 0 and out == "u1*u2+u3\n"


def test_ktable_verify_exit_codes(capsys):
    code, out, _ = run(capsys, ["ktable", "--from", "2", "--to", "10"])
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 9  # header plus nine rows


def test_table_mismatch_prints_every_row_and_exits_1(capsys, monkeypatch):
    # one wrong expected value per table: every row still prints, the verdict fails
    k_expected, h_expected = spaces.k_expected, formsf2.h_expected
    monkeypatch.setattr(spaces, "k_expected", lambda n: k_expected(n) + (n == 3))
    monkeypatch.setattr(formsf2, "h_expected", lambda n: h_expected(n) + (n == 5))
    cases = [(["ktable", "--to", "4"], 3, "3\t3\t2\tfalse"), (["htable", "--to", "6"], 5, "5\t3\t2\tfalse")]
    for argv, rows, bad in cases:
        code, out, _ = run(capsys, argv)
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 1 + rows and bad in lines
        code, _, err = run(capsys, argv + ["--verify"])
        assert code == 2 and "unrecognized arguments: --verify" in err


def test_ktable_json_payload(capsys):
    code, out, _ = run(capsys, ["ktable", "--from", "2", "--to", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["meta"]) == ["budget", "rows_ms", "version", "wall_time_ms"]
    assert doc["meta"]["budget"] == DEFAULT_BUDGET
    assert doc["rows"] == [
        {"n": 2, "expected": 1, "computed": 1, "ok": True},
        {"n": 3, "expected": 2, "computed": 2, "ok": True},
        {"n": 4, "expected": 2, "computed": 2, "ok": True},
    ]


def test_json_deterministic_modulo_meta(capsys):
    def payload():
        code, out, _ = run(capsys, ["theta", "--flavor", "bso", "--n", "8", "--j", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        doc.pop("meta")
        return doc

    assert payload() == payload()


def test_jsonl_streams_rows_then_meta(capsys):
    code, out, _ = run(capsys, ["ktable", "--from", "2", "--to", "4", "--format", "jsonl"])
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert [l["n"] for l in lines[:-1]] == [2, 3, 4]
    assert set(lines[-1]) == {"meta"}


def test_csv_format(capsys):
    code, out, _ = run(capsys, ["ktable", "--from", "2", "--to", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,expected,computed,ok"
    assert lines[1] == "2,1,1,true"


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(capsys, ["verify", "--n", "3", "--k", "3"])
    assert code == 1
    assert "regular: false" in out
    code, _, _ = run(capsys, ["verify", "--n", "7"])
    assert code == 0


def test_budget_exceeded_exit_code(capsys):
    code, _, err = run(capsys, ["ktable", "--from", "11", "--to", "11", "--budget", "10"])
    assert code == 3
    assert "budget exceeded" in err
    assert "n=11" in err


def test_env_budget(capsys, monkeypatch):
    # the budget is --budget or DEFAULT_BUDGET; the environment plays no part
    for value in ("10", "abc"):
        monkeypatch.setenv("SUBTLE_BUDGET", value)
        code, out, _ = run(capsys, ["ktable", "--from", "9", "--to", "9", "--format", "json"])
        assert code == 0 and json.loads(out)["meta"]["budget"] == DEFAULT_BUDGET
    code, out, _ = run(capsys, ["present", "--flavor", "bso", "--n", "3", "--budget", "7", "--format", "json"])
    assert code == 0 and json.loads(out)["meta"]["budget"] == 7


@pytest.mark.parametrize(
    "error, code, err_text",
    [(ArithmeticError("no match"), 1, "verification failure: no match\n"), (RuntimeError("boom"), 70, "RuntimeError: boom\n")],
    ids=["arithmetic", "internal"],
)
def test_other_failures_map_to_exit_codes(capsys, monkeypatch, error, code, err_text):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_jbound", fail)
    got, out, err = run(capsys, ["jbound", "--n", "5"])
    assert got == code and out == "" and err.endswith(err_text)
    assert err.startswith("Traceback") == (code == 70)


def test_family_choices():
    assert cli.FAMILIES == ["bo", "bso", "bspin", "bg2", "bo_top", "bso_top", "bspin_top"]


def test_usage_errors(capsys):
    code, _, err = run(capsys, ["sq", "--flavor", "bso", "--n", "5", "--k", "1", "u9"])
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, ["sq", "--flavor", "bso", "--n", "5", "--k", "1", "u2+"])
    assert code == 2
    code, _, err = run(capsys, ["sq", "--flavor", "bso", "--n", "5", "--k", "-1", "u2"])
    assert code == 2
    # one past MAX_EXPONENT
    code, out, err = run(capsys, ["sq", "--flavor", "bso", "--n", "5", "--k", "1", "u2^32768"])
    assert code == 2 and out == "" and err == "usage error: monomial exponent exceeds 15 bits\n"
    code, _, err = run(capsys, ["verify", "--n", "5", "--k", "-1"])
    assert code == 2 and "usage error" in err
    code, _, _ = run(capsys, ["nonsense"])
    assert code == 2
    code, _, _ = run(capsys, ["jbound", "--n", "2"])
    assert code == 2


def test_jbound_text(capsys):
    code, out, _ = run(capsys, ["jbound", "--n", "11"])
    assert code == 0 and out == "{1, 2, 4}\n"
    code, out, _ = run(capsys, ["jbound", "--n", "11", "--format", "json"])
    doc = json.loads(out)
    assert doc["values"] == [1, 2, 4]


def test_present_json(capsys):
    code, out, _ = run(capsys, ["present", "--flavor", "bspin", "--n", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "BSpin" and doc["k"] == 2
    assert [g["name"] for g in doc["generators"]] == ["t", "u2", "u3", "v4"]
    assert sorted(doc["relations"]) == ["u2", "u3"]


def test_poincare_json(capsys):
    code, out, _ = run(
        capsys,
        ["poincare", "--flavor", "bg2", "--max-degree", "8", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["series"]["numerator"] == [[1, 0, 0]]
    assert [1, 0, 0] in doc["expansion"]
    assert doc["expansion"] == sorted(doc["expansion"], key=lambda r: (r[1], r[2]))


def test_torsor_command(capsys):
    code, out, _ = run(capsys, ["torsor", "--n", "7", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][1] == {"j": 1, "relation": "u2*u3+u5", "verified": True}


def test_radical_command(capsys):
    code, out, _ = run(capsys, ["radical", "--n", "12", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["radical_dim"] == 1
    assert doc["radical_basis"] == [[1, 1, 1, 1, 1]]
    code, out, _ = run(capsys, ["radical", "--n", "9"])
    assert code == 0 and "radical dim: 1" in out


def test_g2check_command(capsys):
    code, out, _ = run(capsys, ["g2check", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["v8_regular"] is True and doc["series_identity"] is True


def test_htable_command(capsys):
    code, out, _ = run(capsys, ["htable", "--from", "2", "--to", "40", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert all(r["ok"] for r in doc["rows"])
    assert len(doc["rows"]) == 39


# one small invocation per subcommand; the first three print tables
FORMAT_CASES = {
    "ktable": ["ktable", "--from", "2", "--to", "5"],
    "htable": ["htable", "--from", "2", "--to", "12"],
    "torsor": ["torsor", "--n", "5"],
    "sq": ["sq", "--n", "5", "--k", "2", "u3"],
    "theta": ["theta", "--n", "7", "--j", "2"],
    "verify": ["verify", "--n", "5"],
    "present": ["present", "--flavor", "bspin", "--n", "5"],
    "poincare": ["poincare", "--flavor", "bg2", "--max-degree", "6"],
    "radical": ["radical", "--n", "9"],
    "g2check": ["g2check"],
    "jbound": ["jbound", "--n", "11"],
}


@pytest.mark.parametrize("name", list(FORMAT_CASES))
def test_formats_agree(capsys, name):
    out = {}
    for fmt in ("json", "jsonl", "csv"):
        code, out[fmt], _ = run(capsys, FORMAT_CASES[name] + ["--format", fmt])
        assert code == 0
    doc = json.loads(out["json"])
    meta = doc.pop("meta")
    *records, last = [json.loads(line) for line in out["jsonl"].splitlines()]
    assert set(last) == {"meta"} and set(last["meta"]) == set(meta)
    assert ("budget" in meta) == (name in ("ktable", "verify", "present", "poincare", "g2check"))
    grid = list(csv.reader(io.StringIO(out["csv"])))
    if name in ("ktable", "htable", "torsor"):
        assert records == doc["rows"] and records
        assert sorted(grid[0]) == sorted(records[0])
        assert grid[1:] == [[cli._cell(row[c]) for c in grid[0]] for row in records]
    else:
        assert records == [doc]
        assert grid == [["key", "value"]] + [[k, cli._jval(v)] for k, v in sorted(doc.items())]


def test_version_flag(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert out.strip() == cli.__version__


def test_installed_entry_point():
    # pyproject.toml installs cli.main as the console script; without it on
    # PATH, the same main runs as a module of the package these tests import
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'subtlesw = "subtlesw.cli:main"' in scripts.splitlines()
    argv = ["theta", "--flavor", "bso", "--n", "7", "--j", "2"]
    script = shutil.which("subtlesw")
    if script is not None:
        out = subprocess.run([script, *argv], capture_output=True, text=True)
    else:
        src = str(Path(subtlesw.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        command = [sys.executable, "-m", "subtlesw.cli", *argv]
        out = subprocess.run(command, capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stdout == "u2*u3+u5\n"


@pytest.mark.parametrize("argv", [["theta", "--flavor", "bso", "--n", "5", "--j", "-1"]], ids=["theta-j"])
def test_input_checks(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and "usage error" in err
