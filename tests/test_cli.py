import ast
import contextlib
import csv
import gc
import io
import json
import os
import re
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
    code, _, err = run(capsys, ["ktable", "--from", "11", "--to", "11", "--budget", "8"])
    assert code == 3
    assert "budget exceeded" in err
    assert "n=11" in err


def test_present_and_poincare_name_n_when_the_budget_runs_out(capsys):
    for name in ("present", "poincare"):
        code, _, err = run(capsys, [name, "--flavor", "bspin", "--n", "13", "--budget", "8"])
        assert code == 3 and "budget exceeded" in err and "(n=13)" in err, name


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
    # sq and theta check their own index signs
    code, out, err = run(capsys, ["sq", "--flavor", "bso", "--n", "5", "--k", "-1", "u2"])
    assert code == 2 and out == "" and err == "usage error: Sq index must be nonnegative\n"
    code, out, err = run(capsys, ["theta", "--n", "5", "--j", "-1"])
    assert code == 2 and out == "" and err == "usage error: theta index must be nonnegative\n"
    # one past MAX_EXPONENT
    code, out, err = run(capsys, ["sq", "--flavor", "bso", "--n", "5", "--k", "1", "u2^32768"])
    assert code == 2 and out == "" and err == "usage error: monomial exponent exceeds 15 bits\n"
    # a theta index far past the exponent limit overflows, and nothing recurses for it
    code, out, err = run(capsys, ["theta", "--n", "5", "--j", "1200"])
    assert code == 2 and out == "" and err == "usage error: monomial exponent exceeds 15 bits\n"
    code, _, err = run(capsys, ["verify", "--n", "5", "--k", "-1"])
    assert code == 2 and "usage error" in err
    code, _, _ = run(capsys, ["nonsense"])
    assert code == 2
    code, _, _ = run(capsys, ["jbound", "--n", "2"])
    assert code == 2
    code, _, _ = run(capsys, ["torsor", "--n", "11", "--max-j", "1"])
    assert code == 2
    # an empty range or expansion is an error, not a table that passes over nothing
    code, out, err = run(capsys, ["poincare", "--flavor", "bso", "--n", "3", "--max-degree", "-1"])
    assert code == 2 and out == "" and err == "usage error: expansion degree must be nonnegative\n"
    for table in ("ktable", "htable"):
        code, out, err = run(capsys, [table, "--from", "5", "--to", "3"])
        assert code == 2 and out == "" and err == "usage error: --from must not exceed --to\n"


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


def test_bo_families_start_at_n_1(capsys):
    code, out, _ = run(capsys, ["present", "--flavor", "bo", "--n", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert [g["name"] for g in doc["generators"]] == ["t", "u1"] and doc["relations"] == []
    code, out, _ = run(capsys, ["poincare", "--flavor", "bo", "--n", "1", "--max-degree", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["series"] == {"numerator": [[1, 0, 0]], "denominator": [[0, 1], [1, 0]]}
    assert doc["expansion"] == [[1, 0, 0], [1, 0, 1], [1, 0, 2], [1, 1, 0], [1, 1, 1], [1, 2, 0]]
    code, out, _ = run(capsys, ["poincare", "--flavor", "bo_top", "--n", "1", "--max-degree", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["expansion"] == [[1, p, 0] for p in range(4)]
    for flavor in ("bso", "bspin", "bso_top", "bspin_top"):
        code, out, err = run(capsys, ["present", "--flavor", flavor, "--n", "1"])
        assert code == 2 and out == "" and err.startswith("usage error: ") and err.endswith(" needs n >= 2\n")


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


def _python(args, stdout=subprocess.PIPE, **env):
    """A subprocess running ``python args`` on the package these tests
    import, writing to ``stdout``, with ``env`` added to the environment."""
    src = str(Path(subtlesw.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def _module_cli(argv, stdout=subprocess.PIPE, **env):
    """A subprocess running ``python -m subtlesw.cli argv``, as ``_python``."""
    return _python(["-m", "subtlesw.cli", *argv], stdout, **env)


def test_the_cli_runs_neither_numpy_nor_traceback():
    # every top-level module that importing the CLI and running a few
    # subcommands loads: a new runtime dependency fails here until it is named
    # below. numpy is only registered (its body would load numpy.* submodules),
    # traceback is left to the exit-70 handler and csv to --format csv.
    code = "\n".join([
        "import contextlib, io, sys",
        "before = set(sys.modules)",
        "import subtlesw.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for argv in (['jbound', '--n', '9'], ['theta', '--n', '7', '--j', '2'],",
        "                 ['htable', '--from', '2', '--to', '20'], ['ktable', '--to', '5']):",
        "        assert subtlesw.cli.main(argv) == 0, argv",
        "print(*set(sys.modules) - before)",
    ])
    with _python(["-c", code]) as proc:
        out, err = proc.communicate()
    assert proc.returncode == 0, err
    new = set(out.decode().split())
    assert not {name for name in new if name.startswith("numpy.")}
    assert "traceback" not in new and "csv" not in new
    loaded = {name.split(".")[0] for name in new}
    assert "subtlesw" in loaded
    assert loaded - set(sys.stdlib_module_names) <= {"subtlesw", "numpy"}


def test_import_works_without_numpy():
    # -S leaves site-packages, and so numpy, off the path
    src = str(Path(subtlesw.__file__).parents[1])
    code = "import sys, subtlesw; print(subtlesw.k_computed(5), 'numpy' in sys.modules)"
    with _python(["-S", "-c", code], PYTHONPATH=src) as proc:
        out, err = proc.communicate()
    assert proc.returncode == 0, err
    assert out.decode().split() == ["3", "False"]


def test_every_module_level_import_is_used():
    # __init__.py re-exports what it imports, so its imports are left out.
    # A private module-level function, class or constant of src/subtlesw
    # must be read by some module there, by name, as an attribute or in an
    # import.
    root = Path(__file__).parents[1]
    files = [*(root / "src" / "subtlesw").glob("*.py"), *(root / "benchmarks").glob("*.py")]
    unused = {}
    private, read = {}, set()
    for path in files:
        tree = ast.parse(path.read_text())
        if path.parent.name == "subtlesw":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
                else:
                    names = []
                for name in names:
                    if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                        private[name] = path.name
        if path.name == "__init__.py":
            continue
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names)
        # the base of an attribute is a Name node too
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if bound - used:
            unused[path.name] = sorted(bound - used)
    assert len(files) > 10
    assert unused == {}
    assert len(private) > 10
    assert {name: where for name, where in private.items() if name not in read} == {}


def test_numpy_provenance_reads_after_import():
    # perfbench records sys.modules["numpy"].__version__ and backend.name()
    # after import subtlesw; reading the version runs numpy's body
    code = "\n".join([
        "import importlib.metadata, sys, subtlesw",
        "assert sys.modules['numpy'].__version__ == importlib.metadata.version('numpy')",
        "assert subtlesw.backend.name() == 'pure'",
        "module = sys.modules['numpy']",
        "import numpy",
        "assert numpy is module and numpy.arange(4).sum() == 6",
    ])
    with _python(["-c", code]) as proc:
        _, err = proc.communicate()
    assert proc.returncode == 0, err.decode()


def test_installed_entry_point():
    # pyproject.toml installs cli.run, the exit step python -m also takes, as
    # the console script; without it on PATH, the same run goes through -m.
    # The package's version has one owner, and a bare install pulls in no
    # dependency (the file is read as text: 3.10 has no tomllib)
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()

    def section(name):
        return pyproject.split(f"[{name}]\n", 1)[1].split("\n[", 1)[0].splitlines()

    assert 'subtlesw = "subtlesw.cli:run"' in section("project.scripts")
    project = section("project")
    assert not [line for line in project if line.startswith("version")]
    assert 'dynamic = ["version"]' in project
    assert 'version = {attr = "subtlesw.__version__"}' in section("tool.setuptools.dynamic")
    assert "dependencies = []" in project
    argv = ["theta", "--flavor", "bso", "--n", "7", "--j", "2"]
    script = shutil.which("subtlesw")
    if script is not None:
        proc = subprocess.Popen([script, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    else:
        proc = _module_cli(argv)
    out, _ = proc.communicate()
    assert proc.returncode == 0
    assert out == b"u2*u3+u5\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["verify", "--n", "9", "--k", "5"], 1, r"n: 9\nk: 5\nh: 4\nregular: false\n.*: true\n.*: true\n", r""),
        (["ktable", "--from", "5", "--to", "2"], 2, r"", r"usage error: --from must not exceed --to\n"),
        (["ktable", "--verify"], 2, r"", r"(?s)usage: .*unrecognized arguments: --verify\n"),
        (["verify", "--n", "13", "--budget", "10"], 3, r"", r"budget exceeded: .* of 10 reduction steps \(n=13\)\n"),
    ],
    ids=["mismatch", "usage", "argparse", "budget"],
)
def test_a_cli_process_exits_with_the_verdict(argv, code, out, err):
    # exit codes 1-3 as a shell sees them, through run() and sys.exit; the
    # goldens below exit 0
    with _module_cli(argv) as proc:
        stdout, stderr = proc.communicate()
    assert proc.returncode == code
    assert re.fullmatch(out, stdout.decode()) and re.fullmatch(err, stderr.decode())


def test_cli_processes_print_the_benchmark_goldens():
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())["cli"]
    assert len(golden) == 11
    for cmd in golden:
        with _module_cli(cmd["argv"]) as proc:
            out, err = proc.communicate()
        assert (proc.returncode, out.decode(), err) == (0, cmd["stdout"], b""), cmd["name"]


def test_only_the_exit_step_freezes_the_collector():
    # main is called in-process by tests and perfbench's traced passes, so it
    # leaves the collector alone; run freezes it just before the exit
    before = gc.get_freeze_count(), gc.isenabled()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["present", "--flavor", "bspin", "--n", "9"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before
    code = "\n".join([
        "import atexit, gc, sys, subtlesw.cli",
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, gc.isenabled(), file=sys.stderr))",
        "sys.argv[1:] = ['theta', '--n', '7', '--j', '2']",
        "subtlesw.cli.run()",
    ])
    with _python(["-c", code]) as proc:
        out, err = proc.communicate()
    assert (proc.returncode, out, err) == (0, b"u2*u3+u5\n", b"True True\n")


@pytest.mark.parametrize("argv", [["theta", "--flavor", "bso", "--n", "5", "--j", "-1"]], ids=["theta-j"])
def test_input_checks(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and "usage error" in err


def test_a_closed_pipe_exits_quietly():
    # theta_7 at n = 13 prints about 200 KB, more than a pipe holds, so
    # the write fails once the reader has closed its end
    with _module_cli(["theta", "--n", "13", "--j", "7"]) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 0 and err == b""


def test_a_pipe_closed_before_the_first_write_exits_quietly():
    # the streamed rows (about 11 KB) would fit in a pipe's buffer, so the
    # reader closes its end before the child starts: the first flush fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    with _module_cli(["htable", "--to", "200", "--format", "jsonl"], write_end) as proc:
        os.close(write_end)
        err = proc.stderr.read()
    assert proc.returncode == 0 and err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["present", "--flavor", "bspin", "--n", "11", "--format", "json"],
        ["poincare", "--flavor", "bspin", "--n", "9", "--format", "csv"],
    ],
    ids=["present-json", "poincare-csv"],
)
def test_output_does_not_depend_on_the_hash_seed(argv):
    outputs = []
    for seed in ("0", "1"):
        out, err = _module_cli(argv, PYTHONHASHSEED=seed).communicate()
        assert err == b""
        if "json" in argv:
            out = json.loads(out)
            for key in ("wall_time_ms", "rows_ms"):
                out["meta"].pop(key, None)
        outputs.append(out)
    assert outputs[0] == outputs[1]
