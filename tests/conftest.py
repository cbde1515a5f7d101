import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

_CRITERIA = {
    "01": "k-table exact for n = 2..16",
    "02": "theta_0..theta_{k-1} regular and theta_k in the ideal, n = 2..10",
    "03": "t, theta_0..theta_{h-1} regular, n = 2..10",
    "04": "h-table n = 2..200 under one second",
    "05": "radical of the split form matches the parity rule, 2 <= m <= 100",
    "06": "Steenrod property suite, >= 1000 random inputs per ring",
    "07": "torsor relations verified for all (n, j), 3 <= n <= 11",
    "08": "BSpin_2..7 Hilbert series match the stated free algebras",
    "09": "G2 Gysin consistency checks",
    "10": "Groebner membership vs Macaulay-matrix oracle, 200 random ideals",
    "11": "regularity verdict invariant under permutation, 100 sequences",
}

_results = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if "test_acceptance" not in report.nodeid or not name.startswith("test_criterion_"):
        return
    key = name[len("test_criterion_"):][:2]
    if report.when == "call":
        _results[key] = "PASS" if report.passed else "FAIL"
    elif report.failed:
        _results[key] = "FAIL"
    elif report.skipped:
        _results[key] = "SKIP"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_CRITERIA):
        status = _results.get(key, "NOT RUN")
        terminalreporter.write_line(f"[{status}] criterion {key}: {_CRITERIA[key]}")
