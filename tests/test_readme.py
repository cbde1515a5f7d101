"""Run the examples of README.md: the ``>>>`` lines as doctests, and the
``$ subtlesw ...`` lines of ``console`` blocks through ``cli.main``.

Every line outside a fenced ``python`` block is blanked, fences included,
so a closing fence is never taken for expected output and failures report
README line numbers.
"""

import doctest
import shlex
from pathlib import Path

from subtlesw import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text):
    out, inside = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            inside = line == "```python"
            line = ""
        out.append(line if inside else "")
    return "\n".join(out)


def test_readme_examples():
    text = _python_blocks(README.read_text(encoding="utf-8"))
    test = doctest.DocTestParser().get_doctest(text, {}, "README.md", str(README), 0)
    assert len(test.examples) > 10
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} README examples failed"


def _console_examples(text):
    """(line number, command, expected output) per ``$`` line of a ``console`` block."""
    examples, inside, want = [], False, None
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("```"):
            inside, want = line == "```console", None
        elif inside and line.startswith("$ "):
            want = []
            examples.append((number, line[2:], want))
        elif want is not None:
            want.append(line)
    return [(number, command, "\n".join(want).strip() + "\n") for number, command, want in examples]


def test_readme_console_examples(capsys):
    examples = _console_examples(README.read_text(encoding="utf-8"))
    assert len(examples) >= 4
    checker = doctest.OutputChecker()
    flags = doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE
    for number, command, want in examples:
        prog, *argv = shlex.split(command)
        assert prog == "subtlesw", f"README.md line {number}: {command}"
        code = cli.main(argv)
        got = capsys.readouterr().out
        assert code == 0, f"README.md line {number}: {command} exited {code}"
        assert checker.check_output(want, got, flags), f"README.md line {number}: {command}\n{got}"
