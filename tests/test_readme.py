"""Run the ``>>>`` examples of README.md as doctests.

Every line outside a fenced ``python`` block is blanked, fences included,
so a closing fence is never taken for expected output and failures report
README line numbers.
"""

import doctest
from pathlib import Path

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
