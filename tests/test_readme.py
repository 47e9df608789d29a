"""Every example in README.md: the `$ ribbonops ...` commands through the CLI
and the `>>>` Python quick start as a doctest.

A command's expected output is the lines below it, up to the next example
or the closing fence.  Timings such as "(0.08s)" are masked on both sides.
An expected output that starts with "error:" is compared with stderr, and
the example must exit 2; any other is compared with stdout and must exit 0.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from ribbonops.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ ribbonops "
_TIMING = re.compile(r"\d+\.\d+s\)")


def _examples():
    lines = README.read_text().splitlines()
    found = []
    for i, line in enumerate(lines):
        if not line.startswith(PROMPT):
            continue
        want = []
        for nxt in lines[i + 1:]:
            if nxt.startswith("$ ") or nxt.startswith("```"):
                break
            want.append(nxt)
        found.append((line[len(PROMPT):], want))
    return found


EXAMPLES = _examples()


def _mask(text):
    return _TIMING.sub("N.NNs)", text)


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 17


@pytest.mark.parametrize("command, want", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, want):
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    expected = "".join(line + "\n" for line in want)
    if want and want[0].startswith("error:"):
        assert (code, captured.out) == (2, "")
        assert captured.err == expected
    else:
        assert (code, captured.err) == (0, "")
        assert _mask(captured.out) == _mask(expected)


def test_python_quick_start():
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "quick start", str(README), 0)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted == 7
    assert result.failed == 0, "".join(report)
