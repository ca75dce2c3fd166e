"""The README's library tour and sample outputs, run so that they cannot drift."""

import doctest
import re
import shlex
from pathlib import Path

from slnbranch.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour():
    # Only the ```python block: its closing fence sits right under the last
    # expected output, where `doctest.testfile` would read it as output.
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    assert len(test.examples) == 9
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def test_sample_outputs(capsys):
    # Each `$ slnbranch ...` line of the block, then the lines it prints.
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^Sample outputs:\n\n```\n(.*?)^```$", text, re.S | re.M)
    samples = re.findall(r"^\$ (.*)\n((?:[^$].*\n)*)", block, re.M)
    assert len(samples) == 2
    for command, expected in samples:
        program, *argv = shlex.split(command)
        assert program == "slnbranch"
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
