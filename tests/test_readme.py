"""The README's library tour, run as a doctest so that it cannot drift."""

import doctest
import re
from pathlib import Path

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
