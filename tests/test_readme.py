"""README's library examples run as written: the ```python blocks under
"## Library use", in one namespace, print what their comments say, so an
example that names a removed entry point fails the suite."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_examples() -> list[str]:
    """The python blocks of the "## Library use" section, in order."""
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_examples_print_what_they_say():
    blocks = library_examples()
    assert len(blocks) == 3
    out, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == ["[ True  True]", "2.0", "(1, 5, 5) True",
                                           "sasakian", "True"]
