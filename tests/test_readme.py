"""The README's Python examples run, in order, against the library as it is."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_python_examples_run():
    # later examples use names an earlier one defines (``scenario``, ``run``),
    # so they share one namespace, as a reader's session would
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 3
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue()
