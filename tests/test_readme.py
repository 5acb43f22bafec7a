"""The README's library sketch runs as written, and its ``# True`` line holds."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch() -> str:
    """The ``python`` block of the README's ``## Library sketch`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs_and_its_true_line_holds():
    code = library_sketch()
    claims = [line.partition("#")[0].strip() for line in code.splitlines() if line.rstrip().endswith("# True")]
    assert claims
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    for claim in claims:
        assert eval(claim, namespace) is True
