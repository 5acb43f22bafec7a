"""Every function under ``src/setcons`` is one that the package runs.

A probe enters the package the way it is used: all five subcommands in
both formats on ``samples/``, a seeded random-start simulation, an inline
system with ``\\`` and ``^``, malformed inputs, usage errors, a
``SETCONS_CAPS`` cap hit and the README's library sketch.  It runs in a
fresh interpreter under ``sys.setprofile`` and prints every function of
``src/setcons`` that was never entered.  A function may stay unentered only
with its reason in :data:`UNENTERED`; anything else is moved into
``tests/oracles.py`` or deleted.

``python tests/test_reachable.py`` prints the unentered functions.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "setcons"

UNENTERED = {
    "expr.SetMap.__getnewargs__": "runs when a map is copied or pickled (tests/test_values.py); the package "
                                  "does neither",
}

INLINE = (
    "universe [0,10]\nconst C = [2,4] | [6,8]\nstate A = [0,5]\nstate B = (3,9]\n"
    "rule A = (A \\ B) ^ C\nrule B = A ^ ~B\n"
)
MALFORMED = (
    "universe [0,1]\nstate A = [0,3]\nrule A = A\n",  # a set escaping the universe
    "universe [0,1]\nstate A = [0,1]\nrule A = A &\n",  # an expression cut short
    "universe [0,1]\rstate A = [0,1]\rrule A = A",  # a lone carriage return
    "universe [0,٣]\n",  # a digit outside ASCII
)
USAGE_ERRORS = ([], ["simulate", "F", "--rounds", "x"])


def functions() -> dict[tuple[str, int], str]:
    """Every ``def`` under ``src/setcons``, keyed by its file and first line
    (the first decorator's, as in its code object), with its dotted name."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        todo = [(ast.parse(path.read_text(encoding="utf-8")), path.stem + ".")]
        while todo:
            node, prefix = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = prefix + child.name
                    todo.append((child, prefix + child.name + "."))
                elif isinstance(child, ast.ClassDef):
                    todo.append((child, prefix + child.name + "."))
                else:
                    todo.append((child, prefix))
    return out


def probe() -> list[str]:
    """The names of the functions the uses above never enter, sorted."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from test_readme import library_sketch

    sketch = library_sketch()
    sys.setprofile(profile)
    try:
        from setcons import cli

        with tempfile.TemporaryDirectory() as tmp:
            def write(name: str, text: str) -> str:
                path = os.path.join(tmp, name)
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
                return path

            files = [str(p) for p in sorted((ROOT / "samples").glob("*.sbm"))] + [write("inline.sbm", INLINE)]
            runs = [[command, path, "--format", form]
                    for path in files
                    for command in ("analyze", "simulate", "encode", "consensus", "equilibria")
                    for form in ("json", "text")]
            runs += [["simulate", path, "--random-init", "--seed", "5"] for path in files]
            runs += [["analyze", write(f"bad{i}.sbm", text)] for i, text in enumerate(MALFORMED)]
            runs += list(USAGE_ERRORS)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                for argv in runs:
                    with contextlib.suppress(SystemExit):
                        cli.main(argv)
                os.environ["SETCONS_CAPS"] = "enumeration=2"
                cli.main(["equilibria", files[0]])
            exec(compile(sketch, "README.md", "exec"), {})
    finally:
        sys.setprofile(None)
    return sorted(name for key, name in functions().items() if key not in entered)


def test_every_function_is_entered():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SETCONS_CAPS", None)
    done = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == sorted(UNENTERED)


def test_every_exception_names_a_function():
    assert set(UNENTERED) <= set(functions().values())


if __name__ == "__main__":
    print(json.dumps(probe()))
