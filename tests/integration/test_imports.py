"""Import guards.

Every module under ``src/repro`` and ``tests`` (package ``__init__.py``
files aside, since they import to re-export) must mention each name it
imports somewhere outside the import statement itself.  The check is
textual on purpose: a name used only in a string annotation, such as
``"Recorder | None"``, counts as used.

The serve stack must also stay light: importing ``repro.serve`` loads
neither the experiment suite nor numpy.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def modules() -> list[pathlib.Path]:
    files = [*(ROOT / "src" / "repro").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    return sorted(path for path in files if path.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each imported name the rest of ``source`` never
    mentions."""
    lines = source.splitlines()
    unused = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno:])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and not re.search(rf"\b{re.escape(name)}\b", rest):
                unused.append((alias.lineno, name))
    return unused


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in modules()
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_guard_sees_an_unused_name():
    source = (
        "from typing import Callable, Iterator\n"
        "import os.path\n"
        "def f(x: \"Iterator[int]\"):\n"
        "    return x\n"
    )
    assert unused_imports(source) == [(1, "Callable"), (2, "os")]


def test_serve_imports_neither_the_experiment_suite_nor_numpy():
    code = (
        "import json, sys\n"
        "import repro.serve\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
    )
    loaded = json.loads(out.stdout)
    assert "repro.serve" in loaded
    heavy = [
        name for name in loaded
        if name == "numpy" or name.startswith(("numpy.", "repro.experiments"))
    ]
    assert not heavy, heavy
