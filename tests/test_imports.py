"""Static guard on what the package imports from outside itself.

Importing ``skewtor`` is most of the set-up time of a run, so a new
dependency, even from the standard library, has to be added here on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "skewtor"

ALLOWED = {
    "__future__",
    "argparse",
    "contextlib",
    "contextvars",
    "dataclasses",
    "fractions",
    "json",
    "math",
    "operator",
    "os",
    "re",
    "sys",
    "typing",
}


def absolute_imports(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return found


def test_absolute_imports_are_the_pinned_stdlib_set():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    used = set().union(*(absolute_imports(p) for p in sources))
    assert used == ALLOWED
