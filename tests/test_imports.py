"""Guards on what the package imports.

Importing ``skewtor`` is most of the set-up time of a run, so a new
dependency, even from the standard library, has to be added here on purpose,
and reading a presentation must not load the solver.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "skewtor"

ALLOWED = {
    "__future__",
    "argparse",
    "contextlib",
    "contextvars",
    "dataclasses",
    "fractions",
    "importlib",
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


# modules that parsing a presentation has no use for
SOLVER_SIDE = ["dataclasses", "inspect", "skewtor.orechain", "skewtor.ore", "skewtor.report"]

SETUP = """
import json, sys
sys.path.insert(0, sys.argv[1])
import skewtor
from skewtor.presentation import load_presentation
load_presentation(sys.argv[2])
loaded = [m for m in sys.argv[3:] if m in sys.modules]
print(json.dumps([loaded, skewtor.run_all.__module__, "run_all" in dir(skewtor)]))
"""


def test_reading_a_presentation_loads_no_solver_module():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP, str(SRC.parent), str(ROOT / "presentations" / "qmat3.json"),
         *SOLVER_SIDE],
        capture_output=True,
        text=True,
        check=True,
    )
    # the exports still resolve, on first access
    assert json.loads(proc.stdout) == [[], "skewtor.orechain", True]


def test_every_export_resolves_to_its_submodule_binding():
    import importlib

    import skewtor

    assert set(skewtor.__all__) <= set(dir(skewtor))
    for name, module in skewtor._SOURCE.items():
        assert getattr(skewtor, name) is getattr(importlib.import_module(f"skewtor.{module}"), name)
        assert name not in vars(skewtor)  # looked up on each access, never stored
