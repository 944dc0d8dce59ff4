"""Rules that every module of the library keeps, read from its syntax tree:

- no `assert` statement: ``python -O`` strips them, so a check must raise
  explicitly;
- no import outside the standard library and `antalg` itself: the library
  has no runtime dependencies;
- the coboundary formulas name no exact scalar: every scalar comes from
  their `DeltaContext`, so the one definition of delta serves both the
  exact context and the integer one of the matrix assembly.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "antalg"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.rglob("*.py"))}


def _imported_roots(tree):
    """(line, top-level module) of every absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_the_rules_see_every_module():
    assert {"__init__.py", "cli.py", "cohomology.py", "core.py",
            "zoo.py"} <= set(TREES)


def test_no_module_checks_with_assert():
    found = [(name, node.lineno) for name, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_imports_outside_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"antalg"}
    found = [(name, line, root) for name, tree in TREES.items()
             for line, root in _imported_roots(tree) if root not in allowed]
    assert found == []


def test_the_coboundary_formulas_take_every_scalar_from_their_context():
    functions = {node.name: node
                 for node in ast.walk(TREES["cohomology.py"])
                 if isinstance(node, ast.FunctionDef)}
    exact = {"Fraction", "HALF", "ONE"}
    found = [(name, node.lineno)
             for name in ("delta10_terms", "delta01_terms", "delta_12_terms",
                          "delta_instance")
             for node in ast.walk(functions[name])
             if getattr(node, "id", getattr(node, "attr", None)) in exact]
    assert found == []
