"""A ratchet on the package's small float literals.

Every float literal in src/newton2d below 1e-6 is a tolerance: it decides
what passes a check or a branch.  Each one is listed below, keyed by module
and by its enclosing def or constant name (not by line number, so edits
elsewhere leave the key alone), with where its derivation is written or,
where none is written yet, "tuned: ROADMAP direction 11".  A new literal
fails this test until it is listed, and a listed one that goes must leave
the list too.
"""

import ast
from pathlib import Path

import newton2d

_TUNED = "tuned: ROADMAP direction 11"

_TOLERANCES = [
    ("cli", "run", 1e-9, _TUNED + " (the Monte Carlo check's floor, 1e-9 * r)"),
    ("extremal", "CLASSIFY_TOL", 1e-9, _TUNED),
    ("extremal", "stationary_slopes", 1e-13, _TUNED + " (no roots above the peak)"),
    ("extremal", "stationary_slopes", 1e-13, _TUNED + " (the double root at the peak)"),
    ("geometry", "_SLOPE_TOL", 1e-12, _TUNED),
    ("montecarlo", "reflect", 1e-9, _TUNED + " (the unit-norm check)"),
    ("montecarlo", "single_collision_check", 1e-9, "ray_tol: its docstring, a share of the particles"),
    ("oracle", "_grid_extent", 1e-12, _TUNED),
]


def _small_literals(tree, module):
    # (module, scope, value) for each float literal in (0, 1e-6); the scope
    # is the innermost def or class, or the module-level name assigned
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name
            elif scope is None and isinstance(child, (ast.Assign, ast.AnnAssign)):
                target = child.targets[0] if isinstance(child, ast.Assign) else child.target
                inner = target.id if isinstance(target, ast.Name) else None
            if isinstance(child, ast.Constant) and type(child.value) is float and 0.0 < child.value < 1e-6:
                found.append((module, scope, child.value))
            visit(child, inner)

    visit(tree, None)
    return found


def test_every_small_float_literal_is_listed_with_its_derivation():
    package = Path(newton2d.__file__).parent
    found = [
        literal
        for path in sorted(package.glob("*.py"))
        for literal in _small_literals(ast.parse(path.read_text()), path.stem)
    ]
    assert sorted(found) == sorted(row[:3] for row in _TOLERANCES)

