"""Modules of the package call one another only through public names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eqtracer"

# (importing module, private name): the market's CES kernel behind Newton's
# evaluations.  Exact, so an exception that is no longer used fails too.
ALLOWED = {("equilibrium", "_ces_weights")}


def private_imports():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            internal = isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("eqtracer")
            )
            if internal:
                found.update((path.stem, a.name) for a in node.names if a.name.startswith("_"))
    return found


def test_modules_import_no_private_names_from_one_another():
    assert private_imports() == ALLOWED
