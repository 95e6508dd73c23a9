"""No floating point on the computational path: no module of the package
names `float` or holds a float literal. (The display roots of
`riley.approx_real_roots` become floats only through one integer division
at the very end.)"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "knotmeta").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_in_source(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "float")
        or (isinstance(node, ast.Constant) and isinstance(node.value, float))
    ]
    assert not lines, f"{path.name}: float at line(s) {lines}"
