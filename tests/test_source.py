"""Static checks on the library source."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "flattree"


def test_no_assert_statements():
    # python -O strips asserts, so no mathematical check may rest on one
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
