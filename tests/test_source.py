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


def _called_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def test_no_surface_certifies_through_a_seam_table():
    # a built surface certifies on its integer layout (``_certify(_layout(s), ...)``);
    # ``certify_glued`` is for foreign seam tables, never for ``lower(s)``
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _called_name(node) == "certify_glued"
        and any(_called_name(arg) == "lower" for arg in (*node.args, *(k.value for k in node.keywords)))
    ]
    assert found == []


def _self_recursive(name: str) -> list[str]:
    """Functions of ``src/flattree/<name>`` that call themselves by name."""
    tree = ast.parse((SOURCE / name).read_text())
    return sorted(
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_called_name(node) == fn.name for node in ast.walk(fn))
    )


def test_halftree_does_not_recurse():
    # trees of 10**4 cylinders run under the default recursion limit
    # _entry_seqs recurses on the port count, which the enumeration guard bounds
    assert _self_recursive("halftree.py") == ["_entry_seqs"]


def test_lemmas_do_not_recurse():
    # every lemma sweep is one depth-first walk on an explicit stack
    assert _self_recursive("lemmas.py") == []
