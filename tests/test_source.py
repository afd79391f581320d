"""Static checks on the library source."""

import ast
import re
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


def _float_uses(tree: ast.AST) -> list[int]:
    """Lines of ``tree`` that name ``float`` or hold a float literal."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "float")
        or (isinstance(node, ast.Constant) and type(node.value) is float)
    )


def test_no_floats():
    # every quantity is exact: a Fraction, an int or a string
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        for line in _float_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_float_guard_sees_each_kind():
    snippet = "\n".join(["x: float", "y = 0.5", "z = float(s)", "w = 1e3", "n = 5", "s = 'float'"])
    assert _float_uses(ast.parse(snippet)) == [1, 2, 3, 4]


def _called_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _calls_outside(tree: ast.AST, name: str, owner: str | None) -> list[int]:
    """Lines of ``tree`` that call ``name`` outside the function ``owner`` (anywhere, if None)."""
    allowed = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == owner
        for node in ast.walk(fn)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if _called_name(node) == name and id(node) not in allowed
    )


def _unnamed_exports(init: ast.AST, modules: list[ast.AST], bench: list[ast.AST], readme: str) -> list[str]:
    """Names ``init`` imports that no module, benchmark script or README names.

    A module or benchmark script names one as an ``ast`` name, attribute or
    imported alias; the README names one as a whole word.
    """
    exported = [
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    named = set(re.findall(r"\w+", readme))
    for tree in [*modules, *bench]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias) and tree in bench:
                named.add(node.asname or node.name)
    return sorted(name for name in exported if name not in named)


def test_every_public_name_has_a_reader():
    # no public API that nothing uses: each name ``flattree`` exports is read
    # by another module of the package, driven by the benchmark, or documented
    modules = [ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"]
    bench = [ast.parse(path.read_text()) for path in sorted((SOURCE.parents[1] / "perfbench").glob("*.py"))]
    assert modules and bench
    readme = (SOURCE.parents[1] / "README.md").read_text()
    init = ast.parse((SOURCE / "__init__.py").read_text())
    assert _unnamed_exports(init, modules, bench, readme) == []


def test_public_name_guard_sees_each_kind_of_reader():
    init = ast.parse(
        "\n".join(
            [
                "from .surface import build, area, with_marks, lower",
                "from .cover import pullback, quotient_to_json",
                "from .cli import SCHEMA_NAMES, main as cli_main",
            ]
        )
    )
    module = ast.parse("from .surface import lower\ns = build(t, lengths)\nx = surface.area(s)")
    bench = ast.parse("from flattree import pullback\nimport flattree as ft\nft.quotient_to_json(r)")
    readme = "Use `with_marks(s, marks)`; `flattree.SCHEMA_NAMES` lists the schemas; `cli_main_x` is no name."
    # an import in a module is no reader: ``lower`` is only imported there
    assert _unnamed_exports(init, [module], [bench], readme) == ["cli_main", "lower"]


def _self_recursive(name: str) -> list[str]:
    """Functions of ``src/flattree/<name>`` that call themselves by name."""
    return _recursive_functions(ast.parse((SOURCE / name).read_text()))


def _recursive_functions(tree: ast.AST) -> list[str]:
    """Functions of ``tree`` that call themselves by name."""
    return sorted(
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_called_name(node) == fn.name for node in ast.walk(fn))
    )


def test_halftree_does_not_recurse():
    # trees of 10**4 cylinders run under the default recursion limit, and the
    # entry grammar of the enumeration is filled bottom-up
    assert _self_recursive("halftree.py") == []


def test_lemmas_do_not_recurse():
    # every lemma sweep is one depth-first walk on an explicit stack
    assert _self_recursive("lemmas.py") == []


# the only functions that call themselves, each with what bounds its depth
_RECURSION_BOUNDS = {
    ("cli.py", "_jsonable"): "the nesting depth of library output",
}


def test_no_module_recurses_outside_the_bounded_exemptions():
    # surfaces of 10**4 cylinders run under the default recursion limit
    files = sorted(SOURCE.glob("*.py"))
    assert {"flow.py", "surface.py", "collapse.py", "cover.py", "deform.py"} <= {f.name for f in files}
    found = {(path.name, fn) for path in files for fn in _self_recursive(path.name)}
    assert found == set(_RECURSION_BOUNDS)


def test_recursion_guard_sees_nested_and_method_calls():
    tree = ast.parse(
        "\n".join(
            [
                "def walk(n):",
                "    return [walk(k) for k in range(n)]",
                "class A:",
                "    def visit(self, x):",
                "        return self.visit(x - 1) if x else 0",
                "def flat(n):",
                "    return n",
            ]
        )
    )
    assert _recursive_functions(tree) == ["visit", "walk"]


# dicts of a CanonicalLabeling; canonical_form keeps one form per tree and
# hands the same object to every caller, so no caller may write into them
_SHARED_MAPS = {"port_map", "vertex_map", "rotation"}
_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update"}
# the slots in which a half-tree keeps its form and its derived tables
_KEPT_SLOTS = {"_canonical", "_stratum", "_all_ports", "_edges", "_half_edges", "_edge_objects"}


def _shared_form_writes(tree: ast.AST, may_keep: bool) -> list[int]:
    """Lines of ``tree`` that write into a kept canonical form or table.

    That is a store or ``del`` on ``x.port_map[...]``, ``x.vertex_map[...]`` or
    ``x.rotation[...]``, a mutating method called on one of those dicts, and,
    unless ``may_keep``, a store to one of a half-tree's kept slots.
    """

    def shared(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in _SHARED_MAPS

    lines = set()
    for node in ast.walk(tree):
        writes = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        if isinstance(node, ast.Subscript) and writes and shared(node.value):
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in _MUTATORS and shared(node.value):
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in _KEPT_SLOTS and writes and not may_keep:
            lines.add(node.lineno)
        elif (
            _called_name(node) in ("setattr", "__setattr__")
            and not may_keep
            and any(isinstance(a, ast.Constant) and a.value in _KEPT_SLOTS for a in node.args)
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_no_module_writes_into_a_kept_canonical_form():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        for line in _shared_form_writes(ast.parse(path.read_text()), path.name == "halftree.py")
    ]
    assert found == []


def test_kept_form_guard_sees_every_kind_of_write():
    snippet = "\n".join(
        [
            "lab.port_map[p] = 1",
            "cf.labelings[0].rotation[v] += 1",
            "del lab.vertex_map[v]",
            "lab.rotation.update({})",
            "t._canonical = None",
            "setattr(t, '_canonical', cf)",
            "rotation[v] = 0",
            "x = lab.port_map[p] + lab.vertex_map.get(v) + t._canonical",
            "t._edges = t._half_edges = ()",
            "del t._all_ports",
            "object.__setattr__(t, '_edge_objects', ())",
            "t._stratum, edges = None, t._edges",
            "x = t._stratum or t.edges() or t._all_ports",
        ]
    )
    assert _shared_form_writes(ast.parse(snippet), may_keep=False) == [1, 2, 3, 4, 5, 6, 9, 10, 11, 12]
    assert _shared_form_writes(ast.parse(snippet), may_keep=True) == [1, 2, 3, 4]


# each value a surface keeps has one maker, and every other reader takes it
# from there: (module, function) may call the kernel, and no other code may
_KEPT_MAKERS = {
    "_corner_walk": ("surface.py", "_corners"),
    "_profile_classes": ("surface.py", "_classes"),
}
# the kept layout is the only layout of a surface, and a walk reads it
_ONE_ARGUMENT = {"_layout", "_return_map"}


def _kept_value_misuses(tree: ast.AST, module: str) -> list[int]:
    """Lines of ``tree`` (the source of ``module``) that remake a kept value or pass a kept reader extra arguments."""
    lines = set()
    for name, (home, owner) in _KEPT_MAKERS.items():
        lines.update(_calls_outside(tree, name, owner if module == home else None))
    lines.update(
        node.lineno
        for node in ast.walk(tree)
        if _called_name(node) in _ONE_ARGUMENT and (len(node.args) != 1 or node.keywords)
    )
    return sorted(lines)


def test_kept_values_have_one_maker_and_one_argument_readers():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        for line in _kept_value_misuses(ast.parse(path.read_text()), path.name)
    ]
    assert found == []


def test_kept_value_guard_sees_each_kind():
    snippet = "\n".join(
        [
            "def _corners(s):",
            "    return _kept(s, '_walk', lambda: _corner_walk(_layout(s)))",
            "def _classes(s):",
            "    return _profile_classes(s.skeleton, _layout(s), _corners(s))",
            "def _cover_failures(source, lay):",
            "    walk = surface._corner_walk(lay)",
            "    src = _profile_classes(t, lay, walk)[0]",
            "    lay = _layout(source, (Fraction(1, 6),))",
            "    table = flow._return_map(s, extra=())",
            "    lay, table = _layout(), _return_map(s)",
        ]
    )
    tree = ast.parse(snippet)
    assert _kept_value_misuses(tree, "surface.py") == [6, 7, 8, 9, 10]
    # outside surface.py even the makers' own names may not call the kernels
    assert _kept_value_misuses(tree, "cover.py") == [2, 4, 6, 7, 8, 9, 10]


# ``tests/oracles.py`` is the layout-independent convention the integer kernels
# are checked against, so it may reach no kernel and no value a surface keeps
_KERNEL_NAMES = {
    "_layout",
    "_new_layout",
    "_convention",
    "_area",
    "_on",
    "_circles",
    "_seam_marks",
    "_certify",
    "_certified",
    # the mark checks of ``build`` that certification keeps
    "_unchecked_build_failure",
    "_corner_walk",
    "_corners",
    "_classes",
    "_weierstrass",
    "_kept",
    "_lay",
    "_cert",
    "_walk",
    # the closure check of the colored-tree walk
    "_closing_masks",
    # the string token maker and the flag search of canonical_form
    "_tokens",
    "_least_token_flags",
    # the surface methods that read positions off the kept layout
    "port_start",
    "top_start",
    "seam_sides",
}


def _kernel_references(tree: ast.AST) -> list[int]:
    """Lines of ``tree`` that name a kernel or a kept attribute, as a name, attribute, import or string."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in _KERNEL_NAMES:
            lines.add(node.lineno)
    return sorted(lines)


def test_oracles_reach_no_kernel_and_no_kept_value():
    oracles = Path(__file__).resolve().parent / "oracles.py"
    assert _kernel_references(ast.parse(oracles.read_text())) == []


def test_kernel_guard_sees_each_kind_of_reference():
    snippet = "\n".join(
        [
            "from flattree.surface import _layout",
            "lay = surface._certify(x, h)",
            "walk = _corner_walk(lay)",
            "lay = vars(s)['_lay']",
            "c = getattr(s, '_cert')",
            '"""A docstring that mentions _layout and _walk."""',
            "layout = lower(s)",
            "a, b = s.port_start(p), s.top_start(p)",
            "classes, stratum = surface._classes(s)",
            "report = vars(s).get('_weierstrass')",
            "token = halftree._tokens(t, index)",
            "code, flags = _least_token_flags(t, token)",
        ]
    )
    assert _kernel_references(ast.parse(snippet)) == [1, 2, 3, 4, 5, 8, 9, 10, 11, 12]


def _unused_imports(tree: ast.AST) -> list[str]:
    """``line:name`` of each name ``tree`` imports but never reads (``__future__`` features aside)."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{line}:{name}" for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    # __init__.py imports only to re-export
    found = [
        f"{path.name}:{entry}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "__init__.py"
        for entry in _unused_imports(ast.parse(path.read_text()))
    ]
    assert found == []


def test_import_guard_sees_each_kind_of_import():
    snippet = "\n".join(
        [
            "from __future__ import annotations",
            "import os.path",
            "import json as js",
            "from typing import Iterator, Mapping",
            "from .surface import area",
            "def f(m: Mapping) -> None:",
            "    from bisect import bisect_left",
            "    return os.path.join(area.__name__)",
        ]
    )
    assert _unused_imports(ast.parse(snippet)) == ["3:js", "4:Iterator", "7:bisect_left"]


def _hand_scalings(tree: ast.AST) -> list[int]:
    """Lines of ``tree``, outside ``_on``, that scale a fraction by hand.

    That is ``x.numerator * (D // x.denominator)``, with its factors either
    way round and inside any product, or ``x.numerator * D // x.denominator``.
    """

    def attr(node: ast.AST, name: str) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == name

    def product(node: ast.AST) -> bool:
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)

    def has_numerator_factor(node: ast.AST) -> bool:
        while product(node) and not attr(node.right, "numerator"):
            node = node.left
        return attr(node.right, "numerator") if product(node) else attr(node, "numerator")

    def floor_by_denominator(node: ast.AST) -> bool:
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv) and attr(node.right, "denominator")

    allowed = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_on"
        for node in ast.walk(fn)
    }
    lines = set()
    for node in ast.walk(tree):
        if id(node) in allowed or not isinstance(node, ast.BinOp):
            continue
        if product(node) and any(
            has_numerator_factor(a) and floor_by_denominator(b)
            for a, b in ((node.left, node.right), (node.right, node.left))
        ):
            lines.add(node.lineno)
        elif floor_by_denominator(node) and product(node.left) and has_numerator_factor(node.left):
            lines.add(node.lineno)
    return sorted(lines)


def _port_sums(tree: ast.AST) -> list[str]:
    """``function:line`` of each ``sum`` over a comprehension that runs through ``….ports(…)``."""
    found = []
    stack: list[tuple[ast.AST, str | None]] = [(tree, None)]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (
            _called_name(node) == "sum"
            and node.args
            and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
            and any(_called_name(g.iter) == "ports" for g in node.args[0].generators)
        ):
            found.append((node.lineno, f"{where}:{node.lineno}"))
        stack.extend((child, where) for child in ast.iter_child_nodes(node))
    return [entry for _, entry in sorted(found)]


# a circumference is summed from the lengths only by the public method and by
# ``build``'s twist reduction, which runs before a layout exists; every other
# reader takes it off the layout
_PORT_SUMS = {("surface.py", "circumference"), ("surface.py", "build")}


def test_one_scaler_and_no_length_sum_outside_the_two_owners():
    # ``surface._on`` is the one place a fraction is put on an integer scale
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        for line in _hand_scalings(ast.parse(path.read_text()))
    ]
    found += [
        f"{path.name}:{entry}"
        for path in sorted(SOURCE.glob("*.py"))
        for entry in _port_sums(ast.parse(path.read_text()))
        if (path.name, entry.split(":")[0]) not in _PORT_SUMS
    ]
    assert found == []


def test_scaling_and_port_sum_guards_see_each_kind():
    snippet = "\n".join(
        [
            "def _on(x, D):",
            "    return x.numerator * (D // x.denominator)",
            "def area(s):",
            "    n = x.numerator * (D // x.denominator)",
            "    h = s.heights[v].numerator * H // s.heights[v].denominator",
            "    k = (D // x.denominator) * x.numerator",
            "    a = L[v] * h.numerator * (H // h.denominator)",
            "    keep = (p.denominator - p.numerator) * (B // p.denominator)",
            "    f = x.numerator // x.denominator",
            "    L = {v: sum(scaled[p] for p in t.ports(v)) for v in t.vertices}",
            "    return sum([h[v] for v in t.vertices])",
            "class S:",
            "    def circumference(self, v):",
            "        return sum((self.lengths[p] for p in self.skeleton.ports(v)), 0)",
        ]
    )
    tree = ast.parse(snippet)
    # ``keep`` is ``(1 - p) * B`` on the parts of ``p``, and ``f`` a floor, not scalings
    assert _hand_scalings(tree) == [4, 5, 6, 7]
    assert _port_sums(tree) == ["area:10", "circumference:14"]
