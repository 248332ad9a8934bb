"""Every import in the package modules is used, every private name is read,
every error class is raised, one tiler builds every 2x2 block matrix, and
the integer rule and the adjoint requirement are each stated once.

The toolchain has no linter, so this stands in for its unused-import and
dead-code rules.
``__init__.py`` is left out: its imports are re-exports, which
``test_package_all_is_sorted_and_complete`` pins.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "anumrad"


def _unused_imports(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.AnnAssign, ast.arg, ast.FunctionDef)):
            # names inside string annotations such as "Dict[str, CheckDef]"
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports_in_package_modules():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = [hit for path in modules for hit in _unused_imports(path)]
    assert unused == []


def _private_definitions(tree: ast.Module) -> dict:
    """Undecorated module-level ``_name`` definitions, by name and line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.decorator_list:
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in out.items()
            if name.startswith("_") and not name.startswith("__")}


def test_no_dead_private_names_in_package_modules():
    # the @_register check bodies are decorated, so only the registry reads them
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [f"{name}:{line} {private}" for name, tree in trees.items()
            for private, line in sorted(_private_definitions(tree).items())
            if private not in read]
    assert dead == []


def _error_classes(tree: ast.Module) -> list:
    """Classes of ``errors.py`` that derive from AnumradError, directly or not."""
    family = {"AnumradError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in family for b in node.bases):
            family.add(node.name)
    return sorted(family - {"AnumradError"})


def test_every_error_class_is_raised_in_the_package():
    # a public error class that nothing raises is dead weight: a caller that
    # catches it catches nothing
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.update(n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name))
    classes = _error_classes(ast.parse((SRC / "errors.py").read_text(encoding="utf-8")))
    assert len(classes) >= 7
    assert [name for name in classes if name not in raised] == []


def test_no_package_module_calls_np_block():
    # every 2x2 operator matrix is tiled by matrixcore.tile; tests may keep
    # np.block as an independent reference
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "block"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def _is_isinstance(node, classes) -> bool:
    """``node`` is ``isinstance(x, c)`` with ``c`` one of ``classes`` as
    written (a name, a dotted name, or a tuple of those)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    return ast.unparse(node.args[1]) in classes


def _integer_tests(tree: ast.Module) -> list:
    """Lines of ``isinstance(x, bool) or not isinstance(x, (int, np.integer))``,
    alone or inside a longer ``or``."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            if any(_is_isinstance(v, ("bool",)) for v in node.values) and any(
                    isinstance(v, ast.UnaryOp) and isinstance(v.op, ast.Not)
                    and _is_isinstance(v.operand, ("(int, np.integer)", "(int, numpy.integer)"))
                    for v in node.values):
                hits.append(node.lineno)
    return hits


def _raise_sites(tree: ast.Module, exc: str) -> list:
    """The innermost enclosing function of each ``raise`` that names ``exc``."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None and any(
                    isinstance(n, ast.Name) and n.id == exc for n in ast.walk(child.exc)):
                sites.append(function)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(tree, None)
    return sites


def _sites(find) -> list:
    return [f"{path.name}:{site}" for path in sorted(SRC.glob("*.py"))
            for site in find(ast.parse(path.read_text(encoding="utf-8")))]


def test_the_integer_rule_is_stated_once():
    # every integer argument goes through seeding.check_integer
    hits = _sites(_integer_tests)
    assert [hit.split(":")[0] for hit in hits] == ["seeding.py"], hits


def test_no_adjoint_is_raised_only_by_the_one_requirement():
    # adjoint.require_adjoint is the one Douglas requirement; the operand
    # admission catalog._Ctx.k re-raises its NoAdjoint only to name the operand
    assert _sites(lambda tree: _raise_sites(tree, "NoAdjoint")) == [
        "adjoint.py:require_adjoint", "catalog.py:k"]
