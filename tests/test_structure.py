"""The module graph of ebib, read from the source with ``ast``.

Every ebib import sits at module level, so a module's header lists what it
depends on, and those imports form a DAG (names needed only by annotations
are imported under ``if TYPE_CHECKING:``).  Deferred ``scipy`` imports inside
functions stay allowed: they keep ``import ebib.cli`` free of scipy.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import ebib

SRC = Path(ebib.__file__).resolve().parent
MODULES = {p.stem for p in SRC.glob("*.py")}


def _imports(node, in_function=False, type_checking=False):
    """Yield (import node, inside a function, under ``if TYPE_CHECKING:``)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, in_function, type_checking
        yield from _imports(
            child,
            in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)),
            type_checking or (isinstance(child, ast.If)
                              and ast.unparse(child.test) == "TYPE_CHECKING"),
        )


def _targets(node):
    """The ebib modules an import loads, by file stem ("__init__" for the package)."""
    if isinstance(node, ast.Import):
        return [name.partition(".")[2] or "__init__" for name in
                (a.name for a in node.names) if name.partition(".")[0] == "ebib"]
    if node.level == 0:
        package, _, module = (node.module or "").partition(".")
        if package != "ebib":
            return []
    else:
        module = node.module or ""
    if module:
        return [module.partition(".")[0]]
    return [a.name if a.name in MODULES else "__init__" for a in node.names]


def _scan():
    """{module: [(import node, in function, type checking)]} over src/ebib."""
    return {p.stem: list(_imports(ast.parse(p.read_text(), str(p))))
            for p in sorted(SRC.glob("*.py"))}


def test_no_ebib_import_inside_a_function():
    deferred = [f"{module}.py:{node.lineno}"
                for module, found in _scan().items()
                for node, in_function, _ in found
                if in_function and _targets(node)]
    assert deferred == []


def test_module_level_ebib_imports_form_a_dag():
    graph = {module: {t for node, in_function, type_checking in found
                      if not (in_function or type_checking) for t in _targets(node)}
             for module, found in _scan().items()}
    assert graph["cli"]  # the scan sees relative imports
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as err:
        raise AssertionError(f"import cycle: {' -> '.join(err.args[1])}") from None
    assert set(order) == MODULES
