"""The module graph of ebib, read from the source with ``ast``.

Every ebib import sits at module level, so a module's header lists what it
depends on, and those imports form a DAG (names needed only by annotations
are imported under ``if TYPE_CHECKING:``).  Deferred ``scipy`` imports inside
functions stay allowed: they keep ``import ebib.cli`` free of scipy.

The model families of ``models.py`` are read the same way: a capability is a
method that answers or raises ``CapabilityError``, never a class-level flag.
And every function, method and class that ebib defines is used by ebib
itself, or is public API named in ``PUBLIC``; no module-level function only
forwards its arguments to a method of its first one, except those named in
``FORWARDERS``; and no code outside ``FAMILY_ID_BRANCHES`` compares a
family's ``id``: a family answers through its methods, not through an
``if family.id == ...`` chain.
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


def _family_classes(tree):
    """The class definitions of ``ModelFamily`` and of its subclasses, direct
    or indirect, in one module."""
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    family = {"ModelFamily"}
    grown = True
    while grown:
        found = {name for name, node in classes.items()
                 if any(isinstance(b, ast.Name) and b.id in family for b in node.bases)}
        grown = not found <= family
        family |= found
    return [classes[name] for name in sorted(family) if name in classes]


def _class_level_booleans(cls):
    for stmt in cls.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            if isinstance(stmt.value, ast.Constant) and type(stmt.value.value) is bool:
                yield stmt


def test_model_families_set_no_class_level_flag():
    tree = ast.parse((SRC / "models.py").read_text())
    families = _family_classes(tree)
    assert {"ModelFamily", "NormalMean", "OverfittedMixture"} <= {c.name for c in families}
    flags = [f"{cls.name}: {ast.unparse(stmt)}" for cls in families
             for stmt in _class_level_booleans(cls)]
    assert flags == []


# defined in src/ebib, used by no code there, and kept as public API
PUBLIC = {
    # family and posterior evaluators
    "log_prior": "the prior log-density of the family interface",
    "logpdf": "GaussianPosterior's log-density, beside pdf",
    "beta_marginal": "a coefficient marginal of the M3 posterior",
    "sigma2_mean": "the posterior mean of the M3 noise variance",
    # README's CSV contracts
    "to_csv": "the KL profile, merging report and chain dump writers",
    "MergingReport": "the merging report rows",
    "load_dataset_csv": "the regression dataset loader",
    "load_counts_csv": "the Markov transition counts loader",
    # the paper's quantities that no experiment prints yet
    "predicted_l1_predictive": "the first-order L1 between posterior predictives",
    "l1_gaussian_equal_var": "the closed-form Gaussian L1, until it replaces "
                             "the quadrature of l1_distance",
    # called by numpy, not by ebib
    "generate_state": "numpy's ISeedSequence protocol, which PCG64 calls",
    # the north star's seven families, though no experiment runs M2 or M6
    "IndepNormalRegression": "the M2 family",
    "GaussMixtureKnownK": "the M6 family",
    "gibbs_gauss_mixture": "README's M6 sampler, which draws that family's posterior",
}


def _unused_definitions():
    """Functions, methods and classes that src/ebib defines and nowhere uses.
    A method (a function in a class body) counts as used only where ebib reads
    its name as an attribute (``x.name``), so a local variable or a module of
    the same name does not use it; any other definition also counts as used
    where its name appears bare.  Imports do not count."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, free, names, attributes = {}, set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {stmt for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for stmt in node.body if isinstance(stmt, functions)}
        for node in ast.walk(tree):
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.stem}.py:{node.lineno}")
                if node not in methods:
                    free.add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    used = attributes | (names & free)
    return {name: where for name, where in defined.items()
            if name not in used and not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_is_used_or_public():
    unused = _unused_definitions()
    assert {k: v for k, v in unused.items() if k not in PUBLIC} == {}
    # an entry for a name that ebib uses or no longer defines is stale
    assert set(PUBLIC) == set(unused)


# module-level functions that only call a method of their first parameter,
# kept as they are
FORWARDERS = {
    "marginal.log_marginal": "perfbench's tracer self-test asserts that this "
                             "binding is patched in cli, kl and mmle",
}


def _forwards(fn):
    """Whether ``fn`` is ``return a.method(b, c, ...)`` (after any docstring)
    for its parameters a, b, c, ... passed through unchanged."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
    if len(body) != 1 or not isinstance(body[0], ast.Return) or not params:
        return False
    call = body[0].value
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name) and call.func.value.id == params[0]):
        return False
    passed = list(call.args) + [k.value for k in call.keywords]
    return (all(isinstance(v, ast.Name) for v in passed)
            and sorted(v.id for v in passed) == sorted(params[1:]))


def test_no_function_only_forwards_to_a_method_of_its_first_argument():
    found = {f"{path.stem}.{node.name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text(), str(path)).body
             if isinstance(node, ast.FunctionDef) and _forwards(node)}
    assert found - set(FORWARDERS) == set()
    # an entry for a function that no longer forwards is stale
    assert set(FORWARDERS) == found


# functions that compare a family's ``id`` once, kept as they are
FAMILY_ID_BRANCHES = {
    "mmle.mmle_continuous": "holds the M4 row search, which ROADMAP item 2 "
                            "replaces; perfbench's self-test counts that "
                            "search's iterations through mmle_continuous",
}


def _id_comparisons(tree, module):
    """``module.function`` (or ``module`` at top level) for each comparison
    with an ``x.id`` operand, one entry per comparison."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Compare) and any(
                isinstance(e, ast.Attribute) and e.attr == "id"
                for e in (node.left, *node.comparators)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return found


def test_no_branch_on_a_family_id():
    found = [where for path in sorted(SRC.glob("*.py"))
             for where in _id_comparisons(ast.parse(path.read_text(), str(path)), path.stem)]
    assert [where for where in found if where not in FAMILY_ID_BRANCHES] == []
    # one comparison per entry; an entry for a function that no longer
    # compares an id is stale
    assert sorted(found) == sorted(FAMILY_ID_BRANCHES)


def test_id_comparisons_see_every_operand_position():
    tree = ast.parse("def f(fam):\n    return 'M4' != fam.id\n"
                     "class C:\n    def g(self, fam):\n        return fam.id in ('M1',)\n"
                     "x = 1 < 2\n")
    assert _id_comparisons(tree, "m") == ["m.f", "m.C.g"]
