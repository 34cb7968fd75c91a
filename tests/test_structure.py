"""The module graph of ebib, read from the source with ``ast``.

Every ebib import sits at module level, so a module's header lists what it
depends on, and those imports form a DAG (names needed only by annotations
are imported under ``if TYPE_CHECKING:``).  A ``scipy`` import sits inside
the function that calls it, which keeps ``import ebib.cli`` free of scipy, and
only where ``SCIPY_IMPORTS`` names it with its reason.

The model families of ``models.py`` are read the same way: a capability is a
method that answers or raises ``CapabilityError``, never a class-level flag.
Every function and method that ebib defines runs in a run of the
experiments, and every class is named by ebib code, or ``REACHED_ONLY_BY_TESTS``
names it with the reason it stays; no module-level function only forwards its
arguments to a method of its first one, except those named in
``FORWARDERS``; and no code outside ``FAMILY_ID_BRANCHES`` compares a
family's ``id``: a family answers through its methods, not through an
``if family.id == ...`` chain.
"""

import ast
import importlib.util
import json
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import ebib
from ebib import cli
from ebib.cli import EXPERIMENTS, run_experiment, validate_config
from helpers import SMALL

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


# the functions of src/ebib that import scipy on call, and why each still does
SCIPY_IMPORTS = {
    "samplers.gibbs_lasso": "scipy.linalg.lapack: the Cholesky factor and the "
                            "triangular solves of each coefficient draw",
    "posteriors.NormalInverseGammaPosterior.beta_marginal":
        "scipy.stats: the Student-t coefficient marginal of the M3 posterior",
}


def _scipy_imports(tree, module):
    """``module.function`` (with enclosing classes) for each import of scipy
    or of one of its subpackages, one entry per import statement."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                [node.module or ""] * (node.level == 0)
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return found


def test_scipy_is_imported_only_where_scipy_imports_names_it():
    found = [where for path in sorted(SRC.glob("*.py"))
             for where in _scipy_imports(ast.parse(path.read_text(), str(path)), path.stem)]
    assert [where for where in found if where not in SCIPY_IMPORTS] == []
    # one import per entry; an entry for a function that no longer imports
    # scipy is stale
    assert sorted(found) == sorted(SCIPY_IMPORTS)


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


# What no run executes, and why it stays.  A run is every experiment at its
# `helpers.SMALL` size, plus `cli.main` on `run`, `validate` and
# `list-experiments`.  A key is ``module.qualname``: a function or method whose
# code no run executes (its nested functions go with it), or a class that no
# run enters (none of its methods runs) or that no ebib code names.
REACHED_ONLY_BY_TESTS = {
    # the north star's seven families, though no experiment runs M2, M3 or M6
    "models.IndepNormalRegression": "the M2 family (ROADMAP item 18 reaches it)",
    "models.GPriorRegression": "the M3 family (ROADMAP item 18 reaches it)",
    "models.GPriorParams": "M3's parameter point",
    "posteriors.NormalInverseGammaPosterior": "M3's conjugate posterior",
    "models.GaussMixtureKnownK": "the M6 family",
    "models._log_inv_gamma": "M6's prior on the component variances",
    "samplers.gibbs_gauss_mixture": "README's M6 sampler, which draws that family's posterior",
    # the capability contract: an optional evaluator answers or raises
    "models.ModelFamily.fisher_information": "raises CapabilityError where a family has none",
    "models.ModelFamily.posterior": "raises CapabilityError where a family has none",
    "models.ModelFamily.mle": "raises CapabilityError where a family has none",
    "models.ModelFamily.closed_form_mmle": "raises CapabilityError where a family has none",
    "models.ModelFamily.log_marginal": "raises CapabilityError where a family has none",
    "models.ModelFamily.simulate": "raises CapabilityError where a family has none",
    "models.ModelFamily.simulate_rows": "raises CapabilityError where a family has none",
    "models.ModelFamily.kl_exact": "raises CapabilityError where a family has none",
    "models.ModelFamily.predictive_score_l1": "raises CapabilityError where a family has none",
    # family evaluators that the experiments bypass and tests use as oracles
    "models.NormalMean.log_prior": "M1's prior, behind prior_gradient's finite differences",
    "models.NormalMean.mle": "M1's MLE, behind pseudo_hyperparameter",
    "models.NormalMean.predictive_score_l1": "M1's predictive score moment, for "
                                             "predicted_l1_predictive",
    "models.MarkovDirichlet.validate_hyperparam": "M4's K x K hyperparameter check",
    "models.MarkovDirichlet.log_likelihood": "M4's likelihood; markov-sparsity reads "
                                             "the counts through markov_log_marginal",
    "models.MarkovDirichlet.log_prior": "M4's prior, behind prior_gradient's finite differences",
    "models.MarkovDirichlet.prior_gradient": "M4's prior score, for the merging expansion",
    "models.MarkovDirichlet.log_marginal": "M4's closed-form marginal, on the family interface",
    "models.MarkovDirichlet.posterior": "M4's conjugate posterior, on the family interface",
    "models.DirichletRowsPosterior": "M4's conjugate posterior",
    "models._log_dirichlet": "the Dirichlet log-density of M4's and M7's priors",
    "models.BayesLasso.log_likelihood": "M5's likelihood; table1-lasso samples instead",
    "models.BayesLasso.log_prior": "M5's prior, behind prior_gradient's finite differences",
    "models.BayesLasso.prior_gradient": "M5's prior score, for the merging expansion",
    "models.BayesLasso.fisher_information": "M5's Fisher information, for the merging expansion",
    "models.BayesLasso.posterior": "M5's coordinate posteriors, on the family interface",
    "models._GaussianMixture.log_likelihood": "M6's and M7's likelihood; mixture-rate reweights "
                                              "sampler draws instead",
    "models.OverfittedMixture.log_prior": "M7's prior, behind prior_gradient's finite differences",
    "models.OverfittedMixture.prior_gradient": "M7's prior score, for the merging expansion",
    "models.OverfittedMixture.oracle_hyperparameter": "M7's boundary oracle, 0",
    "numerics.norm_logpdf": "the Normal log-density of the priors and the mixture "
                            "likelihood",
    "posteriors.GaussianPosterior.logpdf": "GaussianPosterior's log-density, beside pdf",
    "posteriors.PointMassPosterior": "the posterior at a boundary prior (M1 at lam = 0, "
                                     "M2 at tau2_j = 0), where no run's lam lands",
    "posteriors.GridPosterior.cdf": "the cdf of every posterior, as credible_discrepancy "
                                    "calls it",
    "posteriors.GridPosterior.ppf": "the ppf of every posterior, as credible_discrepancy "
                                    "calls it",
    # README's CSV contracts
    "kl.KlProfile": "KlProfile.to_csv writes the KL profile; kl-oracle builds the "
                    "dataclass, whose generated methods are not in kl.py",
    "samplers.ChainOutput": "ChainOutput.to_csv writes the chain dump; the samplers "
                            "build the dataclass, whose generated methods are not in samplers.py",
    "models.load_dataset_csv": "the regression dataset loader",
    "models.load_counts_csv": "the Markov transition counts loader",
    # criterion 03's continuous MMLE: no experiment maximizes over an interval
    "mmle._golden_section": "the search of mmle_continuous outside M4",
    "mmle._parabolic_refine": "brings criterion 03's worst error from 6.9e-7 to 9.6e-9 "
                              "against its 1e-6 bound",
    "mmle.mmle_continuous.f": "the objective of that search",
    # the M4 prior oracle, which criterion 09 checks (ROADMAP item 2 replaces it)
    "models.MarkovDirichlet.oracle_hyperparameter": "the M4 prior oracle",
    "models._maximize_dirichlet_row": "the M4 prior oracle's row search",
    # the paper's quantities that no experiment prints yet
    "merging.predicted_l1_predictive": "the first-order L1 between posterior "
                                       "predictives (ROADMAP item 13)",
    "merging.l1_gaussian_equal_var": "the closed-form Gaussian L1, until it replaces "
                                     "the quadrature of l1_distance (ROADMAP item 1)",
    # the __init__s of errors that carry a value, run only where they are raised
    "errors.AccuracyError": "its __init__ keeps the best estimate on a missed tolerance",
    "errors.SamplerError": "its __init__ keeps the failing iteration",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _reached(run, files):
    """Call ``run()`` and return {module: the first lines of its code objects
    that ran}, for the code of ``files`` ({file name: module}) only.  The hook
    sees calls and returns None, so no line is traced; it restores the trace
    function it found."""
    reached = {module: set() for module in files.values()}

    def hook(frame, event, arg):
        module = files.get(frame.f_code.co_filename)
        if module is not None:
            reached[module].add(frame.f_code.co_firstlineno)

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        run()
    finally:
        sys.settrace(previous)
    return reached


def _first_line(node):
    """The line a def's code object starts on: that of its first decorator."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _unreached(node, where, lines):
    """``where.qualname`` of each outermost definition under ``node`` that did
    not run, given the first ``lines`` of the code objects that did: a def
    whose code never ran, or a class with defs none of which ran."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS):
            name = f"{where}.{child.name}"
            found += _unreached(child, name, lines) if _first_line(child) in lines else [name]
        elif isinstance(child, ast.ClassDef):
            name = f"{where}.{child.name}"
            defs = [d for d in ast.walk(child) if isinstance(d, FUNCTIONS)]
            if defs and not any(_first_line(d) in lines for d in defs):
                found.append(name)
            else:
                found += _unreached(child, name, lines)
        else:
            found += _unreached(child, where, lines)
    return found


def _unnamed_classes():
    """``module.Class`` for each class of src/ebib whose name no ebib code
    reads, bare or as an attribute; imports do not count."""
    classes, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                classes.append((node.name, f"{path.stem}.{node.name}"))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {where for name, where in classes if name not in read}


def _run_every_experiment(tmp):
    for name in sorted(SMALL):
        run_experiment(validate_config({"experiment": name, **SMALL[name]}), str(tmp / name))
    config = tmp / "fig1.json"
    config.write_text(json.dumps({"experiment": "fig1-densities", **SMALL["fig1-densities"],
                                  "output_dir": str(tmp / "main")}))
    for argv in (["run", str(config)], ["validate", str(config)], ["list-experiments"]):
        assert cli.main(argv) == 0


def test_every_definition_is_reached_or_named(tmp_path):
    # a new experiment joins the runs only through SMALL
    assert set(SMALL) == set(EXPERIMENTS)
    package = Path(ebib.__file__).parent
    reached = _reached(lambda: _run_every_experiment(tmp_path),
                       {str(package / f"{m}.py"): m for m in MODULES})
    assert reached["cli"]  # the hook sees ebib's code
    unreached = {where for path in sorted(SRC.glob("*.py"))
                 for where in _unreached(ast.parse(path.read_text(), str(path)), path.stem,
                                         reached[path.stem])}
    need = unreached | _unnamed_classes()
    assert sorted(need - set(REACHED_ONLY_BY_TESTS)) == []
    # an entry for what a run now reaches, or ebib no longer defines, is stale
    assert sorted(set(REACHED_ONLY_BY_TESTS) - need) == []


_REACH_PROBE = """\
def same(f):
    return f


@same
@same
def decorated(x):
    def nested(y):
        return y + 1
    return nested(x)


class Called:
    def method(self):
        return decorated(1)

    def other(self):
        return 0


class Never:
    def method(self):
        return 0


def uncalled():
    def inner():
        return 0
    return inner


def entry():
    return Called().method()
"""


def test_reach_sees_decorated_methods_and_nested_functions(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(_REACH_PROBE)
    spec = importlib.util.spec_from_file_location("probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    reached = _reached(probe.entry, {str(path): "probe"})["probe"]
    # a decorated def starts on its first decorator's line; `same` ran only on
    # import, before the hook was set
    assert _unreached(ast.parse(_REACH_PROBE), "probe", reached) == [
        "probe.same", "probe.Called.other", "probe.Never", "probe.uncalled"]


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
