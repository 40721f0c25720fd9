"""Rules the package source itself must follow."""

import ast
import json
from collections import Counter
from pathlib import Path

import mixent
from support import code_lines, run_python


def test_no_assert_statements_in_the_package():
    # Invariant checks must raise real exceptions: assert vanishes under python -O.
    sources = sorted(Path(mixent.__file__).parent.glob("*.py"))
    assert any(path.name == "estimators.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src: {found}"


def test_experiment_ids_live_only_in_the_sweep_table():
    # Which experiments exist is decided once, by the table in experiments.py;
    # every other module reads EXPERIMENTS or asks that module.
    ids = {f"{family}{n}" for family in "gu" for n in range(1, 5)}
    sources = sorted(Path(mixent.__file__).parent.glob("*.py"))
    assert any(path.name == "cli.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name != "experiments.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value in ids
    ]
    assert not found, f"experiment id literals outside experiments.py: {found}"


def test_component_type_checks_stay_in_the_oracle_modules():
    # Family differences live on the component classes; only the mixture
    # container and the oracles that work outside the closed forms test types.
    allowed = {"mixture.py", "montecarlo.py", "mutual_info.py"}
    families = {"GaussianComponent", "UniformBox"}

    def names(node):  # a bare name, module.Name, a tuple or an X | Y union
        return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}

    sources = sorted(Path(mixent.__file__).parent.glob("*.py"))
    assert any(path.name == "gaussian.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name not in allowed
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2
        and names(node.args[1]) & families
    ]
    assert not found, f"component isinstance checks outside {sorted(allowed)}: {found}"


def test_one_draw_route_in_the_mixture():
    # A mixture's labels are drawn at one place in mixture.py, and every
    # point's variates only through its family's _variates, which the
    # component's own sample calls too; _from_variates maps them to points.
    # So MixtureModel.sample, the Monte Carlo check and a component's sample
    # cannot come to draw differently.
    draws = {"choice", "random", "standard_normal", "uniform", "sample"}
    steps = {"_variates", "_from_variates"}

    def uses(path):  # (name, innermost enclosing function) of each draw call or step
        found = Counter()

        def visit(node, scope):
            if isinstance(node, ast.FunctionDef):
                scope = node.name
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in draws:
                found[node.func.attr, scope] += 1
            if isinstance(node, ast.Attribute) and node.attr in steps:
                found[node.attr, scope] += 1
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
        return found

    package = Path(mixent.__file__).parent
    found = {path.name: uses(path) for path in sorted(package.glob("*.py"))}
    assert "montecarlo.py" in found
    assert found.pop("mixture.py") == {
        ("random", "_draw_labels"): 1,
        ("_variates", "_grouped_draws"): 1,
        ("_from_variates", "_grouped_draws"): 1,
    }
    for name, variates in (("gaussian.py", "standard_normal"), ("uniform.py", "random")):
        assert found.pop(name) == {
            (variates, "_variates"): 1, ("_variates", "sample"): 1, ("_from_variates", "sample"): 1,
        }, name
    # The sweep generators draw component means, never mixture points.
    assert {attr for attr, _ in found.pop("experiments.py")} == {"standard_normal"}
    stray = {name: sorted(uses) for name, uses in found.items() if uses}
    assert not stray, f"draws outside the mixture's route: {stray}"


def test_no_concurrent_futures_in_the_package():
    # The Monte Carlo draws run ahead on one plain threading.Thread, which
    # every CLI process has loaded anyway; concurrent.futures would add its
    # import time and memory to each of them.
    sources = sorted(Path(mixent.__file__).parent.glob("*.py"))
    assert any(path.name == "montecarlo.py" for path in sources)
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "concurrent" or m.startswith("concurrent.") for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"concurrent imports in src: {found}"
    code = ("import sys; from mixent import MixtureModel, UniformBox, mc_entropy; "
            "mc_entropy(MixtureModel([1.0], [UniformBox([0.0], [1.0])]), 20000, 0); "
            "print('concurrent.futures' in sys.modules)")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_counts_are_checked_not_truncated():
    # Counts and seeds go through _numeric.as_count, which refuses 2.5, "3"
    # and True; int() on a parameter would quietly take them as 2, 3 and 1.
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    sources = sorted(Path(mixent.__file__).parent.glob("*.py"))
    assert any(path.name == "_numeric.py" for path in sources)
    found = {
        f"{path.name}:{node.lineno} int({node.args[0].id})"
        for path in sources
        if path.name != "_numeric.py"
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, functions)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "int"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id in {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
    }
    assert not found, f"int() on a parameter: {sorted(found)}"


def _calls_outside_numeric(test):
    """'module:line' of every call outside _numeric.py for which test(call) holds."""
    sources = sorted(Path(mixent.__file__).parent.glob("*.py"))
    assert any(path.name == "_numeric.py" for path in sources)
    return [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name != "_numeric.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and test(node)
    ]


def _names(node):  # a bare name, module.Name, a tuple or an X | Y union
    return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}


def test_float_arrays_are_read_by_one_intake_rule():
    # Floats go through _numeric.as_floats, which refuses booleans, malformed
    # entries and NaN/inf with MixtureErrors; np.asarray(x, dtype=float) alone
    # takes True as 1.0 and raises NumPy's own errors.
    def float_conversion(call):
        name = getattr(call.func, "attr", getattr(call.func, "id", None))
        dtypes = [_names(k.value) for k in call.keywords if k.arg == "dtype"]
        return name in ("asarray", "array") and any(d & {"float", "float64"} for d in dtypes)

    found = _calls_outside_numeric(float_conversion)
    assert not found, f"float array conversions outside _numeric.py: {found}"


def test_booleans_are_refused_in_one_module():
    # The one test for a bool among numbers lives beside the intake rules.
    def bool_check(call):
        if getattr(call.func, "id", None) != "isinstance" or len(call.args) != 2:
            return False
        return bool(_names(call.args[1]) & {"bool", "bool_"})

    found = _calls_outside_numeric(bool_check)
    assert not found, f"bool checks outside _numeric.py: {found}"


def _call_scopes(name, test=lambda call: True):
    """'module.py:function' of each call of ``name`` in the package for
    which test(call) holds, by the innermost enclosing function."""
    def scopes(path):
        found = []

        def visit(node, scope):
            if isinstance(node, ast.FunctionDef):
                scope = node.name
            if isinstance(node, ast.Call) and name in _names(node.func) and test(node):
                found.append(f"{path.name}:{scope}")
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text(), filename=str(path)), None)
        return found

    sources = sorted(Path(mixent.__file__).parent.glob("*.py"))
    assert any(path.name == "estimators.py" for path in sources)
    return [scope for path in sources for scope in scopes(path)]


def test_group_labels_are_read_at_one_place():
    # A grouping is plain labels; clustered_gap_bound, their one reader, checks
    # them with _numeric.as_labels, and nothing wraps or checks them again.
    found = _call_scopes("as_labels")
    assert found == ["estimators.py:clustered_gap_bound"], found


def test_pair_kernels_stack_component_attributes_with_one_helper():
    # _numeric.stacked builds the attribute stacks of both families' kernels;
    # neither family module keeps a stacking helper of its own.
    found = sorted(_call_scopes("stacked"))
    assert found == ["gaussian.py:_pair_terms", "gaussian.py:kl_matrix",
                     "uniform.py:_log_overlaps", "uniform.py:kl_matrix"], found


def test_block_loops_split_with_spans():
    # Every loop over blocks of points, pairs or columns splits with
    # _numeric.spans, the package's one split rule, which merges a lone last
    # item into the run before it; range(0, n, step) would leave it alone.
    found = _call_scopes("range", lambda call: len(call.args) == 3)
    assert not found, f"range calls with a step: {found}"


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    # The package's size measure: a statement or string over several lines
    # counts each; a string that is not the first statement of its body is code.
    path = tmp_path / "sample.py"
    path.write_text('''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self, y):
        """Function docstring."""
        return (y +
                1)


async def g():
    'A docstring in single quotes.'
    "a second string statement"
''')
    assert code_lines(path) == 9


def test_cli_options_state_no_defaults():
    # An option left out stays out of the library call, so SweepConfig,
    # estimate_all and mi_bounds state every default once.
    path = Path(mixent.__file__).parent / "cli.py"
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        and any(k.arg == "default" for k in node.keywords)
    ]
    assert not found, f"add_argument defaults in cli.py: {found}"


def test_component_classes_share_one_pair_contract():
    # The family contract: the three matrix kernels and the block log-density.
    contract = {"kl_matrix", "chernoff_matrix", "half_matrices", "_log_density_rows"}
    for family in (mixent.GaussianComponent, mixent.UniformBox):
        found = {name for name, value in vars(family).items() if isinstance(value, classmethod)}
        assert found == contract, family.__name__


def test_each_pair_kernel_is_defined_once():
    # The kernels are the family classmethods pinned above; no module-level
    # function in a family module states a matrix kernel a second time.
    package = Path(mixent.__file__).parent
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name in ("gaussian.py", "uniform.py")
        for node in ast.parse((package / name).read_text(), filename=name).body
        if isinstance(node, ast.FunctionDef) and node.name.endswith(("_matrix", "_matrices"))
    ]
    assert not found, f"module-level matrix kernels: {found}"


def test_gaussian_elk_scalar_reads_its_kernel():
    # One formula for the Gaussian ELK term: the scalar takes it from
    # half_matrices and factors nothing itself.
    path = Path(mixent.__file__).parent / "gaussian.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "gaussian_elk_log_cross")
    attrs = {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    assert "half_matrices" in attrs
    assert "cholesky" not in attrs | names
    assert not names & {"_mahalanobis_sq", "forward_substitute", "_pair_terms", "_LOG_2PI"}


def test_public_names_are_unique_and_resolve():
    assert len(mixent.__all__) == len(set(mixent.__all__))
    missing = [name for name in mixent.__all__ if not hasattr(mixent, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
    namespace = {}
    exec("from mixent import *", namespace)
    assert set(mixent.__all__) <= set(namespace)


def test_each_module_states_its_public_names_once():
    # Which names are public is decided beside their definitions: each module
    # the package republishes declares one __all__, __init__.py takes each by
    # a star import and lists no names itself, and no name has two modules.
    package = Path(mixent.__file__).parent
    init = ast.parse((package / "__init__.py").read_text(), filename="__init__.py")
    relative = [n for n in ast.walk(init) if isinstance(n, ast.ImportFrom) and n.level]
    assert len(relative) >= 9
    found = [f"__init__.py:{n.lineno}" for n in relative if [a.name for a in n.names] != ["*"]]
    assert not found, f"package imports other than `from .module import *`: {found}"
    found = [
        f"__init__.py:{node.lineno}"
        for node in ast.walk(init)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set))
        and any(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)
    ]
    assert not found, f"name lists in __init__.py: {found}"

    owners = Counter()
    for module in (n.module for n in relative):
        path = package / f"{module}.py"
        declared = [
            node.value
            for node in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        ]
        assert len(declared) == 1, f"{module}.py declares __all__ {len(declared)} times"
        owners.update(ast.literal_eval(declared[0]))
    twice = [name for name, count in owners.items() if count > 1]
    assert not twice, f"names in two module lists: {twice}"
    assert sorted(owners) == sorted(mixent.__all__)


def test_every_module_level_definition_is_used_or_public():
    # A helper that loses its last caller must go with it: every module-level
    # function or class is named somewhere outside its own body, or exported.
    def references(node):  # loaded bare names and attribute names, with counts
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        )

    sources = sorted(Path(mixent.__file__).parent.glob("*.py"))
    assert any(path.name == "_numeric.py" for path in sources)
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    total = sum((references(tree) for tree in trees.values()), Counter())
    definitions = [
        (name, node)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert len(definitions) > 100
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in definitions
        if node.name not in mixent.__all__ and total[node.name] == references(node)[node.name]
    ]
    assert not found, f"module-level definitions nothing uses or exports: {found}"


def test_family_modules_refuse_no_distance():
    # Every family takes every distance kind the estimators offer, so only an
    # unknown kind name or component type is unsupported, and neither of
    # those is decided in a family module.
    def names(node):
        return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}

    package = Path(mixent.__file__).parent
    found = [
        f"{name}:{node.lineno}"
        for name in ("gaussian.py", "uniform.py")
        for node in ast.walk(ast.parse((package / name).read_text(), filename=name))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "UnsupportedDistance" in names(node.exc)
    ]
    assert not found, f"family modules refusing a distance: {found}"


def test_no_general_solve_or_explicit_inverse_in_the_package():
    # Quadratic forms go through triangular solves against Cholesky factors,
    # or products with inverse factors formed by them: no LU on a factor that
    # is already triangular, no covariance inverse, no NumPy solver at all.
    forbidden = {"solve", "inv", "pinv", "lstsq", "tensorinv", "tensorsolve"}

    def dotted(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        return ".".join(reversed(parts))

    sources = sorted(Path(mixent.__file__).parent.glob("*.py"))
    assert any(path.name == "gaussian.py" for path in sources)
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = dotted(node.func).split(".")
                if len(name) >= 2 and name[-2] == "linalg" and name[-1] in forbidden:
                    found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                if any(alias.name in forbidden for alias in node.names):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"general solves or explicit inverses in src: {found}"


def test_no_scipy_import_in_the_package():
    # NumPy is the only run-time dependency; SciPy is a test-only reference.
    sources = sorted(Path(mixent.__file__).parent.glob("*.py"))
    assert any(path.name == "gaussian.py" for path in sources)
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"scipy imports in src: {found}"


def test_importing_the_cli_loads_no_scipy():
    proc = run_python("-c", "import sys, mixent.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_estimate_runs_where_scipy_cannot_be_imported(tmp_path):
    spec = tmp_path / "mix.json"
    spec.write_text(json.dumps({
        "family": "gaussian",
        "weights": [0.3, 0.7],
        "components": [
            {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            {"mean": [4.0, 0.0], "cov": [[2.0, 0.3], [0.3, 1.0]]},
        ],
    }))
    # A None entry in sys.modules makes every later `import scipy` raise ImportError.
    code = ("import sys; sys.modules['scipy'] = None; from mixent.cli import main; "
            f"sys.exit(main(['estimate', '--spec', {str(spec)!r}, '--mc', '200']))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "H_KL" in proc.stdout and "H_MC" in proc.stdout
