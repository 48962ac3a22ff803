"""Every public name of psroth is used by the package, a demo or the benchmark,
and so is every optional parameter of its public functions.

A name or a parameter only the tests reach is either listed below with its
reason (an oracle for another route, a hypothesis check) or code to delete.
"""

import ast
import importlib
import inspect
from pathlib import Path

import psroth

ROOT = Path(__file__).resolve().parents[1]

TEST_ORACLES = {
    "mangoldt": "scalar Lambda(n) by trial division, the oracle for sieve.prime_powers",
    "mobius": "scalar mu(n) by trial division, the oracle for sieve.mobius_array",
    "eval_h_quadrature": "h by numerical integration, the oracle for its closed forms",
}

_SPEC_FIELD = ("FunctionSpec's field of that name, which a config record sets "
               "through spec_from_config")
# (function, parameter): why a value only the tests set stays settable
TEST_SETTINGS = {
    **{(kind, field): _SPEC_FIELD
       for kind in ("pure_power", "power_log", "power_explog", "iterated_log")
       for field in ("C_h", "x0")},
    ("count_in_class", "weight"): "the weighted class sums are the error-term "
                                  "tests' second route for route one at xi = 0",
    ("varnavides_count", "d_keep"): "keeps every scanned d's counts for the "
                                    "np.roll reference test",
    ("varnavides_count", "threshold"): "only the empty-set test sets it, but the "
                                       "benchmark tracer reads d_list as the fifth "
                                       "positional argument",
    ("bilinear_check", "R"): "the test of the R <= K hypothesis",
    ("bilinear_check", "D1"): "the zero-coefficient test of the differencing chain",
    ("bilinear_check", "D2"): "the zero-coefficient test of the differencing chain",
}


def _sources():
    """The package modules (not __init__.py), demos/ and perfbench/, parsed."""
    paths = [p for p in (ROOT / "src" / "psroth").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def _referenced_names():
    """Names, attributes, imported names and string constants in the sources."""
    names = set()
    for tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_name_has_a_non_test_user():
    assert set(TEST_ORACLES) <= set(psroth.__all__)
    unused = set(psroth.__all__) - _referenced_names() - set(TEST_ORACLES)
    assert not unused, f"public names only the tests reach: {sorted(unused)}"


def _public_functions():
    """(name, function) for every public function defined in a package module."""
    for path in sorted((ROOT / "src" / "psroth").glob("*.py")):
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module(f"psroth.{path.stem}")
        for name, fn in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                yield name, fn


def _set_parameters():
    """(function name, parameter) pairs some call in the sources sets, by
    keyword or by position; a call with *args or **kwargs sets every one.
    Calls are matched by the called name alone."""
    calls = {}
    for tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    found = set()
    for name, fn in _public_functions():
        params = list(inspect.signature(fn).parameters)
        for call in calls.get(name, []):
            if any(isinstance(arg, ast.Starred) for arg in call.args) or \
                    any(kw.arg is None for kw in call.keywords):
                found.update((name, p) for p in params)
            found.update((name, p) for p in params[:len(call.args)])
            found.update((name, kw.arg) for kw in call.keywords)
    return found


def test_every_optional_parameter_has_a_non_test_setter():
    optional = {(name, p.name) for name, fn in _public_functions()
                for p in inspect.signature(fn).parameters.values()
                if p.default is not inspect.Parameter.empty}
    assert set(TEST_SETTINGS) <= optional
    unset = optional - _set_parameters() - set(TEST_SETTINGS)
    assert not unset, f"optional parameters only the tests set: {sorted(unset)}"
