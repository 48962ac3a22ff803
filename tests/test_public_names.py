"""Every public name of psroth is used by the package or the benchmark, and
every optional parameter of its public functions is set by the package, a demo
or the benchmark.

A name only the tests and demos reach, or a parameter only the tests set, is
either listed below with its reason (an oracle for another route, a hypothesis
check) or code to delete.  A demo call does not keep a name alive: a demo
shows what the package does, it is not a use of it.
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
    "count_in_class": "weighted class counts: acceptance criterion 4's residue classes "
                      "and the error-term tests' second route for route one at xi = 0",
    "example_specs": "the five worked function families of acceptance criterion 2",
    "sigma_tau": "sigma and tau, through which acceptance criterion 2 checks the "
                 "phi recursions",
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
}


def _sources(demos):
    """The package modules (not __init__.py) and perfbench/, parsed, with
    demos/ too if demos is true."""
    paths = [p for p in (ROOT / "src" / "psroth").glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "perfbench").glob("*.py")
    if demos:
        paths += (ROOT / "demos").glob("*.py")
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def _referenced_names():
    """Names, attributes, imported names and string constants in the package
    and the benchmark."""
    names = set()
    for tree in _sources(demos=False):
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
    assert not unused, f"public names only the tests and demos reach: {sorted(unused)}"


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
    for tree in _sources(demos=True):
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
