"""Every public name of psroth is used by the package, a demo or the benchmark.

A name only the tests reach is either an oracle for another route, listed
below with its reason, or code to delete.
"""

import ast
from pathlib import Path

import psroth

ROOT = Path(__file__).resolve().parents[1]

TEST_ORACLES = {
    "mangoldt": "scalar Lambda(n) by trial division, the oracle for sieve.prime_powers",
    "mobius": "scalar mu(n) by trial division, the oracle for sieve.mobius_array",
    "eval_h_quadrature": "h by numerical integration, the oracle for its closed forms",
}


def _referenced_names():
    """Names, attributes, imported names and string constants in the package
    modules (not __init__.py), demos/ and perfbench/."""
    paths = [p for p in (ROOT / "src" / "psroth").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
