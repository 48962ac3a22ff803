"""The package's one thread pool, run.in_order, and the guard that keeps it
the only one: no other package module imports thread machinery or reads the
pool's private names."""

import ast
import threading
import time
from pathlib import Path

import pytest

from psroth import run

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "psroth"
# thread machinery only run.py may import, and run.py's private names
THREAD_MODULES = ("concurrent.futures", "threading")
POOL_PRIVATES = {"_in_order", "_pooled"}


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_in_order_holds_at_most_threads_plus_one_ahead(threads, fast_switching):
    # a slow consumer: the workers may run ahead of it, but by at most
    # threads + 1 items, counting the one it was just handed
    got, ahead, workers = [], [], set()

    def square(i):
        ahead.append(i + 1 - len(got))
        workers.add(threading.get_ident())
        return i * i

    for x in run.in_order(square, range(40), threads):
        got.append(x)
        time.sleep(0.001)
    assert got == [i * i for i in range(40)]
    assert max(ahead) <= threads + 1
    assert len(workers) <= threads
    # never more workers than items
    workers.clear()
    assert list(run.in_order(square, range(2), threads)) == [0, 1]
    assert len(workers) <= 2


def test_in_order_raises_earliest_failure_and_joins(fast_switching):
    # item 3 fails 20 ms late, after item 5 has failed on a pool; its error
    # is the one raised, after the results before it, and no pool thread
    # outlives it
    def fn(i):
        if i == 3:
            time.sleep(0.02)
        if i in (3, 5):
            raise ValueError(i)
        return i

    for threads in (1, 2, 3):
        before = threading.active_count()
        got = []
        with pytest.raises(ValueError) as err:
            for x in run.in_order(fn, range(20), threads):
                got.append(x)
        assert err.value.args == (3,)
        assert got == [0, 1, 2]
        assert threading.active_count() == before


def _imported_modules(tree):
    """Every module an import statement of the tree names, with the module
    itself for `from module import name`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_run_holds_thread_code():
    threaded, readers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "run.py" and any(
                name == mod or name.startswith(mod + ".")
                for name in _imported_modules(tree) for mod in THREAD_MODULES):
            threaded.append(path.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in POOL_PRIVATES
                    or isinstance(node, ast.alias) and node.name in POOL_PRIVATES):
                readers.append(f"{path.name}:{node.lineno}")
    assert not threaded, f"modules other than run.py importing thread code: {threaded}"
    assert not readers, f"reads of the pool's private names: {readers}"
