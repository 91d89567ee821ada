"""Every name the benchmark pins must exist where it points.

``bench/tracing.py`` names its traced callables in ``TRACED`` as
``(layer, owner, attr)``, with the owner ``orthosim.<module>`` or
``orthosim.<module>.<Class>``, and looks each one up in the owner's
``__dict__``.  ``bench/test_bench.py`` also checks that the tracer
rebinds some module-level aliases, written ``orthosim.<module>.<name> is
not originals[(owner, attr)]``.  These tests read both files as source,
without importing or changing them, so removing a pinned name fails here
and not first in a traced benchmark run or the benchmark's self-tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _traced() -> tuple:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def _aliases() -> list:
    """(alias path, owner, attr) of each ``orthosim.<module>.<name> is not
    originals[(owner, attr)]`` in the benchmark's self-tests."""
    out = []
    for node in ast.walk(ast.parse((BENCH / "test_bench.py").read_text())):
        if not (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.IsNot)):
            continue
        alias, original = node.left, node.comparators[0]
        if isinstance(original, ast.Subscript) and ast.unparse(original.value) == "originals":
            out.append((ast.unparse(alias), *ast.literal_eval(original.slice)))
    return out


def _resolve(path: str):
    parts = path.split(".")
    target = importlib.import_module(".".join(parts[:2]))
    for name in parts[2:]:
        target = getattr(target, name)
    return target


TRACED = _traced()
ALIASES = _aliases()


def test_traced_table_is_nonempty():
    assert TRACED and all(len(entry) == 3 for entry in TRACED)


@pytest.mark.parametrize("layer, owner, attr", TRACED, ids=[".".join(t[1:]) for t in TRACED])
def test_traced_name_resolves(layer, owner, attr):
    assert attr in vars(_resolve(owner)), f"{owner} has no {attr!r} of its own"


def test_bench_aliases_are_found():
    assert ALIASES


@pytest.mark.parametrize("alias, owner, attr", ALIASES, ids=[a[0] for a in ALIASES])
def test_bench_alias_is_the_pinned_name(alias, owner, attr):
    module, name = alias.rsplit(".", 1)
    assert vars(_resolve(module)).get(name) is vars(_resolve(owner))[attr]
