"""Checks on the repository itself: README's code runs, no module of
``src/fvbm`` imports a name it does not use, every oracle is used, and
every name the benchmark traces exists."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "fvbm").glob("*.py") if p.name != "__init__.py")
ORACLES = ROOT / "tests" / "oracles.py"


def test_readme_library_tour_runs():
    # the tour names the public API, so a retired name fails here
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library tour\n+```python\n(.*?)^```$", readme, re.M | re.S)
    assert block is not None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), "README.md", "exec"), {})
    assert out.getvalue().startswith("graph interaction_network {")


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in _imported_names(tree) if name not in used] == []


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every bare name and attribute name in the code under ``tree``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_oracle_is_named_by_a_test():
    # an oracle is used when a test module names it, or a used oracle does;
    # one that only retired tests or retired oracles named fails here
    oracles = {
        node.name: node
        for node in ast.parse(ORACLES.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    named = set()
    for path in ORACLES.parent.glob("test_*.py"):
        named |= _referenced_names(ast.parse(path.read_text(), filename=str(path)))
    used, frontier = set(), [name for name in oracles if name in named]
    while frontier:
        name = frontier.pop()
        if name not in used:
            used.add(name)
            frontier += [n for n in _referenced_names(oracles[name]) if n in oracles]
    assert sorted(set(oracles) - used) == []


def test_every_traced_name_resolves():
    # the benchmark wraps these by name; a retired or renamed one would fail
    # only the traced benchmark run
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    assert traced
    for module_name, attr in traced.values():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)
