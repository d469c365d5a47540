"""Checks on the repository itself: README's code runs, no module of
``src/fvbm`` imports a name it does not use, every oracle is used, every
name the benchmark traces exists, and every export is reached from outside
the tests."""

import ast
import contextlib
import importlib
import io
import re
import symtable
from pathlib import Path

import pytest

import fvbm

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "fvbm").glob("*.py") if p.name != "__init__.py")
ORACLES = ROOT / "tests" / "oracles.py"


def _library_tour() -> str:
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library tour\n+```python\n(.*?)^```$", readme, re.M | re.S)
    assert block is not None
    return block.group(1)


def test_readme_library_tour_runs():
    # the tour names the public API, so a retired name fails here
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_tour(), "README.md", "exec"), {})
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


def _traced() -> dict[str, tuple[str, str]]:
    """``TRACED`` of ``bench/spans.py``, read without importing the bench."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )


def test_every_traced_name_resolves():
    # the benchmark wraps these by name; a retired or renamed one would fail
    # only the traced benchmark run
    traced = _traced()
    assert traced
    for module_name, attr in traced.values():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def _global_references(table: symtable.SymbolTable) -> set[str]:
    """The global names that the scope ``table`` and the scopes nested in it
    refer to; a class's methods are nested in it."""
    names = {s.get_name() for s in table.get_symbols() if s.is_global() and s.is_referenced()}
    for child in table.get_children():
        names |= _global_references(child)
    return names


def test_every_export_is_reached():
    # An export that no command, no benchmark name and no line of the README
    # tour reaches serves only tests.  A function or class of src/fvbm reaches
    # the functions and classes whose global names it refers to; main finds
    # each cmd_* by name, so every cmd_* is a root.
    references, keys = {}, {}  # (module, name) -> names it refers to; id(object) -> (module, name)
    for path in MODULES:
        module = importlib.import_module(f"fvbm.{path.stem}")
        for table in symtable.symtable(path.read_text(), str(path), "exec").get_children():
            if hasattr(module, table.get_name()):  # a def or class, not a module-level lambda
                references[module, table.get_name()] = _global_references(table)
                keys[id(getattr(module, table.get_name()))] = module, table.get_name()

    roots = {"main"} | {name for _, name in references if name.startswith("cmd_")}
    for path in (ROOT / "bench").glob("*.py"):
        roots |= _referenced_names(ast.parse(path.read_text(), filename=str(path)))
    roots |= {part for _, attr in _traced().values() for part in attr.split(".")}
    roots |= _referenced_names(ast.parse(_library_tour()))
    reached, frontier = set(), [key for key in references if key[1] in roots]
    while frontier:
        key = frontier.pop()
        if key not in reached:
            reached.add(key)
            found = (keys.get(id(getattr(key[0], name, None))) for name in references[key])
            frontier += [target for target in found if target]
    exports = {name: keys.get(id(getattr(fvbm, name))) for name in fvbm.__all__}
    assert sorted(name for name, key in exports.items() if key and key not in reached) == []
