"""What the package imports and exports.

The runtime needs numpy alone: importing the package loads no scipy. Every
name a module exports and every field of a frozen dataclass has a reader
outside the tests, every public class and function is exported, every
name a module imports is read, no module has an ``assert`` statement, and
no array the whole process shares can be written.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sienna.rs import standard_code

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = {path.name: path.read_text() for path in sorted((SRC / "sienna").glob("*.py"))}


def test_import_loads_no_scipy():
    code = (
        "import sys, sienna, sienna.cli, sienna.bench; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def _exports(text: str):
    """The names in a module's ``__all__`` and the source with it cut out."""
    node = next(
        n for n in ast.parse(text).body
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "__all__"
    )
    return ast.literal_eval(node.value), text.replace(ast.get_source_segment(text, node), "")


@pytest.mark.parametrize("module", [name for name, text in MODULES.items() if "__all__" in text])
def test_every_exported_name_has_a_reader_outside_the_tests(module):
    """A name is read in another module (re-exports in ``__init__`` do not
    count), in its own beyond its definition, or by the demos or the benchmark."""
    names, own = _exports(MODULES[module])
    others = [text for name, text in MODULES.items() if name not in (module, "__init__.py")]
    others += [p.read_text() for d in ("demos", "perfbench") for p in (ROOT / d).rglob("*.py")]
    others = "\n".join(others)
    unread = [
        name
        for name in names
        if len(re.findall(rf"\b{re.escape(name)}\b", own)) < 2
        and not re.search(rf"\b{re.escape(name)}\b", others)
    ]
    assert unread == []


@pytest.mark.parametrize("module", [name for name, text in MODULES.items() if "__all__" in text])
def test_every_public_definition_is_exported(module):
    """A public top-level class or function is in its module's ``__all__``,
    so the reader rule above covers every piece of public code."""
    names, _ = _exports(MODULES[module])
    defined = [
        node.name
        for node in ast.parse(MODULES[module]).body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and not node.name.startswith("_")
    ]
    assert [name for name in defined if name not in names] == []


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call)
        and getattr(d.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", False) is True for k in d.keywords)
        for d in node.decorator_list
    )


def _frozen_dataclass_members(text: str) -> list[tuple[str, str]]:
    """(class, name) of every field and property of a module's frozen dataclasses."""
    members = []
    for node in ast.walk(ast.parse(text)):
        if not (isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node)):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                members.append((node.name, item.target.id))
            elif isinstance(item, ast.FunctionDef) and any(
                getattr(d, "id", None) == "property" for d in item.decorator_list
            ):
                members.append((node.name, item.name))
    return members


def test_every_frozen_dataclass_field_has_a_reader_outside_the_tests():
    """Every field and property of a frozen dataclass is read as an attribute
    somewhere in the package, the demos or the benchmark: a result that only
    the tests read is code that exists for the tests alone."""
    trees = [ast.parse(text) for text in MODULES.values()]
    paths = [p for d in ("demos", "perfbench") for p in (ROOT / d).rglob("*.py")]
    trees += [ast.parse(p.read_text()) for p in paths]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    members = [m for text in MODULES.values() for m in _frozen_dataclass_members(text)]
    assert [f"{cls}.{name}" for cls, name in members if name not in read] == []


def _unused_imports(text: str) -> list[str]:
    """Names a module imports and never reads, by its syntax tree alone."""
    tree = ast.parse(text)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("module", [name for name in MODULES if name != "__init__.py"])
def test_every_imported_name_is_used(module):
    assert _unused_imports(MODULES[module]) == []


def test_no_assert_statements():
    """``python -O`` strips ``assert``, so a check the package relies on is
    an explicit comparison that raises or reports."""
    asserts = [
        f"{module}:{node.lineno}"
        for module, text in MODULES.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def _bound_names(text: str) -> list[str]:
    """The non-dunder names a module binds at its top level."""
    names = []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_every_top_level_name_is_read_from_the_package():
    """The package namespace holds only what is read as ``sienna.<name>``
    outside it; every other name is imported from its own module."""
    paths = [p for p in (SRC / "sienna").glob("*.py") if p.name != "__init__.py"]
    paths += [p for d in ("demos", "perfbench") for p in (ROOT / d).rglob("*.py")]
    readers = "\n".join(p.read_text() for p in paths)
    unread = [
        name
        for name in _bound_names(MODULES["__init__.py"])
        if not re.search(rf"\bsienna\.{re.escape(name)}\b", readers)
    ]
    assert unread == []


def test_shared_arrays_are_read_only():
    """A module's arrays and the standard code's cached codec and field
    tables serve every caller in the process, so a write into one would
    change every later result: one flipped ``exp`` entry made the next
    decode of a word with one error return None."""
    owners = {
        f"sienna.{name[:-3]}": vars(importlib.import_module(f"sienna.{name[:-3]}"))
        for name in MODULES
        if name not in ("__init__.py", "__main__.py")
    }
    codec = standard_code().codec()
    owners.update(codec=vars(codec), field=vars(codec.gf))
    writable = [
        f"{owner}.{name}"
        for owner, namespace in owners.items()
        for name, value in namespace.items()
        if isinstance(value, np.ndarray) and value.flags.writeable
    ]
    assert writable == []
    with pytest.raises(ValueError):
        codec.gf.exp[5] ^= 1
