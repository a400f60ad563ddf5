"""Every name a module imports is used by that module, and the CLI uses no private one.

Each module of the package except ``__init__.py`` (whose imports are the
public re-exports) is parsed with ``ast``; a name bound by an ``import``
or ``from ... import`` and never read elsewhere in the module fails.
``cli.py`` also fails on a ``_``-prefixed name imported from the package
and on a read of a ``_``-prefixed attribute that is not a dunder.
"""

import ast
from pathlib import Path

import pytest

import liouvlab

MODULES = sorted(
    p for p in Path(liouvlab.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport scipy.linalg\nfrom a import b, c as d\nscipy.linalg.expm(d)\n"
    assert _unused_imports(source) == ["line 1: os", "line 3: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def _private_uses(source: str) -> list[str]:
    """Each ``_``-prefixed name imported from the package and each read of a
    ``_``-prefixed attribute; dunders are neither."""

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("liouvlab")):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names if private(a.name)]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and private(node.attr):
            found.append(f"line {node.lineno}: .{node.attr}")
    return found


def test_the_check_finds_a_private_use():
    source = ("from . import __version__\nfrom .a import b, _c\nfrom liouvlab.d import _e\n"
              "from os import _exit\nx = s._p\nx = s.__class__\n")
    assert _private_uses(source) == ["line 2: import _c", "line 3: import _e", "line 5: ._p"]


def test_cli_uses_only_the_public_api():
    # the CLI is a client of the library: a private name it needs is a sign
    # that the library lacks a public one
    cli = Path(liouvlab.__file__).resolve().parent / "cli.py"
    assert _private_uses(cli.read_text()) == []
