"""Every name a module imports is used by that module.

Each module of the package except ``__init__.py`` (whose imports are the
public re-exports) is parsed with ``ast``; a name bound by an ``import``
or ``from ... import`` and never read elsewhere in the module fails.
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
