"""Exported names: every module's __all__, and the package root's README names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import zosparse

SUBMODULES = [info.name for info in pkgutil.iter_modules(zosparse.__path__)]
MODULES = ["zosparse", *(f"zosparse.{name}" for name in SUBMODULES)]


def readme_imports():
    """The names the README's Python blocks import from the package root."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    names = set()
    for block in readme.split("```python\n")[1:]:
        for node in ast.walk(ast.parse(block.split("```", 1)[0])):
            if isinstance(node, ast.ImportFrom) and node.module == "zosparse":
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_root_exports_exactly_the_readme_imports():
    assert set(zosparse.__all__) == readme_imports() != set()
