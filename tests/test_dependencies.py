"""The package imports numpy, scipy and the standard library only, and
exports only names it defines."""

import ast
import importlib
import sys
from pathlib import Path

import georev

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "georev"}


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_only_numpy_scipy_and_stdlib():
    sources = sorted(Path(georev.__file__).parent.glob("*.py"))
    assert sources
    outside = [
        f"{path.name}:{line} imports {name}"
        for path in sources
        for line, name in _imports(path)
        if name.partition(".")[0] not in ALLOWED
    ]
    assert not outside, outside


def test_every_export_exists():
    package = Path(georev.__file__).parent
    modules = [georev] + [importlib.import_module(f"georev.{path.stem}")
                          for path in sorted(package.glob("*.py"))
                          if path.stem != "__init__"]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing
