"""The package needs numpy alone: every module of ``dapd`` imports only its
own modules, the standard library and numpy."""

import ast
import sys
from pathlib import Path

import dapd

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(tree):
    """(line, module) of each import statement that is not relative."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(dapd.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    foreign = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in absolute_imports(ast.parse(path.read_text(), str(path)))
        if module.partition(".")[0] not in ALLOWED
    ]
    assert foreign == []
