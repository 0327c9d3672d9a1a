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


# the calls that load a shared library
LOADERS = {"CDLL", "PyDLL", "LoadLibrary", "load_library"}


def library_loads(tree):
    """(line, enclosing function) of each call to one of ``LOADERS``."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in LOADERS:
                    yield child.lineno, function
            yield from visit(child, function)
    return visit(tree, None)


def test_no_borrowed_blas():
    """The kernels sum every dot product themselves: no module reaches into
    numpy's extension or its BLAS, and the one library loaded is the
    package's own, by ``kernels._load``."""
    found = []
    for path in sorted(Path(dapd.__file__).parent.glob("*.py")):
        text = path.read_text()
        found += [f"{path.name}: mentions {word}" for word in ("_multiarray_umath", "cblas")
                  if word in text.lower()]
        found += [f"{path.name}:{line}: loads a library in {function}"
                  for line, function in library_loads(ast.parse(text, str(path)))
                  if (path.name, function) != ("kernels.py", "_load")]
    assert found == []
