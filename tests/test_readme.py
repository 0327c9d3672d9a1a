"""The call examples of README.md name real functions and bind to them.

Each backticked snippet outside the fenced blocks that parses as one call
is checked, and every call nested in it: a name resolved in a ``dapd``
module must accept the call's arguments (``inspect.signature(...).bind``),
and a compiled kernel's name must be given as many arguments as
``kernels.SIGNATURES`` lists.  A name that is both (``spdc_epoch``) may
match either form; a name that is neither fails.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import dapd
from dapd import kernels

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = [importlib.import_module(f"dapd.{info.name}")
           for info in pkgutil.iter_modules(dapd.__path__)]


def readme_calls():
    """(snippet, its call node) for each backticked README snippet, outside
    the fenced blocks, that parses as one call."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    for match in re.finditer(r"`([^`]+)`", text):
        snippet = " ".join(match.group(1).split())
        try:
            node = ast.parse(snippet, mode="eval").body
        except SyntaxError:
            continue
        if isinstance(node, ast.Call):
            yield snippet, node


def resolve(path: str):
    """The object a dotted name such as ``run_baseline``,
    ``baselines.spdc_epoch`` or ``dapd.matrix.backend`` names, or None."""
    *module, name = path.removeprefix("dapd.").split(".")
    try:
        homes = [importlib.import_module(".".join(["dapd", *module]))] if module else MODULES
    except ImportError:
        return None
    return next((getattr(home, name) for home in homes if hasattr(home, name)), None)


def binds(call: ast.Call) -> bool:
    """Whether ``call`` matches the function or the kernel it names."""
    path = ast.unparse(call.func)
    keywords = [keyword.arg for keyword in call.keywords]
    kernel = kernels.SIGNATURES.get(path.rpartition(".")[2])
    if kernel is not None and not keywords and len(call.args) == len(kernel[1]):
        return True
    target = resolve(path)
    if target is None:
        return False
    try:
        inspect.signature(target).bind(*call.args, **dict.fromkeys(keywords))
    except TypeError:
        return False
    return True


def test_readme_calls_bind():
    calls = list(readme_calls())
    assert len(calls) >= 10
    unbound = [
        f"{snippet}: {ast.unparse(node)}"
        for snippet, call in calls
        for node in ast.walk(call)
        if isinstance(node, ast.Call) and not binds(node)
    ]
    assert unbound == []
