"""The ctypes mirrors in ``dapd.kernels`` against the C declarations in
``kernels.c``.  The kernels read their structs by C layout, so a mirror
whose fields drift in name, order or type would corrupt memory without an
error; these tests read the C source and compare, field for field and
argument for argument."""

import ast
import ctypes
import re
import subprocess

import numpy as np
import pytest

from dapd import kernels

SOURCE = kernels.SOURCE.read_text()
# C source without its comments
CODE = re.sub(r"/\*.*?\*/", " ", SOURCE, flags=re.S)

# the ctypes class that mirrors each struct of kernels.c
MIRRORS = {
    "sep_reg": kernels.SepReg,
    "row_scalars": kernels.RowScalars,
    "row_problem": kernels.RowProblem,
}

SCALARS = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "int": ctypes.c_int}


def ctype_of(base: str, pointer: bool):
    """The ctypes type of a C declaration: its base type without
    qualifiers, and whether the declarator makes it a pointer."""
    base = base.replace("const", "").split()
    if pointer:
        return ctypes.c_char_p if base == ["char"] else ctypes.c_void_p
    if base[0] == "struct":
        return MIRRORS[base[1]]
    return SCALARS[base[0]]


def c_structs() -> dict:
    """{struct name: [(field, ctypes type), ...]} in declaration order."""
    structs = {}
    for name, body in re.findall(r"struct\s+(\w+)\s*\{(.*?)\}\s*;", CODE, flags=re.S):
        fields = []
        for declaration in filter(None, (d.strip() for d in body.split(";"))):
            base, first = re.match(r"((?:const\s+)?(?:struct\s+)?\w+)\s+(.*)", declaration).groups()
            for declarator in first.split(","):
                stars, field = re.fullmatch(r"\s*(\**)\s*(\w+)\s*", declarator).groups()
                fields.append((field, ctype_of(base, bool(stars))))
        structs[name] = fields
    return structs


def c_function(name: str):
    """(return type, argument types, the base type of each argument) of the
    definition of ``name``."""
    match = re.search(r"^(\w+)\s+" + name + r"\s*\(([^)]*)\)\s*\{", CODE, flags=re.M)
    assert match is not None, f"no definition of {name} in kernels.c"
    result, params = match.groups()
    args, bases = [], []
    for param in params.split(","):
        base, stars = re.fullmatch(r"\s*(.*?)\s*(\**)\s*\w+\s*", param).groups()
        args.append(ctype_of(base, bool(stars)))
        bases.append(base.replace("const", "").strip())
    return (None if result == "void" else SCALARS[result]), tuple(args), tuple(bases)


# the numpy dtype of each C element type an array argument may point to
ELEMENTS = {"int64_t": np.int64, "int32_t": np.int32, "double": np.float64}


def passed_as(argtype):
    """The ctypes type an argument type passes: a numpy ``ndpointer``, which
    checks the array it is given, passes a pointer."""
    return ctypes.c_void_p if hasattr(argtype, "_dtype_") else argtype


def test_every_struct_has_a_mirror():
    assert set(c_structs()) == set(MIRRORS)


@pytest.mark.parametrize("name", list(MIRRORS))
def test_mirror_matches_the_struct_field_for_field(name):
    assert list(MIRRORS[name]._fields_) == c_structs()[name]


@pytest.mark.parametrize("name", list(kernels.SIGNATURES))
def test_signature_matches_the_definition(name):
    restype, argtypes = kernels.SIGNATURES[name]
    c_restype, c_argtypes, c_bases = c_function(name)
    assert (c_restype, c_argtypes) == (restype, tuple(map(passed_as, argtypes)))
    for argtype, base in zip(argtypes, c_bases):
        if hasattr(argtype, "_dtype_"):
            assert argtype._dtype_ == np.dtype(ELEMENTS[base]), base


def test_every_exported_function_has_a_signature():
    exported = re.findall(r"^(?!static\b)\w+\s+(\w+)\s*\([^)]*\)\s*\{", CODE, flags=re.M)
    assert sorted(exported) == sorted(kernels.SIGNATURES)


def uses_in_package() -> set:
    """The attribute names and string constants of the ``dapd`` modules other
    than ``kernels``, docstrings left out: ``lib.<kernel>(...)`` calls a
    kernel, and ``kernels.bind`` takes kernel names as strings."""
    used = set()
    for path in kernels.SOURCE.parent.glob("*.py"):
        if path.name == "kernels.py":
            continue
        tree = ast.parse(path.read_text())
        docstrings = {id(node.value) for node in ast.walk(tree)
                      if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                used.add(node.value)
    return used


def test_every_kernel_is_bound_or_called():
    assert set(kernels.SIGNATURES) - uses_in_package() == set()


def c_table(name: str) -> list:
    """The integer constants of the table ``name`` of kernels.c, in order."""
    match = re.search(r"\b" + name + r"\[[^]]*\](?:\[\d+\])?\s*=\s*\{(.*?)\};", CODE, flags=re.S)
    assert match is not None, f"no table {name} in kernels.c"
    return [int(literal, 0) for literal in re.findall(r"(0x[0-9a-fA-F]+|\d+)ULL", match.group(1))]


def test_exact_conversion_tables_hold_their_integers():
    """``POW5[k]`` is 5^k, and ``RECIP5[k - 1]``, high word first, is
    floor(2^(127 + L) / 5^k) with L the bit length of 5^k, for every k the
    reader's window reaches (decimal exponents down to -27): a wrong word
    would misround only the tokens with that exponent."""
    pow5, recip5 = c_table("POW5"), c_table("RECIP5")
    assert pow5 == [5**k for k in range(28)]
    assert len(recip5) == 2 * 27
    for k in range(1, 28):
        want = 2 ** (127 + (5**k).bit_length()) // 5**k
        assert (recip5[2 * k - 2] << 64) | recip5[2 * k - 1] == want, k


def test_kernels_compile_without_warnings(tmp_path):
    """``kernels.c`` builds cleanly with ``-Wall -Wextra -Werror`` under the
    library's own compiler and flags (``kernels.FLAGS``, else without
    ``ALIGN_LOOPS`` when the compiler rejects that, as the loader does): an
    unused helper or a sign mix-up in the reader's integer arithmetic fails
    here, not in a silent build."""
    compiler = kernels._find_compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")

    def build(flags, *extra):
        return subprocess.run(
            [compiler, *flags, *extra, "-o", str(tmp_path / "k.so"), str(kernels.SOURCE)],
            capture_output=True, text=True, timeout=kernels.COMPILE_TIMEOUT_S,
        )

    strict = ("-Wall", "-Wextra", "-Werror")
    result = build(kernels.FLAGS, *strict)
    if result.returncode != 0 and build(kernels.FLAGS).returncode != 0:
        plain = tuple(flag for flag in kernels.FLAGS if flag != kernels.ALIGN_LOOPS)
        result = build(plain, *strict)
    # a newer compiler may add warnings: its version tells that from a defect
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True).stdout
    assert result.returncode == 0, f"{(version.splitlines() or [compiler])[0]}\n{result.stderr}"
