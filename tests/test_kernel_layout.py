"""The ctypes mirrors in ``dapd.kernels`` against the C declarations in
``kernels.c``.  The kernels read their structs by C layout, so a mirror
whose fields drift in name, order or type would corrupt memory without an
error; these tests read the C source and compare, field for field and
argument for argument."""

import ctypes
import re

import pytest

from dapd import kernels

SOURCE = kernels.SOURCE.read_text()
# C source without its comments
CODE = re.sub(r"/\*.*?\*/", " ", SOURCE, flags=re.S)

# the ctypes class that mirrors each struct of kernels.c
MIRRORS = {
    "blas_dot": kernels.BlasDot,
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
    """(return type, argument types) of the definition of ``name``."""
    match = re.search(r"^(\w+)\s+" + name + r"\s*\(([^)]*)\)\s*\{", CODE, flags=re.M)
    assert match is not None, f"no definition of {name} in kernels.c"
    result, params = match.groups()
    args = []
    for param in params.split(","):
        base, stars = re.fullmatch(r"\s*(.*?)\s*(\**)\s*\w+\s*", param).groups()
        args.append(ctype_of(base, bool(stars)))
    return (None if result == "void" else SCALARS[result]), tuple(args)


def test_every_struct_has_a_mirror():
    assert set(c_structs()) == set(MIRRORS)


@pytest.mark.parametrize("name", list(MIRRORS))
def test_mirror_matches_the_struct_field_for_field(name):
    assert list(MIRRORS[name]._fields_) == c_structs()[name]


@pytest.mark.parametrize("name", list(kernels.SIGNATURES))
def test_signature_matches_the_definition(name):
    restype, argtypes = kernels.SIGNATURES[name]
    assert c_function(name) == (restype, tuple(argtypes))

