"""Checks on the repository around the library: the README code runs as
printed and its layout names every module, the library imports nothing
beyond the standard library, the test oracles stay independent of the
production code, io.py alone names the schema's value kinds, and the public
names of the package match their pin."""

import ast
import contextlib
import io
import json
import re
import sys
import types
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
PACKAGE = TESTS.parent / "src" / "hngame"

PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
EXPECTED_PRINT = re.compile(r"^print\(.*\)\s+# (.*)$")


def test_readme_has_python_blocks():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", [
    pytest.param(block, id=f"block{i}") for i, block in enumerate(PYTHON_BLOCKS)
])
def test_readme_python_block_runs(block):
    # Each `print(...)  # expected` line must print its comment.
    expected = [
        m.group(1) for m in map(EXPECTED_PRINT.match, block.splitlines()) if m
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_oracles_import_only_hngame_errors():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "oracles.py uses a relative import"
            imported.add(node.module)
    from_hngame = {m for m in imported if m == "hngame" or m.startswith("hngame.")}
    assert from_hngame == {"hngame.errors"}


def test_readme_layout_names_every_module():
    text = README.read_text()
    layout = re.search(r"^## Layout\n\n```\n(.*?)^```$", text, re.M | re.S)
    named = set(re.findall(r"\w+\.py\b", layout.group(1)))
    modules = {p.name for p in PACKAGE.glob("*.py")} - {"__init__.py"}
    assert modules - named == set()


def test_package_imports_only_stdlib_and_itself():
    # Runtime dependencies stay []: every absolute import is of the standard
    # library or of hngame.
    outside = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.partition(".")[0] for name in names}
            outside |= top - sys.stdlib_module_names - {"hngame"}
    assert outside == set()


def test_no_class_defines_getattr():
    # CPython 3.11 stops specializing every attribute read on a class that
    # defines __getattr__.  Such a hook on BoundedLattice, to build meet/join
    # tables on first read, measured the sweep benchmark's ops_per_s 16%
    # lower; a property does the same without the cost.
    hooks = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                hooks.extend(
                    f"{path.name}:{node.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "__getattr__"
                )
    assert hooks == []


def test_only_io_names_the_value_kinds():
    # The schema's value kinds are document kinds.  io.py maps each to its
    # value class, and no other module holds one: a value lattice that
    # carried its kind string handed it to its order dual, which then read
    # as the order it reverses.
    schema = json.loads((TESTS.parent / "schema" / "document.schema.json").read_text())
    kinds = {
        section["properties"]["kind"]["const"]
        for section in schema["$defs"]["values"]["oneOf"]
    }
    holders = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in kinds:
                holders.add(path.name)
    assert holders == {"io.py"}
    from hngame.io import _VALUE_KINDS

    assert set(_VALUE_KINDS) == kinds


def test_public_api_matches_its_pin():
    # The names `import hngame` exports, submodules aside: dropping or adding
    # one is a change of the public API and must update the pin.
    import hngame

    names = sorted(
        name for name, value in vars(hngame).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == json.loads((TESTS / "golden" / "public_api.json").read_text())
