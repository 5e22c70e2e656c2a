import ast
import importlib
import inspect
import sys
import typing
from pathlib import Path

import pytest

import blockerlab

# Certification checks live throughout the package (solvers, verification,
# instance preconditions): ``python -O`` strips ``assert``, so every check
# must raise an exception instead.
MODULES = sorted(path.name for path in Path(blockerlab.__file__).parent.glob("*.py"))
# The tests' shared checks, such as the Property 1 oracle, must raise too:
# pytest rewrites the asserts of test modules only.
HELPERS = Path(__file__).with_name("helpers.py")


def _tree(module):
    path = module if isinstance(module, Path) else Path(blockerlab.__file__).parent / module
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("module", [*MODULES, pytest.param(HELPERS, id="tests/helpers.py")])
def test_certifying_module_has_no_assert(module):
    lines = [node.lineno for node in ast.walk(_tree(module)) if isinstance(node, ast.Assert)]
    assert not lines, f"{module} uses assert on lines {lines}"


# Records are NamedTuples: importing dataclasses alone costs a CLI process
# about 12 ms, because it pulls in inspect, ast, dis and tokenize.
@pytest.mark.parametrize("module", MODULES)
def test_module_imports_no_dataclasses(module):
    lines = [
        node.lineno
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
    ]
    assert not lines, f"{module} imports dataclasses on lines {lines}"


# Every capacity refusal goes through ``errors.check_capacity``, so the
# message, the fields and the budget lookup have one implementation.
@pytest.mark.parametrize("module", [m for m in MODULES if m != "errors.py"])
def test_capacity_error_is_built_only_by_the_gate(module):
    lines = [
        node.lineno
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CapacityExceededError"
    ]
    assert not lines, f"{module} builds CapacityExceededError on lines {lines}"


# Modules use postponed annotations, so a name an annotation uses but the
# module never imports goes unnoticed until something resolves it.
@pytest.mark.parametrize("module", MODULES)
def test_every_function_annotation_resolves(module):
    mod = importlib.import_module(f"blockerlab.{module[:-3]}".replace(".__init__", ""))
    functions = []
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            functions.append(obj)
        elif inspect.isclass(obj):
            functions.extend(f for f in vars(obj).values() if inspect.isfunction(f))
    assert functions or module == "__init__.py"
    for function in functions:
        typing.get_type_hints(function)


# The library is stdlib-only: every import is relative or names a module of
# the standard library.
def _third_party_imports(tree) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names
                  if n.split(".")[0] not in sys.stdlib_module_names]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_the_standard_library(module):
    found = _third_party_imports(_tree(module))
    assert not found, f"{module} imports outside the standard library: {found}"


def test_third_party_imports_are_caught():
    source = "import os.path\nfrom . import graph\nimport numpy as np\nfrom scipy.sparse import x\n"
    assert _third_party_imports(ast.parse(source)) == [(3, "numpy"), (4, "scipy.sparse")]
