import ast
from pathlib import Path

import pytest

import blockerlab

# Certification checks live throughout the package (solvers, verification,
# instance preconditions): ``python -O`` strips ``assert``, so every check
# must raise an exception instead.
MODULES = sorted(path.name for path in Path(blockerlab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_certifying_module_has_no_assert(module):
    path = Path(blockerlab.__file__).parent / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{module} uses assert on lines {lines}"
