import ast
from pathlib import Path

import pytest

import blockerlab

# Modules whose checks certify answers: ``python -O`` strips ``assert``, so
# every check there must raise an exception instead.
CERTIFYING_MODULES = ("monochromatic.py", "bipartite_blocker.py", "reductions.py", "cotree.py")


@pytest.mark.parametrize("module", CERTIFYING_MODULES)
def test_certifying_module_has_no_assert(module):
    path = Path(blockerlab.__file__).parent / module
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{module} uses assert on lines {lines}"
