import ast
import importlib
from pathlib import Path

import pytest

# The benchmark's tracer rebinds the functions named in its TRACED table; a
# renamed or deleted function would silently drop out of its per-layer
# figures.  The table is read from the file, not imported or changed.
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("no TRACED table in perfbench/tracer.py")


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in _traced().items() for name in names]
)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"blockerlab.{module}"), name, None))
