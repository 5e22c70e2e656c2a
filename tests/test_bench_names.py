import ast
import importlib
from pathlib import Path

import pytest

# The benchmark's tracer rebinds the functions named in its TRACED table; a
# renamed or deleted function would silently drop out of its per-layer
# figures.  The table is read from the file, not imported or changed.
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


# Every public function or class of the library is there for a route, a
# reduction or the bench: some other library definition, a perfbench script
# or the TRACED table refers to it by name in code.  What only the tests
# need lives in tests/helpers.py.  These are the deliberate exceptions:
UNREFERENCED = {
    # A named graph for callers and tests, beside path and complete graphs.
    "cycle_graph",
    # The oracle's reference searches, which the tests check the solvers against.
    "brute_blocker_decision",
    "min_critical_size",
    "is_minimal_critical",
    "brute_min_mono",
    "brute_mss",
    # Each reduction's witness transfers, both ways.
    "vc_to_contraction_set",
    "contraction_set_to_vc",
    "assignment_to_contraction_set",
    "assignment_to_deletion_set",
    "contraction_set_to_assignment",
    "deletion_set_to_assignment",
    "partition_to_colouring",
    "colouring_to_partition",
}


def _referenced(tree) -> set[str]:
    """The identifiers that ``tree`` uses as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def test_every_public_library_name_has_a_use():
    used = {name for names in _traced().values() for name in names}
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _referenced(ast.parse(path.read_text()))
    public = set()
    for path in (ROOT / "src" / "blockerlab").glob("*.py"):
        for statement in ast.parse(path.read_text()).body:
            names = _referenced(statement)
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names.discard(statement.name)  # a recursive call is no use
                if not statement.name.startswith("_"):
                    public.add(statement.name)
            used |= names
    unused = public - used
    assert unused <= UNREFERENCED, f"public names only tests use: {sorted(unused - UNREFERENCED)}"
    assert UNREFERENCED <= unused, f"allowed but now used: {sorted(UNREFERENCED - unused)}"
