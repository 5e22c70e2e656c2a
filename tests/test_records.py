"""The package's records: field order, access, equality, read-only fields, and
the construction-time checks of the three validating ones."""

from fractions import Fraction

import pytest

from blockerlab.bipartite_blocker import BlockerOutcome, ContractionWitness
from blockerlab.cotree import NodeStats, build_cotree
from blockerlab.errors import GadgetPreconditionError
from blockerlab.graph import complete_graph, path_graph
from blockerlab.graphio import MssInstance, SatInstance
from blockerlab.oracle import BlockerQuery, OracleAnswer
from blockerlab.parameters import ParameterValue
from blockerlab.recognizers import (
    Bipartition,
    CotreeCertificate,
    EliminationOrder,
    MultipartiteParts,
    NotInClass,
)
from blockerlab.reductions import ChordalGadgetMap, MssGadgetMap, MssTarget, VcGadgetMap

P3 = path_graph(3)
SAT = SatInstance(2, ((0, 1),), 1)
MSS = MssInstance(2, (1, 2), 2, 5)
WITNESS = ContractionWitness(frozenset({(0, 1)}), 1)

# (record type, its fields in order with one valid value each, and one field
# with a second valid value for the inequality check).
RECORDS = [
    (BlockerQuery, {"graph": P3, "operation": "contract", "parameter": "alpha", "k": 1, "d": 1},
     ("k", 2)),
    (OracleAnswer, {"answer": True, "witness": frozenset({(0, 1)}), "minimal": True,
                    "value_before": 2, "value_after": 1}, ("minimal", False)),
    (SatInstance, {"variable_count": 2, "clauses": ((0, 1),), "k": 1}, ("k", 0)),
    (MssInstance, {"ell": 2, "a": (1, 2), "h": 2, "J": 5}, ("J", 9)),
    (Bipartition, {"left": frozenset({0, 2}), "right": frozenset({1})}, ("right", frozenset())),
    (EliminationOrder, {"order": (0, 1, 2)}, ("order", (2, 1, 0))),
    (CotreeCertificate, {"cotree": build_cotree(complete_graph(2))},
     ("cotree", build_cotree(complete_graph(2)))),
    (MultipartiteParts, {"parts": (frozenset({0}), frozenset({1}))}, ("parts", ())),
    (NotInClass, {"reason": "odd cycle", "witness": (0, 1, 2)}, ("witness", (1, 2, 3))),
    (NodeStats, {"size": (1, 1, 2), "chi": (1, 1, 2)}, ("chi", (1, 1, 1))),
    (ParameterValue, {"kind": "alpha", "value": 2, "witness": frozenset({0, 2})}, ("value", 1)),
    (ContractionWitness, {"edges": frozenset({(0, 1)}), "claimed_alpha_after": 1},
     ("claimed_alpha_after", 0)),
    (BlockerOutcome, {"answer": True, "witness": WITNESS, "alpha_before": 2},
     ("witness", None)),
    (VcGadgetMap, {"universal_vertex": 3, "base_vertex_count": 3}, ("universal_vertex", 0)),
    (ChordalGadgetMap, {"var_vertex": (0, 1), "var_clique": ((2, 3, 4), (5, 6, 7)),
                        "clause_vertex": (8,), "instance": SAT}, ("clause_vertex", (9,))),
    (MssGadgetMap, {"parts": ((0,), (1, 2)), "instance": MSS}, ("parts", ((0, 1), (2,)))),
    (MssTarget, {"exact": Fraction(5, 2), "budget": 2}, ("budget", 3)),
]


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_equality_and_read_only(cls, fields, change):
    names, values = tuple(fields), tuple(fields.values())
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert cls(**fields) == record and hash(cls(**fields)) == hash(record)
    assert cls(**dict(fields, **dict([change]))) != record
    assert type(record).__name__ in repr(record)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: BlockerQuery(P3, "squash", "alpha", 1, 1), ValueError, "unknown operation 'squash'"),
        (lambda: BlockerQuery(P3, "contract", "beta", 1, 1), ValueError, "unknown parameter 'beta'"),
        (lambda: BlockerQuery(P3, "contract", "alpha", -1, 1), ValueError, "k must be non-negative"),
        (lambda: BlockerQuery(P3, "contract", "alpha", 1, 0), ValueError, "d must be at least 1"),
        (lambda: SatInstance(0, ((0, 1),), 1), GadgetPreconditionError, "need at least one variable"),
        (lambda: SatInstance(2, ((0, 1),), -1), GadgetPreconditionError,
         "budget k must be non-negative"),
        (lambda: SatInstance(2, ((1, 1),), 1), GadgetPreconditionError,
         "clauses must use two distinct variables"),
        (lambda: SatInstance(2, ((0, 2),), 1), GadgetPreconditionError,
         "clause variable out of range"),
        (lambda: SatInstance(2, (), 1), GadgetPreconditionError, "need at least one clause"),
        (lambda: MssInstance(0, (), 2, 5), GadgetPreconditionError,
         "tuple length must match ell >= 1"),
        (lambda: MssInstance(3, (1, 2), 2, 5), GadgetPreconditionError,
         "tuple length must match ell >= 1"),
        (lambda: MssInstance(2, (1, 0), 2, 5), GadgetPreconditionError,
         "all entries must be positive"),
        (lambda: MssInstance(2, (1, 2), 0, 5), GadgetPreconditionError, "h must be at least 1"),
        (lambda: SatInstance.make(2, [(1, 0), (0, 1)], -1), GadgetPreconditionError,
         "budget k must be non-negative"),
    ],
    ids=["op", "parameter", "k", "d", "no-variable", "sat-k", "loop-clause", "clause-range",
         "no-clause", "ell-zero", "length", "non-positive", "mss-h", "make-k"],
)
def test_validating_record_rejects(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


def test_validation_applies_to_keyword_construction_and_replace():
    with pytest.raises(ValueError, match="d must be at least 1"):
        BlockerQuery(graph=P3, operation="contract", parameter="alpha", k=1, d=0)
    with pytest.raises(ValueError, match="k must be non-negative"):
        BlockerQuery(P3, "contract", "alpha", 1, 1)._replace(k=-1)
    with pytest.raises(GadgetPreconditionError, match="need at least one clause"):
        SAT._replace(clauses=())
    with pytest.raises(GadgetPreconditionError, match="h must be at least 1"):
        MSS._replace(h=0)
    assert MSS._replace(J=9) == MssInstance(2, (1, 2), 2, 9)
    assert SatInstance.make(2, [(1, 0), (0, 1)], 1) == SAT
