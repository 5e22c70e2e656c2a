"""Run reports and their independent verification.

Every answering subcommand emits a JSON report (schema in
``docs/report_schema.json``).  :func:`verify_report` re-validates the
report's witness and recomputes every claimed value with
``parameters.certified_value``, the table ``param`` answers from.  On a
bipartite, chordal or cograph input that value is proved by two validated
witnesses of one size, at any size; elsewhere it comes from an exact solver,
which refuses (exit 3) above its size ceiling.  A blocker witness is
re-applied with the graph operations, so a verified yes answer does not
depend on the solver that produced it.  A ``reduce`` report is checked by
rebuilding its fields from the input file with ``reductions.gadget_fields``,
the builder that wrote them.  Each verifier imports the solvers itself, so a
process that only writes a report loads none of them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from .errors import BlockerlabError, CapacityExceededError
from .graph import Graph

SCHEMA_VERSION = 1


def digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def base_report(subcommand: str, input_digest: str, wall_time_s: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "input_digest": input_digest,
        "wall_time_s": round(wall_time_s, 6),
    }


def edges_payload(edges) -> list[list[int]]:
    return [list(e) for e in sorted(edges)]


def vertices_payload(vertices) -> list[int]:
    return sorted(vertices)


# The witness key of each parameter kind (``param``) and each operation
# (``blocker``, ``oracle``), and how a witness is written under each key and
# read back.  The writers and the verifiers both go through these tables.
WITNESS_KEYS = {
    **dict.fromkeys(("alpha", "omega", "tau", "delete-vertices"), "vertices"),
    **dict.fromkeys(("mu", "contract", "delete-edges"), "edges"),
    "chi": "colouring",
}
_PAYLOADS = {
    "vertices": (vertices_payload, frozenset),
    "edges": (edges_payload, lambda raw: frozenset(map(tuple, raw))),
    "colouring": (list, tuple),
}


def witness_payload(kind_or_operation: str, witness) -> dict:
    key = WITNESS_KEYS[kind_or_operation]
    return {key: _PAYLOADS[key][0](witness)}


def verify_report(report: dict, source, input_bytes: bytes) -> tuple[bool, str]:
    """Recompute a report's claim from its witness.  Returns (ok, detail).

    ``input_bytes`` is the input file, which the report's ``input_digest``
    must name, and ``source`` what it parses to: the instance of a
    ``reduce`` construction, else the graph.
    """
    if not isinstance(report, dict):
        return False, "report must be a JSON object"
    if "input_digest" not in report:
        return False, "report has no input_digest"
    if report["input_digest"] != digest_bytes(input_bytes):
        return False, "input digest does not match the input file"
    sub = report.get("subcommand")
    try:
        if sub in ("blocker", "oracle"):
            return _verify_blocker(report, source)
        if sub == "param":
            return _verify_param(report, source)
        if sub == "mono":
            return _verify_mono(report, source)
        if sub == "reduce":
            return _verify_reduce(report, source)
    except CapacityExceededError:
        raise  # "could not check" is a refusal, not "invalid"
    except BlockerlabError as exc:  # the library rejected a part of the report
        return False, str(exc)
    except Exception as exc:  # verification must never crash on bad reports
        return False, f"verification error: {exc}"
    return False, f"no verifier for subcommand {sub!r}"


def _integer_complaint(report: dict, *fields: tuple[str, int]) -> Optional[str]:
    """Name the first ``(key, least)`` field that is not an integer >= least."""
    for key, least in fields:
        # bool is an int subclass, but not an integer in the JSON schema.
        if type(report.get(key)) is not int or report[key] < least:
            return f"{key} must be an integer >= {least}, got {report.get(key)!r}"
    return None


def _entry_complaint(obj: dict, *keys: str) -> Optional[str]:
    """Name the first entry, or edge end, of a list ``obj[key]`` that is not
    an integer: a vertex, an edge or a colour is never true or 1.0."""
    for key in keys:
        for entry in obj.get(key, ()):
            for x in entry if isinstance(entry, list) else [entry]:
                if type(x) is not int:
                    return f"{key} must hold integers, got {x!r}"
    return None


def _verify_blocker(report: dict, g: Graph) -> tuple[bool, str]:
    from .oracle import OPERATIONS, PARAMETERS, apply_operation
    from .parameters import certified_value

    if report["answer"] not in ("yes", "no"):
        return False, f"answer must be 'yes' or 'no', got {report['answer']!r}"
    # The compared values may be null, but never a bool or a float: True == 1.
    nullable = [(key, 0) for key in ("value_before", "value_after") if report.get(key) is not None]
    if complaint := _integer_complaint(report, ("k", 0), ("d", 1), *nullable):
        return False, complaint
    parameter = report["parameter"]
    operation = report["operation"]
    if parameter not in PARAMETERS:
        return False, f"parameter must be one of {', '.join(PARAMETERS)}, got {parameter!r}"
    if operation not in OPERATIONS:
        return False, f"unknown operation {operation!r}"
    before = certified_value(g, parameter)[0].value
    if report.get("value_before") is not None and report["value_before"] != before:
        return False, f"reported before-value {report['value_before']}, recomputed {before}"
    if report["answer"] == "no":
        return True, "no-answer; nothing to verify beyond the input value"
    witness = report.get("witness") or {}
    if complaint := _entry_complaint(witness, "edges", "vertices"):
        return False, complaint
    size = len(witness.get("edges", [])) + len(witness.get("vertices", []))
    if size > report["k"]:
        return False, f"witness has {size} elements, budget k={report['k']}"
    chosen = witness[WITNESS_KEYS[operation]]
    after = certified_value(apply_operation(g, operation, chosen), parameter)[0].value
    if report.get("value_after") is not None and report["value_after"] != after:
        return False, f"reported after-value {report['value_after']}, recomputed {after}"
    if after > before - report["d"]:
        return False, f"drop not achieved: {before} -> {after}, d={report['d']}"
    return True, f"witness drops {parameter} from {before} to {after}"


def _verify_param(report: dict, g: Graph) -> tuple[bool, str]:
    from .parameters import ParameterValue, certified_value, validate_witness

    if complaint := _integer_complaint(report, ("value", 0)):
        return False, complaint
    kind = report["kind"]
    value = report["value"]
    key = WITNESS_KEYS.get(kind)
    if key is None:
        return False, f"unknown parameter kind {kind!r}"
    if complaint := _entry_complaint(report["witness"], key):
        return False, complaint
    pv = ParameterValue(kind, value, _PAYLOADS[key][1](report["witness"][key]))
    if not validate_witness(g, pv):
        return False, "witness does not certify the reported value"
    exact, route = certified_value(g, kind)
    if value != exact.value:
        return False, f"reported {kind}={value}, recomputed {exact.value} ({route} route)"
    return True, f"{kind}={value} certified ({route} route)"


def _verify_mono(report: dict, g: Graph) -> tuple[bool, str]:
    mode = report["mode"]
    if mode not in ("fixed-h", "deficiency"):
        return False, f"mode must be 'fixed-h' or 'deficiency', got {mode!r}"
    nullable = [("chi", 1)] if report.get("chi") is not None else []
    complaint = _integer_complaint(
        report, ("h", 1) if mode == "fixed-h" else ("d", 0), ("min_mono_edges", 0), *nullable
    ) or _entry_complaint(report, "colouring", "deleted_edges")
    if complaint:
        return False, complaint
    colouring = tuple(report["colouring"])
    if len(colouring) != g.n:
        return False, "colouring does not cover the vertex set"
    if mode == "fixed-h":
        limit = report["h"]
    else:
        from .parameters import certified_value

        chi = certified_value(g, "chi", "cograph")[0].value
        if report.get("chi") is not None and report["chi"] != chi:
            return False, f"reported chi {report['chi']}, recomputed {chi}"
        limit = chi - report["d"]
    if len(set(colouring)) > limit or any(c < 1 or c > limit for c in colouring):
        return False, f"colouring exceeds the {limit}-colour budget"
    mono = sorted((u, v) for u, v in g.edges() if colouring[u] == colouring[v])
    if len(mono) != report["min_mono_edges"]:
        return False, (
            f"colouring has {len(mono)} monochromatic edges, "
            f"reported {report['min_mono_edges']}"
        )
    deleted = sorted(tuple(e) for e in report.get("deleted_edges", []))
    if deleted != mono:
        return False, "deleted_edges do not match the monochromatic edges"
    return True, f"colouring certified with {len(mono)} monochromatic edges"


def _verify_reduce(report: dict, source) -> tuple[bool, str]:
    """Rebuild the report's fields from the input file and compare them."""
    from .reductions import gadget_fields

    construction = report.get("construction")
    if construction == "vc2cb" and (complaint := _integer_complaint(report, ("k", 0))):
        return False, complaint
    rebuilt = gadget_fields(construction, source, report.get("k"))
    field = _first_difference(rebuilt, {key: report.get(key) for key in rebuilt})
    if field:
        return False, f"{field} differs from the {construction} gadget rebuilt from the input file"
    return True, f"the {construction} gadget rebuilt from the input file matches the report"


def _first_difference(want, got, path: str = "") -> Optional[str]:
    """The dotted path of the first field where two JSON values differ."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in [*want, *(k for k in got if k not in want)]:
            found = _first_difference(want.get(key), got.get(key), f"{path}.{key}" if path else key)
            if found:
                return found
        return None
    # As JSON text, so that a tuple matches its list and true never matches 1.
    return None if json.dumps(want) == json.dumps(got) else path


def load_report(text: str) -> dict:
    try:
        report = json.loads(text)
    except RecursionError as exc:
        raise ValueError("report nests too deeply") from exc
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    return report
