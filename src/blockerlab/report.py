"""Run reports and their independent verification.

Every answering subcommand emits a JSON report (schema in
``docs/report_schema.json``).  :func:`verify_report` recomputes the claim
from the witness using only the graph operations and the exact parameter
solvers, so a verified yes answer does not depend on the solver that
produced it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from .cotree import CotreeLeaf, build_cotree, proper_colouring
from .errors import CertificateError
from .graph import Graph
from .oracle import apply_operation, parameter_value
from .parameters import ParameterValue, validate_witness
from .recognizers import NotInClass, recognize_bipartite

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


def verify_report(report: dict, g: Graph, graph_bytes: Optional[bytes] = None) -> tuple[bool, str]:
    """Recompute a report's claim from its witness.  Returns (ok, detail)."""
    if not isinstance(report, dict):
        return False, "report must be a JSON object"
    if graph_bytes is not None:
        want = report.get("input_digest")
        if want and want != digest_bytes(graph_bytes):
            return False, "input digest does not match the graph file"
    sub = report.get("subcommand")
    try:
        if sub in ("blocker", "oracle"):
            return _verify_blocker(report, g)
        if sub == "param":
            return _verify_param(report, g)
        if sub == "mono":
            return _verify_mono(report, g)
    except Exception as exc:  # verification must never crash on bad reports
        return False, f"verification error: {exc}"
    return False, f"no verifier for subcommand {sub!r}"


def _integer_complaint(report: dict, *fields: tuple[str, int]) -> Optional[str]:
    """Name the first ``(key, least)`` field that is not an integer >= least."""
    for key, least in fields:
        # bool is an int subclass, but not an integer in the JSON schema.
        if type(report[key]) is not int or report[key] < least:
            return f"{key} must be an integer >= {least}, got {report[key]!r}"
    return None


def _verify_blocker(report: dict, g: Graph) -> tuple[bool, str]:
    if report["answer"] not in ("yes", "no"):
        return False, f"answer must be 'yes' or 'no', got {report['answer']!r}"
    complaint = _integer_complaint(report, ("k", 0), ("d", 1))
    if complaint:
        return False, complaint
    parameter = report["parameter"]
    operation = report["operation"]
    before = parameter_value(g, parameter)
    if report.get("value_before") is not None and report["value_before"] != before:
        return False, f"reported before-value {report['value_before']}, recomputed {before}"
    if report["answer"] == "no":
        return True, "no-answer; nothing to verify beyond the input value"
    witness = report.get("witness") or {}
    size = len(witness.get("edges", [])) + len(witness.get("vertices", []))
    if size > report["k"]:
        return False, f"witness has {size} elements, budget k={report['k']}"
    if operation == "delete-vertices":
        chosen = witness["vertices"]
    else:
        chosen = [tuple(e) for e in witness["edges"]]
    after = parameter_value(apply_operation(g, operation, chosen), parameter)
    if report.get("value_after") is not None and report["value_after"] != after:
        return False, f"reported after-value {report['value_after']}, recomputed {after}"
    if after > before - report["d"]:
        return False, f"drop not achieved: {before} -> {after}, d={report['d']}"
    return True, f"witness drops {parameter} from {before} to {after}"


def _verify_param(report: dict, g: Graph) -> tuple[bool, str]:
    complaint = _integer_complaint(report, ("value", 0))
    if complaint:
        return False, complaint
    kind = report["kind"]
    value = report["value"]
    witness = report["witness"]
    if kind in ("alpha", "omega", "tau"):
        wit = frozenset(witness["vertices"])
    elif kind == "mu":
        wit = frozenset(tuple(e) for e in witness["edges"])
    else:
        wit = tuple(witness["colouring"])
    pv = ParameterValue(kind, value, wit)
    if not validate_witness(g, pv):
        return False, "witness does not certify the reported value"
    if kind == "mu":
        cert = recognize_bipartite(g)
        if isinstance(cert, NotInClass):
            # König's mu = n - alpha holds on bipartite graphs only.
            return False, f"mu is verified on bipartite graphs only; odd cycle {list(cert.witness)}"
    if kind in ("alpha", "omega", "chi"):
        exact = parameter_value(g, kind)
    else:  # tau = n - alpha; mu = tau by König on bipartite inputs
        exact = g.n - parameter_value(g, "alpha")
    if value != exact:
        return False, f"reported {kind}={value}, recomputed {exact}"
    return True, f"{kind}={value} certified"


def _verify_mono(report: dict, g: Graph) -> tuple[bool, str]:
    mode = report["mode"]
    if mode not in ("fixed-h", "deficiency"):
        return False, f"mode must be 'fixed-h' or 'deficiency', got {mode!r}"
    complaint = _integer_complaint(
        report, ("h", 1) if mode == "fixed-h" else ("d", 0), ("min_mono_edges", 0)
    )
    if complaint:
        return False, complaint
    colouring = tuple(report["colouring"])
    if len(colouring) != g.n:
        return False, "colouring does not cover the vertex set"
    if mode == "fixed-h":
        limit = report["h"]
    else:
        chi = _cograph_chi(g)
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


def _cograph_chi(g: Graph) -> int:
    """Chi of a cograph, certified by a clique and a proper colouring of one size.

    Both come from the cotree, so no exhaustive solver and its size ceiling
    is involved: a node's largest clique is its larger child's at a union and
    both children's together at a join.  Cographs are perfect, so the
    cotree's proper colouring uses exactly that many colours.
    """
    t = build_cotree(g)
    cliques: list[tuple[int, ...]] = [()] * len(t.postorder)
    for node in t.postorder:
        if isinstance(node, CotreeLeaf):
            cliques[node.index] = (node.vertex,)
        else:
            left, right = cliques[node.left.index], cliques[node.right.index]
            cliques[node.index] = left + right if node.label == 1 else max(left, right, key=len)
    root = cliques[t.root.index]
    clique = ParameterValue("omega", len(root), frozenset(root))
    colouring = ParameterValue("chi", clique.value, proper_colouring(t))
    if not validate_witness(g, clique):
        raise CertificateError("clique witness is not a clique")
    if not validate_witness(g, colouring):
        raise CertificateError(f"no proper colouring with {clique.value} colours")
    return clique.value


def load_report(text: str) -> dict:
    try:
        report = json.loads(text)
    except RecursionError as exc:
        raise ValueError("report nests too deeply") from exc
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    return report
