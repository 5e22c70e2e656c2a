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

from .cotree import build_cotree, proper_colouring
from .errors import CertificateError
from .graph import Graph, contract_edges, delete_edges, delete_vertices
from .parameters import ParameterValue, alpha_exact, chi_exact, omega_exact, validate_witness

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


def _exact(g: Graph, parameter: str) -> int:
    return {"alpha": alpha_exact, "omega": omega_exact, "chi": chi_exact}[parameter](
        g
    ).value


def _apply(g: Graph, operation: str, witness: dict) -> Graph:
    if operation == "contract":
        return contract_edges(g, [tuple(e) for e in witness["edges"]])[0]
    if operation == "delete-vertices":
        return delete_vertices(g, witness["vertices"])[0]
    if operation == "delete-edges":
        return delete_edges(g, [tuple(e) for e in witness["edges"]])
    raise ValueError(f"unknown operation {operation!r}")


def verify_report(report: dict, g: Graph, graph_bytes: Optional[bytes] = None) -> tuple[bool, str]:
    """Recompute a report's claim from its witness.  Returns (ok, detail)."""
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


def _verify_blocker(report: dict, g: Graph) -> tuple[bool, str]:
    parameter = report["parameter"]
    operation = report["operation"]
    before = _exact(g, parameter)
    if report.get("value_before") is not None and report["value_before"] != before:
        return False, f"reported before-value {report['value_before']}, recomputed {before}"
    if report["answer"] == "no":
        return True, "no-answer; nothing to verify beyond the input value"
    witness = report.get("witness") or {}
    size = len(witness.get("edges", [])) + len(witness.get("vertices", []))
    if size > report["k"]:
        return False, f"witness has {size} elements, budget k={report['k']}"
    after = _exact(_apply(g, operation, witness), parameter)
    if report.get("value_after") is not None and report["value_after"] != after:
        return False, f"reported after-value {report['value_after']}, recomputed {after}"
    if after > before - report["d"]:
        return False, f"drop not achieved: {before} -> {after}, d={report['d']}"
    return True, f"witness drops {parameter} from {before} to {after}"


def _verify_param(report: dict, g: Graph) -> tuple[bool, str]:
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
    if kind in ("alpha", "omega", "chi"):
        exact = _exact(g, kind)
    elif kind == "mu":
        exact = g.n - _exact(g, "alpha")  # König on bipartite inputs
    else:
        exact = g.n - _exact(g, "alpha")
    if value != exact:
        return False, f"reported {kind}={value}, recomputed {exact}"
    return True, f"{kind}={value} certified"


def _verify_mono(report: dict, g: Graph) -> tuple[bool, str]:
    colouring = tuple(report["colouring"])
    if len(colouring) != g.n:
        return False, "colouring does not cover the vertex set"
    if report["mode"] == "fixed-h":
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

    Cographs are perfect, so the cotree's proper colouring uses exactly
    omega colours.  Unlike ``chi_exact`` (n <= 20) this reaches the clique
    solver's ceiling.
    """
    clique = omega_exact(g)
    colouring = ParameterValue("chi", clique.value, proper_colouring(build_cotree(g)))
    if not validate_witness(g, clique):
        raise CertificateError("clique witness is not a clique")
    if not validate_witness(g, colouring):
        raise CertificateError(f"no proper colouring with {clique.value} colours")
    return clique.value


def load_report(text: str) -> dict:
    report = json.loads(text)
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    return report
