"""Command-line interface: one binary, eight subcommands, JSON reports.

Decision subcommands (``blocker``, ``oracle``, ``verify``) exit 0 for yes /
valid and 1 for no / invalid; every subcommand exits 2 on bad input, 3
when an exhaustive routine refuses for capacity reasons and 4 on an internal
error, so a crash never reads as a "no".  Reports follow
``docs/report_schema.json`` and re-validate with the ``verify`` subcommand.

Each process runs one subcommand and most of its time is start-up, so this
module loads only ``errors`` and ``graphio`` from the package.  Each handler
imports the solvers, recognisers and report helpers it runs, and
``traceback`` is imported only to print an internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .errors import BlockerlabError, CapacityExceededError, GraphFormatError
from .graphio import format_graph, parse_graph, parse_mss_instance, parse_sat_instance

EXIT_YES = 0
EXIT_NO = 1
EXIT_BAD_INPUT = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _load_graph(path: str):
    from .report import digest_bytes

    data = _read(path)
    return parse_graph(data.decode()), digest_bytes(data)


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_param(args) -> int:
    from .parameters import certified_value
    from .report import base_report, edges_payload, vertices_payload

    g, digest = _load_graph(args.graphfile)
    start = time.perf_counter()
    pv, used = certified_value(g, args.kind, args.klass)
    report = base_report("param", digest, time.perf_counter() - start)
    if pv.kind in ("alpha", "omega", "tau"):
        witness = {"vertices": vertices_payload(pv.witness)}
    elif pv.kind == "mu":
        witness = {"edges": edges_payload(pv.witness)}
    else:
        witness = {"colouring": list(pv.witness)}
    report.update(
        {"kind": pv.kind, "graph_class": used, "value": pv.value, "witness": witness}
    )
    _emit(report)
    return EXIT_YES


def _cmd_cotree(args) -> int:
    from .cotree import cotree_sexpr
    from .recognizers import NotInClass, recognize_cograph

    g = parse_graph(_read(args.graphfile).decode())
    cert = recognize_cograph(g)
    if isinstance(cert, NotInClass):
        raise GraphFormatError(f"graph is not a cograph: induced P4 on {cert.witness}")
    print(cotree_sexpr(cert.cotree))
    return EXIT_YES


def _cmd_blocker(args) -> int:
    """``blocker`` (the bipartite solver) and ``oracle`` (the exhaustive
    search): one report, plus ``graph_class`` or ``minimal``."""
    from .report import base_report, edges_payload, vertices_payload

    g, digest = _load_graph(args.graphfile)
    start = time.perf_counter()
    if args.command == "oracle":
        from .oracle import BlockerQuery, brute_blocker

        answer = brute_blocker(BlockerQuery(g, args.op, args.param, args.k, args.d))
        chosen, before, after = answer.witness, answer.value_before, answer.value_after
        extra = {"minimal": answer.minimal}
    else:
        from .bipartite_blocker import solve_bipartite_contraction_blocker

        answer = solve_bipartite_contraction_blocker(g, args.k, args.d)
        chosen, after = answer.witness or (None, None)
        before = answer.alpha_before
        extra = {"graph_class": args.klass}
    report = base_report(args.command, digest, time.perf_counter() - start)
    witness = None
    if answer.answer:
        if args.op == "delete-vertices":
            witness = {"vertices": vertices_payload(chosen)}
        else:
            witness = {"edges": edges_payload(chosen)}
    report.update(
        {
            "operation": args.op,
            "parameter": args.param,
            "k": args.k,
            "d": args.d,
            "answer": "yes" if answer.answer else "no",
            "witness": witness,
            "value_before": before,
            "value_after": after,
            **extra,
        }
    )
    _emit(report)
    return EXIT_YES if answer.answer else EXIT_NO


def _cmd_mono(args) -> int:
    from .monochromatic import (
        min_mono_edges_deficiency,
        min_mono_edges_fixed_h,
        monochromatic_edge_set,
    )
    from .recognizers import NotInClass, recognize_cograph
    from .report import base_report, edges_payload

    g, digest = _load_graph(args.graphfile)
    cert = recognize_cograph(g)
    if isinstance(cert, NotInClass):
        raise GraphFormatError(f"graph is not a cograph: induced P4 on {cert.witness}")
    t = cert.cotree
    start = time.perf_counter()
    if args.mode == "fixed-h":
        if args.h is None:
            raise GraphFormatError("--mode fixed-h needs -h")
        count, colouring = min_mono_edges_fixed_h(t, args.h)
    else:
        if args.d is None:
            raise GraphFormatError("--mode deficiency needs -d")
        count, colouring = min_mono_edges_deficiency(t, args.d)
    report = base_report("mono", digest, time.perf_counter() - start)
    report.update(
        {
            "mode": args.mode,
            "min_mono_edges": count,
            "colouring": list(colouring),
            "deleted_edges": edges_payload(monochromatic_edge_set(g, colouring)),
        }
    )
    if args.mode == "fixed-h":
        report["h"] = args.h
    else:
        report["d"] = args.d
        report["chi"] = t.chi
    _emit(report)
    return EXIT_YES


def _cmd_reduce(args) -> int:
    from .reductions import build_chordal_gadget, build_mss_gadget, build_vc_gadget

    data = _read(args.instancefile)
    text = data.decode()
    out: dict = {"schema_version": 1, "subcommand": "reduce", "construction": args.construction}
    if args.construction == "vc2cb":
        if args.k is None:
            raise GraphFormatError("vc2cb needs -k (the cover budget)")
        g = parse_graph(text)
        gadget, gm = build_vc_gadget(g, args.k)
        out["gadget_map"] = {
            "universal_vertex": gm.universal_vertex,
            "base_vertex_count": gm.base_vertex_count,
        }
        out["k"] = args.k
    elif args.construction == "sat2chordal":
        sat = parse_sat_instance(text)
        gadget, gm = build_chordal_gadget(sat)
        out["gadget_map"] = {
            "var_vertex": list(gm.var_vertex),
            "var_clique": [list(cl) for cl in gm.var_clique],
            "clause_vertex": list(gm.clause_vertex),
        }
        out["instance"] = {
            "variables": sat.variable_count,
            "clauses": [list(c) for c in sat.clauses],
            "k": sat.k,
        }
    else:  # mss2mono
        mss = parse_mss_instance(text)
        gadget, gm, target = build_mss_gadget(mss)
        out["gadget_map"] = {"parts": [list(p) for p in gm.parts]}
        out["instance"] = {"ell": mss.ell, "a": list(mss.a), "h": mss.h, "J": mss.J}
        out["target"] = {"exact": str(target.exact), "budget": target.budget}
    out["graph"] = format_graph(gadget, comment=f"{args.construction} gadget")
    if args.output:
        Path(args.output).write_text(out["graph"])
        out["graph_file"] = args.output
    _emit(out)
    return EXIT_YES


def _cmd_catalogue(args) -> int:
    from .catalogue import graph_catalogue

    graphs = list(graph_catalogue(args.klass, args.n))
    if args.outdir:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, g in enumerate(graphs):
            name = outdir / f"{args.klass}_{i:04d}.graph"
            name.write_text(format_graph(g, comment=f"{args.klass} #{i} n={g.n}"))
        print(f"wrote {len(graphs)} graphs to {outdir}")
    else:
        for i, g in enumerate(graphs):
            sys.stdout.write(format_graph(g, comment=f"{args.klass} #{i} n={g.n}"))
            sys.stdout.write("\n")
    return EXIT_YES


def _cmd_verify(args) -> int:
    from .report import load_report, verify_report

    report = load_report(_read(args.reportfile).decode())
    data = _read(args.graphfile)
    g = parse_graph(data.decode())
    ok, detail = verify_report(report, g, data)
    _emit({"valid": ok, "detail": detail})
    return EXIT_YES if ok else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockerlab",
        description="Blocker problems: reduce alpha/omega/chi by contractions or deletions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("param", help="exact parameter values with witnesses")
    p.add_argument("--kind", required=True, choices=["alpha", "omega", "chi", "mu", "tau"])
    p.add_argument("--class", dest="klass", default="auto",
                   choices=["auto", "bipartite", "chordal", "cograph"])
    p.add_argument("graphfile")
    p.set_defaults(fn=_cmd_param)

    p = sub.add_parser("cotree", help="print a cotree as an s-expression")
    p.add_argument("graphfile")
    p.set_defaults(fn=_cmd_cotree)

    p = sub.add_parser("blocker", help="polynomial bipartite contraction blocker")
    p.add_argument("--op", default="contract", choices=["contract"])
    p.add_argument("--param", default="alpha", choices=["alpha"])
    p.add_argument("--class", dest="klass", default="bipartite", choices=["bipartite"])
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("graphfile")
    p.set_defaults(fn=_cmd_blocker)

    p = sub.add_parser(
        "mono",
        help="minimum monochromatic edges on cographs",
        add_help=False,
    )
    p.add_argument("--help", action="help", help="show this help message and exit")
    p.add_argument("--mode", required=True, choices=["fixed-h", "deficiency"])
    p.add_argument("-h", type=int, default=None, help="number of colours (fixed-h mode)")
    p.add_argument("-d", type=int, default=None, help="colour deficiency (deficiency mode)")
    p.add_argument("graphfile")
    p.set_defaults(fn=_cmd_mono)

    p = sub.add_parser("oracle", help="brute-force blocker ground truth")
    p.add_argument("--op", required=True, choices=["contract", "delete-vertices", "delete-edges"])
    p.add_argument("--param", required=True, choices=["alpha", "omega", "chi"])
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("graphfile")
    p.set_defaults(fn=_cmd_blocker)

    p = sub.add_parser("reduce", help="build a hardness gadget from an instance")
    p.add_argument("construction", choices=["vc2cb", "sat2chordal", "mss2mono"])
    p.add_argument("instancefile")
    p.add_argument("-k", type=int, default=None, help="cover budget (vc2cb only)")
    p.add_argument("-o", "--output", default=None, help="also write the gadget graph here")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("catalogue", help="enumerate small connected graphs of a class")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=_cmd_catalogue)

    p = sub.add_parser("verify", help="re-check a report against its graph")
    p.add_argument("reportfile")
    p.add_argument("graphfile")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapacityExceededError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (BlockerlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        import traceback

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
