"""Command-line interface: one binary, eight subcommands, JSON reports.

Decision subcommands (``blocker``, ``oracle``, ``verify``) exit 0 for yes /
valid and 1 for no / invalid; every subcommand exits 2 on bad input, 3
when an exhaustive routine refuses for capacity reasons and 4 on an internal
error, so a crash never reads as a "no".  Reports follow
``docs/report_schema.json`` and re-validate with the ``verify`` subcommand.
``param``, ``blocker``, ``oracle``, ``mono`` and ``reduce`` report through
one path, :func:`_answer`; its ``wall_time_s`` times the whole handler
(``mono``'s cotree included), and ``report.WITNESS_KEYS`` names every witness
key.  ``INPUT_PARSERS`` reads the input file of a ``reduce`` construction, for
the report and for ``verify`` alike; every other input file is a graph.

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
from . import graphio
from .graphio import format_graph, parse_graph

EXIT_YES = 0
EXIT_NO = 1
EXIT_BAD_INPUT = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


# The graphio parser of each reduce construction's input file; any other
# input is a graph.  Looked up by name at each call, so that a rebinding of
# the parsers (the benchmark's tracer) sees every call.
INPUT_PARSERS = {"vc2cb": "parse_graph", "sat2chordal": "parse_sat_instance",
                 "mss2mono": "parse_mss_instance"}


def _read_input(path: str, construction=None):
    """The bytes of an input file and what they parse to: the instance of a
    reduce construction, else a graph."""
    data = Path(path).read_bytes()
    # A report's construction may be any JSON value, hashable or not.
    name = INPUT_PARSERS.get(construction) if isinstance(construction, str) else None
    return data, getattr(graphio, name or "parse_graph")(data.decode())


def _answer(args) -> int:
    """Read, parse and digest the input, time ``args.handler(args, source)``,
    and emit the common head plus the fields it returns with its exit code."""
    from .report import base_report, digest_bytes

    data, source = _read_input(args.inputfile, getattr(args, "construction", None))
    start = time.perf_counter()
    code, fields = args.handler(args, source)
    report = base_report(args.command, digest_bytes(data), time.perf_counter() - start)
    report.update(fields)
    _emit(report)
    return code


def _param(args, g):
    from .parameters import certified_value
    from .report import witness_payload

    pv, used = certified_value(g, args.kind, args.klass)
    witness = witness_payload(pv.kind, pv.witness)
    return EXIT_YES, {"kind": pv.kind, "graph_class": used, "value": pv.value, "witness": witness}


def _blocker(args, g):
    """``blocker`` (the bipartite solver) and ``oracle`` (the exhaustive
    search): one report, plus ``graph_class`` or ``minimal``."""
    from .report import witness_payload

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
    return EXIT_YES if answer.answer else EXIT_NO, {
        "operation": args.op,
        "parameter": args.param,
        "k": args.k,
        "d": args.d,
        "answer": "yes" if answer.answer else "no",
        "witness": witness_payload(args.op, chosen) if answer.answer else None,
        "value_before": before,
        "value_after": after,
        **extra,
    }


def _mono(args, g):
    from .cotree import build_cotree
    from .monochromatic import (
        min_mono_edges_deficiency,
        min_mono_edges_fixed_h,
        monochromatic_edge_set,
    )
    from .report import edges_payload

    t = build_cotree(g)
    if args.mode == "fixed-h":
        if args.h is None:
            raise GraphFormatError("--mode fixed-h needs -h")
        count, colouring = min_mono_edges_fixed_h(t, args.h)
        extra = {"h": args.h}
    else:
        if args.d is None:
            raise GraphFormatError("--mode deficiency needs -d")
        count, colouring = min_mono_edges_deficiency(t, args.d)
        extra = {"d": args.d, "chi": t.chi}
    return EXIT_YES, {
        "mode": args.mode,
        "min_mono_edges": count,
        "colouring": list(colouring),
        "deleted_edges": edges_payload(monochromatic_edge_set(g, colouring)),
        **extra,
    }


def _cmd_cotree(args) -> int:
    from .cotree import build_cotree, cotree_sexpr

    print(cotree_sexpr(build_cotree(parse_graph(Path(args.graphfile).read_bytes().decode()))))
    return EXIT_YES


def _reduce(args, source):
    from .reductions import gadget_fields

    if args.construction == "vc2cb" and args.k is None:
        raise GraphFormatError("vc2cb needs -k (the cover budget)")
    fields = gadget_fields(args.construction, source, args.k)
    if args.output:
        Path(args.output).write_text(fields["graph"])
        fields["graph_file"] = args.output
    return EXIT_YES, fields


def _cmd_catalogue(args) -> int:
    from .catalogue import graph_catalogue

    graphs = graph_catalogue(args.klass, args.n)
    texts = [format_graph(g, comment=f"{args.klass} #{i} n={g.n}") for i, g in enumerate(graphs)]
    if args.outdir:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(texts):
            (outdir / f"{args.klass}_{i:04d}.graph").write_text(text)
        print(f"wrote {len(texts)} graphs to {outdir}")
    else:
        sys.stdout.write("".join(text + "\n" for text in texts))
    return EXIT_YES


def _cmd_verify(args) -> int:
    from .report import load_report, verify_report

    report = load_report(Path(args.reportfile).read_bytes().decode())
    construction = report.get("construction") if report.get("subcommand") == "reduce" else None
    data, source = _read_input(args.inputfile, construction)
    ok, detail = verify_report(report, source, data)
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
    p.add_argument("inputfile", metavar="graphfile")
    p.set_defaults(fn=_answer, handler=_param)

    p = sub.add_parser("cotree", help="print a cotree as an s-expression")
    p.add_argument("graphfile")
    p.set_defaults(fn=_cmd_cotree)

    p = sub.add_parser("blocker", help="polynomial bipartite contraction blocker")
    p.add_argument("--op", default="contract", choices=["contract"])
    p.add_argument("--param", default="alpha", choices=["alpha"])
    p.add_argument("--class", dest="klass", default="bipartite", choices=["bipartite"])
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("inputfile", metavar="graphfile")
    p.set_defaults(fn=_answer, handler=_blocker)

    p = sub.add_parser(
        "mono",
        help="minimum monochromatic edges on cographs",
        add_help=False,
    )
    p.add_argument("--help", action="help", help="show this help message and exit")
    p.add_argument("--mode", required=True, choices=["fixed-h", "deficiency"])
    p.add_argument("-h", type=int, default=None, help="number of colours (fixed-h mode)")
    p.add_argument("-d", type=int, default=None, help="colour deficiency (deficiency mode)")
    p.add_argument("inputfile", metavar="graphfile")
    p.set_defaults(fn=_answer, handler=_mono)

    p = sub.add_parser("oracle", help="brute-force blocker ground truth")
    p.add_argument("--op", required=True, choices=["contract", "delete-vertices", "delete-edges"])
    p.add_argument("--param", required=True, choices=["alpha", "omega", "chi"])
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("inputfile", metavar="graphfile")
    p.set_defaults(fn=_answer, handler=_blocker)

    p = sub.add_parser("reduce", help="build a hardness gadget from an instance")
    p.add_argument("construction", choices=list(INPUT_PARSERS))
    p.add_argument("inputfile", metavar="instancefile")
    p.add_argument("-k", type=int, default=None, help="cover budget (vc2cb only)")
    p.add_argument("-o", "--output", default=None, help="also write the gadget graph here")
    p.set_defaults(fn=_answer, handler=_reduce)

    p = sub.add_parser("catalogue", help="enumerate small connected graphs of a class")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=_cmd_catalogue)

    p = sub.add_parser("verify", help="re-check a report against its input file")
    p.add_argument("reportfile")
    p.add_argument("inputfile")
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
