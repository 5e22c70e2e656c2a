"""The four seeded workloads: instance generation, the timed call, the check.

Each workload turns a seed into a fixed pool of items laid out in cycles of
strata, so any whole number of cycles holds the same mix.  ``run`` is the
timed call into the program; ``check`` re-derives the answer by an
independent route and runs outside the timed region.  Every call into
blockerlab goes through a module attribute (``monochromatic.min_mono...``),
so the traced run's rebinding reaches the benchmark's own calls as well.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from blockerlab import (
    bipartite_blocker,
    catalogue,
    cli,
    cotree,
    graph,
    graphio,
    monochromatic,
    oracle,
    parameters,
)
from blockerlab.errors import CapacityExceededError


class Rejected(Exception):
    """The independent check contradicts the program's answer."""


class Failed(Exception):
    """The call ended without an answer: an error, a refusal or a crash.

    ``kind`` is one of ``exception``, ``refusal``, ``exit>=2`` or, for an
    answer the independent check contradicts, ``rejected``.
    """

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


@dataclass
class Item:
    key: str  # stable name of the instance, for the self-check digests
    args: tuple
    extra: dict = field(default_factory=dict)


def call(fn, *args):
    """Run one timed call, mapping the program's refusals onto ``Failed``."""
    try:
        return fn(*args)
    except CapacityExceededError as exc:
        raise Failed("refusal", str(exc)) from exc


# -- generators owned by the benchmark ------------------------------------------


def random_cotree(rng: random.Random, n: int, join_p: float) -> cotree.Cotree:
    """Pair two random roots under a new inner node until one root is left."""
    roots = [cotree.CotreeLeaf(v) for v in range(n)]
    while len(roots) > 1:
        i, j = sorted(rng.sample(range(len(roots)), 2))
        right, left = roots.pop(j), roots.pop(i)
        roots.append(cotree.CotreeInner(1 if rng.random() < join_p else 0, left, right))
    return cotree.Cotree(roots[0])


def random_cograph(rng: random.Random, n: int, chis) -> tuple[graph.Graph, int]:
    """A random cograph on n vertices whose chromatic number lies in ``chis``."""
    while True:
        t = random_cotree(rng, n, 0.4)
        if t.chi in chis:
            return cotree.realize_cotree(t), t.chi


def bipartite_with_edges(rng: random.Random, n: int, m: int, p: float, alpha: int) -> graph.Graph:
    """A random connected bipartite graph with m edges and independence number alpha."""
    while True:
        g = catalogue.random_connected_bipartite(rng, n, p)
        if g.edge_count() == m and exact(g, "alpha") == alpha:
            return g


def connected_with_edges(rng: random.Random, n: int, m: int, p: float, values=None) -> graph.Graph:
    """A random connected graph with m edges and, if given, these (alpha, omega, chi)."""
    while True:
        g = catalogue.random_connected_graph(rng, n, p)
        if g.edge_count() == m and (values is None or tuple(exact(g, x) for x in ("alpha", "omega", "chi")) == values):
            return g


def threshold_chain(rng: random.Random, n: int) -> graph.Graph:
    """Each new vertex alternately stays isolated or joins all earlier ones,
    under a random vertex labelling: the deepest cotree on n vertices."""
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[i], label[j]) for i in range(1, n, 2) for j in range(i)]
    return graph.Graph(n, edges)


def plain(x):
    """Graphs as their vertex count and edge list, inside tuples and lists."""
    if isinstance(x, graph.Graph):
        return x.n, sorted(x.edges())
    if isinstance(x, (tuple, list)):
        return tuple(plain(y) for y in x)
    return x


# -- independent checks ------------------------------------------------------------


def exact(g: graph.Graph, parameter: str) -> int:
    fn = {"alpha": parameters.alpha_exact, "omega": parameters.omega_exact, "chi": parameters.chi_exact}
    return fn[parameter](g).value


def apply_graph_operation(g: graph.Graph, operation: str, witness) -> graph.Graph:
    if operation == "contract":
        return graph.contract_edges(g, witness)[0]
    if operation == "delete-vertices":
        return graph.delete_vertices(g, witness)[0]
    return graph.delete_edges(g, witness)


def require(ok: bool, detail: str) -> None:
    if not ok:
        raise Rejected(detail)


def check_drop(g, operation, parameter, k, d, witness, before, after) -> None:
    """A yes-witness, re-applied with graph operations, must drop the parameter."""
    require(len(witness) <= k, f"witness of size {len(witness)} exceeds k={k}")
    recomputed = exact(apply_graph_operation(g, operation, witness), parameter)
    require(recomputed == after, f"claimed {parameter} after {after}, recomputed {recomputed}")
    require(recomputed <= before - d, f"{parameter} {before} -> {recomputed} misses d={d}")


def check_colouring(g, count: int, colouring, colours: int) -> None:
    require(len(colouring) == g.n, "colouring does not cover the vertices")
    require(all(1 <= c <= colours for c in colouring), f"colouring leaves the {colours}-colour budget")
    recount = monochromatic.count_monochromatic_edges(g, colouring)
    require(recount == count, f"claimed {count} monochromatic edges, recounted {recount}")


def is_bipartite_connected(g: graph.Graph) -> bool:
    side = {0: 0} if g.n else {}
    frontier = list(side)
    while frontier:
        u = frontier.pop()
        for v in g.neighbours(u):
            if v not in side:
                side[v] = 1 - side[u]
                frontier.append(v)
            elif side[v] == side[u]:
                return False
    return len(side) == g.n


def is_chordal(g: graph.Graph) -> bool:
    """Repeatedly remove a vertex whose remaining neighbours form a clique."""
    alive = set(range(g.n))
    while alive:
        for v in alive:
            nb = [u for u in g.neighbours(v) if u in alive]
            if all(g.has_edge(a, b) for a, b in itertools.combinations(nb, 2)):
                alive.remove(v)
                break
        else:
            return False
    return True


def canonical_form(g: graph.Graph) -> tuple:
    edges = g.edges()
    return min(
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
        for p in itertools.permutations(range(g.n))
    )


# -- workloads -------------------------------------------------------------------


class Workload:
    """One set of seeded inputs.

    The pool holds ``pool_cycles`` cycles of ``cycle`` items, each cycle
    the same stratified mix.  A run goes through it cycle by cycle and
    stops on a cycle boundary; it wraps round to the first cycle, and it
    calls every item at least ``min_rounds`` times (0: a run may end
    before the end of the pool).  ``tail_percentile`` is the percentile
    reported as the tail when the run has at least ten calls beyond it (it
    steps down otherwise).  ``replay_cycles`` is the fixed prefix the
    traced run replays, so its call counts depend on the seed alone.  A
    workload that ``spawns_processes`` does its work in child processes.
    """

    name = ""
    spawns_processes = False
    cycle = 1
    pool_cycles = 1
    min_rounds = 0
    replay_cycles = 1
    tail_percentile = 90

    def generate(self, seed: int, workdir: Path) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, result) -> None:
        raise NotImplementedError

    def answer_key(self, item: Item, result) -> str:
        return repr(result)

    def fingerprint(self, item: Item) -> str:
        """The instance itself, for the self-check: the same seed must give the same one."""
        return f"{item.key} {plain(item.args)!r}"

    def derived(self, records) -> dict:
        """Ratios and route counts for the traced run; ``records`` holds
        (item, result or None, call-count deltas) per replayed item."""
        return {}


class CographColouring(Workload):
    """Both colouring DPs over the cotree of a random cograph.

    Cycle: one fresh 16-vertex cograph with chi = 5 for each of d = 1, 2, 3,
    solved with h = chi - d colours by the fixed-h DP and with deficiency d
    by the deficiency DP.  The two optima must agree.
    """

    name = "cograph_colouring"
    N = 16
    CHI = 5
    cycle = 3
    pool_cycles = 300
    replay_cycles = 40
    tail_percentile = 95

    def generate(self, seed, workdir):
        rng = random.Random(seed)
        items = []
        for c in range(self.pool_cycles):
            for d in (1, 2, 3):
                g, chi = random_cograph(rng, self.N, (self.CHI,))
                items.append(Item(f"cog{c}/d{d}", (g, d), {"chi": chi}))
        return items

    def run(self, item):
        g, d = item.args
        t = call(cotree.build_cotree, g)
        fixed = call(monochromatic.min_mono_edges_fixed_h, t, t.chi - d)
        deficiency = call(monochromatic.min_mono_edges_deficiency, t, d)
        return t.chi, fixed, deficiency

    def check(self, item, result):
        g, d = item.args
        chi, (fixed_count, fixed_col), (def_count, def_col) = result
        require(chi == item.extra["chi"], f"cotree chi {chi}, generator chi {item.extra['chi']}")
        require(fixed_count == def_count, f"fixed-h DP {fixed_count} != deficiency DP {def_count}")
        check_colouring(g, fixed_count, fixed_col, chi - d)
        check_colouring(g, def_count, def_col, chi - d)

    def answer_key(self, item, result):
        return repr((result[0], result[1][0], result[2][0]))


class BipartiteBlocker(Workload):
    """The polynomial contraction blocker for alpha on bipartite graphs.

    Cycle: for d in {2, 3} and every k in 1..2d+1, two 10-vertex graphs with
    12 edges (enumeration and tree routes), one with alpha 5 and one with
    alpha 6, and one 5-vertex graph (the tiny oracle route).  No-instances
    stay in.  Alpha sets the cost: on 200 seeded graphs a sweep over (d, k)
    took 4.5 times as long at alpha 5 as at alpha 6, because d = 3 with
    k = 4 was a no, which enumerates every edge set, for 55% of the alpha-5
    graphs and for none of the alpha-6 ones.  Fixing the mix keeps that
    ratio out of the seed.
    """

    name = "bipartite_blocker"
    SHAPES = ((10, 12, 0.3, 5), (10, 12, 0.3, 6), (5, None, 0.5, None))  # (n, m or any, p, alpha or any)
    DK = tuple((d, k) for d in (2, 3) for k in range(1, 2 * d + 2))
    CHECK_BUDGET = 5000  # subsets the oracle may spend cross-checking one no
    cycle = len(SHAPES) * len(DK)
    pool_cycles = 60
    replay_cycles = 8
    tail_percentile = 99

    def generate(self, seed, workdir):
        rng = random.Random(seed)
        items = []
        for c in range(self.pool_cycles):
            for s, (n, m, p, alpha) in enumerate(self.SHAPES):
                if m is None:
                    g = catalogue.random_connected_bipartite(rng, n, p)
                else:
                    g = bipartite_with_edges(rng, n, m, p, alpha)
                items.extend(Item(f"bip{c}.{s}/d{d}k{k}", (g, k, d)) for d, k in self.DK)
        return items

    def run(self, item):
        g, k, d = item.args
        return call(bipartite_blocker.solve_bipartite_contraction_blocker, g, k, d)

    def check(self, item, outcome):
        g, k, d = item.args
        alpha = exact(g, "alpha")
        require(outcome.alpha_before == alpha, f"alpha before {outcome.alpha_before}, exact {alpha}")
        if outcome.answer:
            w = outcome.witness
            check_drop(g, "contract", "alpha", k, d, w.edges, alpha, w.claimed_alpha_after)
            return
        query = oracle.BlockerQuery(g, "contract", "alpha", k, d)
        try:
            truth = oracle.brute_blocker(query, budget=self.CHECK_BUDGET)
        except CapacityExceededError:
            return  # beyond the cross-check budget: the no stays unchecked
        if truth.answer:
            raise Rejected(f"solver says no, oracle finds {sorted(truth.witness)}")

    def answer_key(self, item, outcome):
        witness = sorted(outcome.witness.edges) if outcome.answer else None
        return repr((outcome.answer, outcome.alpha_before, witness))

    def route(self, item) -> str:
        """The dispatch branch, from properties observable in the input."""
        g, k, d = item.args
        if g.n <= 2 * d + 1:
            return "tiny_oracle"
        if exact(g, "alpha") <= d:
            return "alpha_le_d"
        return "tree" if k >= 2 * d + 1 else "enumerate"

    def derived(self, records):
        routes = dict.fromkeys(("tiny_oracle", "alpha_le_d", "tree", "enumerate"), 0)
        yes = calls = 0
        for item, outcome, delta in records:
            r = self.route(item)
            routes[r] += 1
            if r == "enumerate":
                calls += delta["bipartite_blocker.alpha_after_contraction_bipartite"]
                yes += bool(outcome and outcome.answer)
        out = {f"bipartite_blocker.route.{r}.count": n for r, n in routes.items()}
        out["bipartite_blocker.enumerate.hit_ratio"] = yes / calls if calls else 0.0
        return out


class OracleExhaustive(Workload):
    """Budgeted brute force over every operation and parameter.

    One instance is one connected 8-vertex graph with 13 edges and
    (alpha, omega, chi) = (4, 3, 3), the most common values at this size;
    its answer is the table of all three operations times alpha, omega and
    chi with k = 3 and d = 2.  A single query's cost depends on whether it
    stops at an early witness, so per query the latencies form far-apart
    groups whose median is unstable; so do whole tables across different
    parameter values.  One table over fixed values is one group.
    """

    name = "oracle_exhaustive"
    N, M, P = 8, 13, 0.45
    VALUES = (4, 3, 3)
    K, D = 3, 2
    QUERIES = tuple(itertools.product(oracle.OPERATIONS, oracle.PARAMETERS))
    pool_cycles = 40
    min_rounds = 3
    replay_cycles = 40
    tail_percentile = 90

    def generate(self, seed, workdir):
        rng = random.Random(seed)
        return [Item(f"ora{c}", (connected_with_edges(rng, self.N, self.M, self.P, self.VALUES),))
                for c in range(self.pool_cycles)]

    def run(self, item):
        (g,) = item.args
        return [call(oracle.brute_blocker, oracle.BlockerQuery(g, op, par, self.K, self.D))
                for op, par in self.QUERIES]

    def check(self, item, answers):
        (g,) = item.args
        for (op, par), answer in zip(self.QUERIES, answers):
            before = exact(g, par)
            require(answer.value_before == before, f"{op}/{par}: before {answer.value_before}, exact {before}")
            if answer.answer:
                check_drop(g, op, par, self.K, self.D, answer.witness, before, answer.value_after)

    def answer_key(self, item, answers):
        return repr([(a.answer, a.value_before, sorted(a.witness) if a.answer else None) for a in answers])

    def derived(self, records):
        yes = sum(a.answer for _, answers, _ in records if answers for a in answers)
        applied = sum(delta["oracle.apply_operation"] for _, _, delta in records)
        return {"oracle.hit_ratio": yes / applied if applied else 0.0}


# -- the command line, end to end ---------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


class CliRoundtrip(Workload):
    """Every subcommand as its own process, one at a time.

    Cycle (26 invocations on fresh inputs): ``param`` on a bipartite, a
    chordal, a cograph and a general graph; ``cotree`` on a small cograph
    and on threshold chains of 150 and 170 vertices; ``blocker``;
    ``oracle``; ``mono`` fixed-h and deficiency on a 14-vertex cograph and
    deficiency on a 22-vertex one; the three ``reduce`` constructions;
    ``catalogue`` of the bipartite and the chordal class; and ``verify`` on
    each of the nine reports.  The four slow calls (the two threshold-chain
    cotrees and the two catalogues) are 15% of a cycle, so the p90 tail
    falls inside them rather than on the border between them and the rest,
    and four rounds give it ten calls beyond.
    """

    name = "cli_roundtrip"
    spawns_processes = True
    cycle = 26
    pool_cycles = 1
    min_rounds = 4
    replay_cycles = 1
    tail_percentile = 90
    THRESHOLD_NS = (150, 170)

    def __init__(self, src: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.in_process = False
        self.catalogues_checked = set()

    def generate(self, seed, workdir):
        rng = random.Random(seed)
        items = []
        for c in range(self.pool_cycles):
            items.extend(self._cycle(rng, c, workdir))
        return items

    def _cycle(self, rng, c, workdir):
        def write(name, text):
            path = workdir / f"c{c}_{name}"
            path.write_text(text)
            return str(path)

        fmt = graphio.format_graph
        bip = catalogue.random_connected_bipartite(rng, 10, 0.3)
        chordal = catalogue.random_chordal(rng, 12)
        small, small_chi = random_cograph(rng, 14, (3, 4))
        large, large_chi = random_cograph(rng, 22, (3, 4))
        general = catalogue.random_connected_graph(rng, 10, 0.4)
        chain, long_chain = (threshold_chain(rng, n) for n in self.THRESHOLD_NS)
        k, d = rng.randint(1, 3), rng.randint(1, 2)
        variables = 4
        pairs = list(itertools.combinations(range(1, variables + 1), 2))
        clauses = rng.sample(pairs, rng.randint(2, 4))
        sat_k = rng.randint(1, 2)
        mss = [rng.randint(1, 4) for _ in range(4)]
        mss_j = sum(mss) ** 2 // 2

        f = {
            "bip": write("bip.graph", fmt(bip)),
            "chordal": write("chordal.graph", fmt(chordal)),
            "small": write("small.graph", fmt(small)),
            "large": write("large.graph", fmt(large)),
            "general": write("general.graph", fmt(general)),
            "chain": write("chain.graph", fmt(chain)),
            "long_chain": write("long_chain.graph", fmt(long_chain)),
            "sat": write("inst.sat", f"p wp2sat {variables} {len(clauses)} {sat_k}\n"
                         + "".join(f"{x} {y}\n" for x, y in clauses)),
            "mss": write("inst.mss", f"4 2 {mss_j}\n{' '.join(map(str, mss))}\n"),
        }
        graphs = {"bip": bip, "chordal": chordal, "small": small, "large": large,
                  "general": general, "chain": chain, "long_chain": long_chain}
        chis = {"small": small_chi, "large": large_chi}
        shared = {"k": k, "d": d, "sat": (variables, clauses, sat_k), "mss": mss}

        plan = [
            ("param-bip", ["param", "--kind", "alpha", "--class", "bipartite", f["bip"]], "bip"),
            ("param-chordal", ["param", "--kind", "alpha", "--class", "chordal", f["chordal"]], "chordal"),
            ("param-cograph", ["param", "--kind", "chi", "--class", "cograph", f["small"]], "small"),
            ("param-general", ["param", "--kind", "omega", f["general"]], "general"),
            ("cotree-small", ["cotree", f["small"]], "small"),
            ("cotree-chain", ["cotree", f["chain"]], "chain"),
            ("cotree-long-chain", ["cotree", f["long_chain"]], "long_chain"),
            ("blocker", ["blocker", "-k", str(k), "-d", str(d), f["bip"]], "bip"),
            ("oracle", ["oracle", "--op", "contract", "--param", "alpha", "-k", str(k), "-d", str(d), f["bip"]], "bip"),
            ("mono-fixed", ["mono", "--mode", "fixed-h", "-h", str(small_chi - 1), f["small"]], "small"),
            ("mono-def", ["mono", "--mode", "deficiency", "-d", "1", f["small"]], "small"),
            ("mono-def-large", ["mono", "--mode", "deficiency", "-d", "1", f["large"]], "large"),
            ("reduce-vc2cb", ["reduce", "vc2cb", "-k", "3", f["bip"]], "bip"),
            ("reduce-sat2chordal", ["reduce", "sat2chordal", f["sat"]], None),
            ("reduce-mss2mono", ["reduce", "mss2mono", f["mss"]], None),
            ("catalogue-bipartite", ["catalogue", "--class", "bipartite", "--n", "7"], None),
            ("catalogue-chordal", ["catalogue", "--class", "chordal", "--n", "7"], None),
        ]
        items, verifies = [], []
        for name, argv, gname in plan:
            extra = {"graph": graphs.get(gname), "chi": chis.get(gname), **shared}
            if name.split("-")[0] in ("param", "blocker", "oracle", "mono"):
                extra["report"] = str(workdir / f"c{c}_{name}.json")
                verifies.append(Item(f"cli{c}/verify-{name}", ("verify", ["verify", extra["report"], argv[-1]])))
            items.append(Item(f"cli{c}/{name}", (name, argv), extra))
        return items + verifies

    def run(self, item):
        _, argv = item.args
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejecting the arguments
                    code = exc.code
            result = CliResult(code, out.getvalue(), err.getvalue())
        else:
            proc = subprocess.run([sys.executable, "-m", "blockerlab.cli", *argv], env=self.env,
                                  capture_output=True, text=True, check=False)
            result = CliResult(proc.returncode, proc.stdout, proc.stderr)
        if "report" in item.extra:
            Path(item.extra["report"]).write_text(result.stdout)
        if result.code >= 2:
            kind = "refusal" if result.code == 3 else "exit>=2"
            raise Failed(kind, f"exit {result.code}: {result.stderr.strip()[-200:]}")
        return result

    INPUT_SUFFIXES = (".graph", ".sat", ".mss")

    def fingerprint(self, item):
        # Input files by content; other paths (reports) by name, since the
        # work directory differs from run to run.
        _, argv = item.args
        return repr([Path(a).read_text() if a.endswith(self.INPUT_SUFFIXES)
                     else Path(a).name if os.sep in a else a for a in argv])

    def answer_key(self, item, result):
        text = result.stdout
        with contextlib.suppress(ValueError):
            report = json.loads(text)
            report.pop("wall_time_s", None)
            text = json.dumps(report, sort_keys=True)
        return repr((result.code, text))

    def check(self, item, result):
        name, _ = item.args
        x = item.extra
        g = x.get("graph")
        if name == "verify":
            report = json.loads(result.stdout)
            detail = report.get("detail", "")
            if detail.startswith("verification error"):
                # verify caught an exception of its own and answered invalid.
                raise Failed("exception", detail)
            require(result.code == 0 and report.get("valid") is True, f"verify rejected a valid report: {detail}")
            return
        if name.startswith("cotree"):
            t = cotree.parse_cotree_sexpr(result.stdout)
            require(cotree.realize_cotree(t) == g, "printed cotree does not realise the input graph")
            return
        if name.startswith("catalogue"):
            return self._check_catalogue(name, result.stdout)
        if name.startswith("reduce"):
            return self._check_reduce(name, json.loads(result.stdout), x)
        report = json.loads(result.stdout)
        if name.startswith("param"):
            kind, value = report["kind"], report["value"]
            require(value == exact(g, kind), f"param {kind}={value}, exact {exact(g, kind)}")
            witness = report["witness"]
            if kind == "chi":
                check_colouring(g, 0, witness["colouring"], value)
            else:
                vs = witness["vertices"]
                want = kind == "omega"
                require(len(vs) == value and all(g.has_edge(a, b) == want for a, b in itertools.combinations(vs, 2)),
                        f"{kind} witness does not certify {value}")
            return
        if name in ("blocker", "oracle"):
            k, d = x["k"], x["d"]
            if name == "blocker":
                truth = oracle.brute_blocker(oracle.BlockerQuery(g, "contract", "alpha", k, d)).answer
            else:
                truth = bipartite_blocker.solve_bipartite_contraction_blocker(g, k, d).answer
            require(result.code == (0 if truth else 1), f"{name} exit {result.code}, independent answer {truth}")
            require((report["answer"] == "yes") == truth, f"{name} answered {report['answer']}")
            if truth:
                edges = [tuple(e) for e in report["witness"]["edges"]]
                check_drop(g, "contract", "alpha", k, d, edges, exact(g, "alpha"), report["value_after"])
            return
        # mono runs with chi - 1 colours; the other DP gives the independent optimum.
        t = cotree.build_cotree(g)
        colours = x["chi"] - 1
        if report["mode"] == "fixed-h":
            other = monochromatic.min_mono_edges_deficiency(t, 1)[0]
        else:
            other = monochromatic.min_mono_edges_fixed_h(t, colours)[0]
        require(report["min_mono_edges"] == other, f"mono {report['min_mono_edges']}, other DP {other}")
        check_colouring(g, other, report["colouring"], colours)

    # Connected graphs on 1..7 vertices up to isomorphism: bipartite
    # (OEIS A005142) 1+1+1+3+5+17+44, chordal (A048193) 1+1+2+5+15+58+272.
    CATALOGUE_SIZES = {"catalogue-bipartite": 72, "catalogue-chordal": 354}

    def _check_catalogue(self, name, text):
        # Every cycle prints the same catalogues; check each distinct output once.
        if text in self.catalogues_checked:
            return
        graphs = [graphio.parse_graph(c) for c in text.split("\n\n") if c.strip()]
        want = self.CATALOGUE_SIZES[name]
        require(len(graphs) == want, f"{name} lists {len(graphs)} graphs, expected {want}")
        if name == "catalogue-bipartite":
            require(all(is_bipartite_connected(g) for g in graphs), "catalogue lists a graph outside the class")
            require(len({canonical_form(g) for g in graphs}) == want, "catalogue lists isomorphic graphs twice")
        else:
            require(all(g.is_connected() and is_chordal(g) for g in graphs), "catalogue lists a graph outside the class")
        self.catalogues_checked.add(text)

    def _check_reduce(self, name, out, x):
        gadget = graphio.parse_graph(out["graph"])
        if name == "reduce-vc2cb":
            base, w = x["graph"], out["gadget_map"]["universal_vertex"]
            require(gadget.n == base.n + 1 and w == base.n, "vc2cb adds exactly one vertex")
            require(gadget.edge_count() == base.edge_count() + base.n
                    and all(gadget.has_edge(u, v) for u, v in base.edges())
                    and all(gadget.has_edge(v, w) for v in range(base.n)), "vc2cb gadget is not base plus a universal vertex")
        elif name == "reduce-sat2chordal":
            variables, clauses, k = x["sat"]
            gm = out["gadget_map"]
            require(len(gm["var_vertex"]) == variables and len(gm["clause_vertex"]) == len(clauses)
                    and all(len(cl) == 2 * k + 1 for cl in gm["var_clique"]), "sat2chordal gadget map has the wrong shape")
            require(gadget.n == variables * (2 * k + 2) + len(clauses), "sat2chordal gadget has the wrong size")
            require(is_chordal(gadget), "sat2chordal gadget is not chordal")
        else:
            a = x["mss"]
            parts = out["gadget_map"]["parts"]
            require(sorted(map(len, parts)) == sorted(a) and gadget.n == sum(a), "mss2mono parts do not match the tuple")
            require(gadget.edge_count() == (sum(a) ** 2 - sum(v * v for v in a)) // 2
                    and all(not gadget.has_edge(u, v) for p in parts for u, v in itertools.combinations(p, 2)),
                    "mss2mono gadget is not complete multipartite on the tuple")


WORKLOADS = ("cograph_colouring", "bipartite_blocker", "oracle_exhaustive", "cli_roundtrip")


def make(name: str, src: Path) -> Workload:
    if name == "cli_roundtrip":
        return CliRoundtrip(src)
    return {"cograph_colouring": CographColouring, "bipartite_blocker": BipartiteBlocker,
            "oracle_exhaustive": OracleExhaustive}[name]()
