"""Text formats for graphs and reduction instances, and the instance types.

Graph files: a header line ``n m`` followed by ``m`` lines ``u v`` with
0-based endpoints.  Lines starting with ``#`` and blank lines are ignored
anywhere.  Every CLI subcommand reads this format.

Satisfiability instances: ``p wp2sat <variables> <clauses> <k>`` followed by
one ``x y`` line per clause with 1-based variable numbers.

Sum-of-squares instances: ``<ell> <h> <J>`` followed by one line of ``ell``
positive integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import GadgetPreconditionError, GraphFormatError, InvalidEdgeError, InvalidVertexError
from .graph import Graph

# Adjacency is one bitmask per vertex, allocated up front: refuse a header
# that would allocate more than this many before any edge is read.
MAX_VERTICES = 1_000_000


@dataclass(frozen=True)
class SatInstance:
    """All-positive 2-clause CNF with a cap on the number of true variables."""

    variable_count: int
    clauses: tuple[tuple[int, int], ...]
    k: int

    def __post_init__(self):
        if self.variable_count < 1:
            raise GadgetPreconditionError("need at least one variable")
        if self.k < 0:
            raise GadgetPreconditionError("budget k must be non-negative")
        seen = set()
        for x, y in self.clauses:
            if x == y:
                raise GadgetPreconditionError("clauses must use two distinct variables")
            if not (0 <= x < self.variable_count and 0 <= y < self.variable_count):
                raise GadgetPreconditionError("clause variable out of range")
            seen.add((min(x, y), max(x, y)))
        if not seen:
            raise GadgetPreconditionError("need at least one clause")

    @classmethod
    def make(cls, variable_count: int, clauses, k: int) -> "SatInstance":
        """Normalise clause order and drop duplicates."""
        dedup = sorted({(min(x, y), max(x, y)) for x, y in clauses})
        return cls(variable_count, tuple(dedup), k)

    def satisfied_by(self, positives) -> bool:
        positives = set(positives)
        return all(x in positives or y in positives for x, y in self.clauses)


@dataclass(frozen=True)
class MssInstance:
    """Partition ``ell`` positive integers into ``h`` groups, bounding the
    sum of squared group sums by ``J``."""

    ell: int
    a: tuple[int, ...]
    h: int
    J: int

    def __post_init__(self):
        if self.ell < 1 or len(self.a) != self.ell:
            raise GadgetPreconditionError("tuple length must match ell >= 1")
        if any(x < 1 for x in self.a):
            raise GadgetPreconditionError("all entries must be positive")
        if self.h < 1:
            raise GadgetPreconditionError("h must be at least 1")


def _payload_lines(text: str) -> list[str]:
    """The stripped lines of ``text``, without blanks and ``#`` comments."""
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


# A payload line of exactly two whitespace-separated fields: ``\s`` is the
# whitespace that ``str.split`` splits on.
_EDGE_LINE = re.compile(r"\S+\s+\S+")


def parse_graph(text: str) -> Graph:
    lines = _payload_lines(text)
    if not lines:
        raise GraphFormatError("empty graph file")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"expected header 'n m', got {' '.join(header)!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header: {exc}") from exc
    if n < 0 or m < 0:
        raise GraphFormatError("n and m must be non-negative")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"n={n} exceeds the supported {MAX_VERTICES} vertices")
    body = lines[1:]
    if len(body) != m:
        raise GraphFormatError(f"header promises {m} edges, file has {len(body)}")
    # One bulk pass: ``Graph`` checks ranges and self-loops, the edge count
    # catches duplicates.  A bad file is re-read line by line to name its
    # first bad line.
    try:
        if all(map(_EDGE_LINE.fullmatch, body)):
            ends = list(map(int, " ".join(body).split()))
            g = Graph(n, zip(ends[0::2], ends[1::2]))
            if g.edge_count() == m:
                return g
    except (ValueError, InvalidEdgeError, InvalidVertexError):
        pass
    return Graph(n, _checked_edges(body, n))


def _checked_edges(body: list[str], n: int) -> list[tuple[int, int]]:
    edges = []
    seen = set()
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line {' '.join(parts)!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line: {exc}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge {u} {v} out of range for n={n}")
        if u == v:
            raise GraphFormatError(f"self-loop at {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"duplicate edge {u} {v}")
        seen.add(key)
        edges.append(key)
    return edges


def format_graph(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"{g.n} {g.edge_count()}")
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_sat_instance(text: str) -> SatInstance:
    lines = _payload_lines(text)
    if not lines:
        raise GraphFormatError("empty instance file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "p" or header[1] != "wp2sat":
        raise GraphFormatError("expected header 'p wp2sat <vars> <clauses> <k>'")
    try:
        nvars, nclauses, k = int(header[2]), int(header[3]), int(header[4])
    except ValueError as exc:
        raise GraphFormatError(f"bad header: {exc}") from exc
    body = lines[1:]
    if len(body) != nclauses:
        raise GraphFormatError(f"header promises {nclauses} clauses, got {len(body)}")
    clauses = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad clause line {' '.join(parts)!r}")
        try:
            x, y = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"bad clause line: {exc}") from exc
        if not (1 <= x <= nvars and 1 <= y <= nvars):
            raise GraphFormatError(f"clause variable out of range: {x} {y}")
        clauses.append((x - 1, y - 1))
    try:
        return SatInstance.make(nvars, clauses, k)
    except GadgetPreconditionError as exc:
        raise GraphFormatError(str(exc)) from exc


def parse_mss_instance(text: str) -> MssInstance:
    lines = _payload_lines(text)
    if len(lines) != 2:
        raise GraphFormatError("expected a header line and one tuple line")
    header = lines[0].split()
    if len(header) != 3:
        raise GraphFormatError("expected header '<ell> <h> <J>'")
    try:
        ell, h, J = (int(x) for x in header)
        a = tuple(int(x) for x in lines[1].split())
    except ValueError as exc:
        raise GraphFormatError(f"bad instance: {exc}") from exc
    if len(a) != ell:
        raise GraphFormatError(f"header promises {ell} entries, got {len(a)}")
    try:
        return MssInstance(ell, a, h, J)
    except GadgetPreconditionError as exc:
        raise GraphFormatError(str(exc)) from exc
