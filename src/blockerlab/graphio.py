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
from typing import NamedTuple

from .errors import GadgetPreconditionError, GraphFormatError, InvalidEdgeError, InvalidVertexError
from .graph import Graph

# Adjacency is one bitmask per vertex, allocated up front: refuse a header
# that would allocate more than this many before any edge is read.
MAX_VERTICES = 1_000_000


# A NamedTuple body cannot define __new__, so a validating record subclasses one.
class SatInstance(NamedTuple("SatInstance", [
        ("variable_count", int), ("clauses", tuple[tuple[int, int], ...]), ("k", int)])):
    """All-positive 2-clause CNF with a cap on the number of true variables."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.variable_count < 1:
            raise GadgetPreconditionError("need at least one variable")
        if self.k < 0:
            raise GadgetPreconditionError("budget k must be non-negative")
        for x, y in self.clauses:
            if x == y:
                raise GadgetPreconditionError("clauses must use two distinct variables")
            if not (0 <= x < self.variable_count and 0 <= y < self.variable_count):
                raise GadgetPreconditionError("clause variable out of range")
        if not self.clauses:
            raise GadgetPreconditionError("need at least one clause")
        return self

    @classmethod
    def make(cls, variable_count: int, clauses, k: int) -> "SatInstance":
        """Normalise clause order and drop duplicates."""
        dedup = sorted({(min(x, y), max(x, y)) for x, y in clauses})
        return cls(variable_count, tuple(dedup), k)

    def satisfied_by(self, positives) -> bool:
        positives = set(positives)
        return all(x in positives or y in positives for x, y in self.clauses)


class MssInstance(NamedTuple("MssInstance", [
        ("ell", int), ("a", tuple[int, ...]), ("h", int), ("J", int)])):
    """Partition ``ell`` positive integers into ``h`` groups, bounding the
    sum of squared group sums by ``J``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.ell < 1 or len(self.a) != self.ell:
            raise GadgetPreconditionError("tuple length must match ell >= 1")
        if any(x < 1 for x in self.a):
            raise GadgetPreconditionError("all entries must be positive")
        if self.h < 1:
            raise GadgetPreconditionError("h must be at least 1")
        return self


def _payload_lines(text: str) -> list[str]:
    """The stripped lines of ``text``, without blanks and ``#`` comments."""
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


def _ints(line: str, count: int, what: str) -> list[int]:
    """The ``count`` integer fields of ``line``, the file's ``what``."""
    fields = line.split()
    try:
        if len(fields) == count:
            return [int(x) for x in fields]
    except ValueError:
        pass
    raise GraphFormatError(f"expected {count} integers in {what} {line!r}")


# A payload line of exactly two whitespace-separated fields: ``\s`` is the
# whitespace that ``str.split`` splits on.
_PAIR_LINE = re.compile(r"\S+\s+\S+")


def _pairs(body: list[str], what: str) -> tuple[list[int], list[int]]:
    """Two lists: the first and the second integer of each ``what`` line of ``body``.

    One bulk pass: every line against the two-field pattern, then one ``int``
    map over the joined body.  Only when that fails is the body walked again:
    some line is not two integers, and :func:`_ints` raises at the first.
    """
    if all(map(_PAIR_LINE.fullmatch, body)):
        try:
            ends = list(map(int, " ".join(body).split()))
            return ends[0::2], ends[1::2]
        except ValueError:
            pass
    for line in body:
        _ints(line, 2, what)


def parse_graph(text: str) -> Graph:
    lines = _payload_lines(text)
    if not lines:
        raise GraphFormatError("empty graph file")
    n, m = _ints(lines[0], 2, "header")
    if n < 0 or m < 0:
        raise GraphFormatError("n and m must be non-negative")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"n={n} exceeds the supported {MAX_VERTICES} vertices")
    body = lines[1:]
    if len(body) != m:
        raise GraphFormatError(f"header promises {m} edges, file has {len(body)}")
    firsts, seconds = _pairs(body, "edge line")
    try:
        g = Graph(n, zip(firsts, seconds))
    except (InvalidEdgeError, InvalidVertexError) as exc:
        raise GraphFormatError(str(exc)) from exc
    if g.edge_count() != m:  # an edge repeats: name its second occurrence
        seen = set()
        for u, v in zip(firsts, seconds):
            if (key := (min(u, v), max(u, v))) in seen:
                raise GraphFormatError(f"duplicate edge {u} {v}")
            seen.add(key)
    return g


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
    header = lines[0].split(maxsplit=2)
    if header[:2] != ["p", "wp2sat"] or len(header) != 3:
        raise GraphFormatError(f"expected 'p wp2sat <vars> <clauses> <k>', got {lines[0]!r}")
    nvars, nclauses, k = _ints(header[2], 3, "'p wp2sat' header")
    body = lines[1:]
    if len(body) != nclauses:
        raise GraphFormatError(f"header promises {nclauses} clauses, got {len(body)}")
    firsts, seconds = _pairs(body, "clause line")
    # SatInstance holds 0-based clauses, so the file's lines are checked here,
    # where a complaint can quote them.
    for line, x, y in zip(body, firsts, seconds):
        if not (0 < x <= nvars and 0 < y <= nvars):
            raise GraphFormatError(f"clause variable out of range: {line!r}")
        if x == y:
            raise GraphFormatError(f"clauses must use two distinct variables: {line!r}")
    clauses = [(x - 1, y - 1) for x, y in zip(firsts, seconds)]
    try:
        return SatInstance.make(nvars, clauses, k)
    except GadgetPreconditionError as exc:
        raise GraphFormatError(str(exc)) from exc


def parse_mss_instance(text: str) -> MssInstance:
    lines = _payload_lines(text)
    if len(lines) != 2:
        raise GraphFormatError("expected a header line and one tuple line")
    ell, h, J = _ints(lines[0], 3, "header")
    a = tuple(_ints(lines[1], ell, "tuple line"))
    try:
        return MssInstance(ell, a, h, J)
    except GadgetPreconditionError as exc:
        raise GraphFormatError(str(exc)) from exc
