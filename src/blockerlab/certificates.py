"""Certificates of graph classes: what ``recognizers`` returns and the class
routes of ``parameters`` take.

They live apart from the recognisers, so a module can name them (in the
annotations of ``parameters``, say) without loading the recognisers' code.
"""

from __future__ import annotations

from typing import NamedTuple


class Bipartition(NamedTuple):
    left: frozenset[int]
    right: frozenset[int]


class EliminationOrder(NamedTuple):
    """A perfect elimination order: each vertex's later neighbours are a clique."""

    order: tuple[int, ...]


class CotreeCertificate(NamedTuple):
    cotree: Cotree  # recognize_cograph imports cotree, which most routes never run


class MultipartiteParts(NamedTuple):
    parts: tuple[frozenset[int], ...]


class NotInClass(NamedTuple):
    reason: str
    witness: tuple[int, ...]
