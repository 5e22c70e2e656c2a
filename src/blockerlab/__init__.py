"""blockerlab: blocker problems on graphs.

Given a graph, find a smallest set of edge contractions, vertex deletions or
edge deletions that reduces a target parameter (independence number, clique
number, chromatic number) by a required amount.  The package pairs
polynomial solvers for structured inputs (bipartite contraction blocking,
cograph colouring budgets) with brute-force oracles and executable hardness
gadgets, so every answer ships with a checkable witness.
"""

__version__ = "0.1.0"
