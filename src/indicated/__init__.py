"""Exact engine and strategy catalog for the indicated coloring game.

Two players color a graph from a fixed palette: the selector picks the next
vertex, the adversary picks its proper color, and the selector wins iff the
whole graph gets colored.  The package provides the graph substrate, an
exact minimax solver with an optimal adversary, structural decompositions
of several forbidden-subgraph classes, and the constructive selector
strategies those decompositions support, all cross-verified by play.
"""

from . import detect, game, graphs, reports, strategies, structure  # noqa: F401
from .game import ann_wins, chi_exact, chi_i, play_match  # noqa: F401
from .graphs import Graph, make_named, parse_graph6, write_graph6  # noqa: F401

__version__ = "0.1.0"
