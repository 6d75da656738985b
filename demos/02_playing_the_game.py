"""The game itself: one side picks vertices, the other colors them.

The selector (Ann) wins iff the whole graph gets properly colored from the
fixed palette; the colorist (Ben) wins as soon as some uncolored vertex has
every color in its neighborhood.  The solver computes exact game values, so
we can ask for the least winnable palette size chi_i and watch optimal play.
"""

from indicated.game import ann_wins, chi_exact, chi_i, play_match
from indicated.graphs import complete_expansion, make_named
from indicated.strategies import Order, strat_solver_backed

c5 = make_named("C", 5)

# chi_i with the full per-k table.  Winnability is solved independently for
# every k: nobody has proved the table must be monotone, so we never assume
# it (no non-monotone example is known at this scale either).
res = chi_i(c5, 5)
print("C5: chi_i =", res.chi_i, "table:", res.winnable)

# A principal line: both sides optimal, deterministic tie-breaking.
solve = ann_wins(c5, 3)
print("C5 with 3 colors, principal line:", solve.principal_line)
print("nodes expanded:", solve.nodes, "memo hits:", solve.memo_hits)

# With 2 colors the colorist wins; the line ends in a blocked position.
solve = ann_wins(c5, 2)
print("C5 with 2 colors: selector wins?", solve.ann_wins,
      "line:", solve.principal_line)

# Playing a match: solver-backed selector vs the optimal adversary.
match = play_match(c5, 3, strat_solver_backed(c5, 3))
print("match:", match.outcome, "moves:", match.moves)

# A bad selector order loses on C4 with 2 colors: presenting the two ends
# of a diagonal lets the adversary double-threaten the other two.  Order is
# the position policy "the first uncolored vertex of a fixed order".
c4 = make_named("C", 4)
match = play_match(c4, 2, Order((0, 2, 1, 3)))
print("bad order on C4, k=2:", match.outcome, "blocked vertex:", match.blocked)

# Denser example: the balanced complete expansion of C5 on 10 vertices.
g = complete_expansion(c5, (2, 2, 2, 2, 2))
print("K[C5](2,...,2): chi =", chi_exact(g), "chi_i =", chi_i(g, 6).chi_i)
