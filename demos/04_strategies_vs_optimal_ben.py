"""Every constructive strategy, played against the exact adversary.

Each playout is one match: the optimal colorist answers every presented
vertex with the least color that refutes the selector's position, or else
the least legal color.  That is one line of the game, not every colorist
reply, so a win here shows the strategy survives that line on the instance;
checking every reply is item 5 of ROADMAP.md.  The pacing strategies carry
runtime assertions (the counter ledger) that re-check their correctness
argument as they present, and play_match rejects any reply that is not a
legal color.
"""

from indicated.game import chi_exact, play_match
from indicated.graphs import (
    complete_expansion,
    independent_expansion,
    join,
    make_named,
    union,
)
from indicated.strategies import (
    strat_cycle_expansion,
    strat_degeneracy,
    strat_kc5,
    strat_kc6,
    strat_p5c4,
    strat_p5k4kitebull,
    strat_split_c5_plus_clique,
    strat_union,
    strat_solver_backed,
)

c5 = make_named("C", 5)
c6 = make_named("C", 6)


def show(label, g, k, strat):
    match = play_match(g, k, strat, solve_limit=16)
    print(f"{label:34s} k={k}  {match.outcome}  moves={list(match.moves)}")
    return match


# Reverse elimination order wins whenever k reaches the coloring number.
pet = make_named("Petersen")
show("degeneracy on Petersen", pet, 4, strat_degeneracy(pet, 4))

# Independent expansions of a cycle: one representative around the cycle,
# then the rest in any order.
g = independent_expansion(c5, (2, 2, 1, 1, 1))
show("cycle expansion I[C5](2,2,1,1,1)", g, 3, strat_cycle_expansion(g, 3))

# Complete expansion of C6: maximum clique pair first, then pace the
# opposite pair.
g = complete_expansion(c6, (2, 2, 1, 1, 1, 1))
show("K[C6](2,2,1,1,1,1)", g, 4, strat_kc6(g, 4))

# Complete expansion of C5: the ledger branch paces the scan module by the
# stopping conditions; its counters are asserted at every presentation.
# The stop rule shows at the first vertex presented outside m0 and m2:
# case 1 if m2 was done by then, else case 2 if it lies in m1, else case 3.
g = complete_expansion(c5, (2, 2, 2, 2, 2))
strat = strat_kc5(g, 5)
match = show("K[C5](2,2,2,2,2) ledger branch", g, 5, strat)
m1, m2 = set(strat.modules[1]), set(strat.modules[2])
order = [v for v, _ in match.moves]
first = next(i for i, v in enumerate(order) if v not in set(strat.modules[0]) | m2)
case = 1 if m2 <= set(order[:first]) else 2 if order[first] in m1 else 3
print("  stopping case reached:", case)

# Layered class around an induced C5: hub first, then the blocks over
# restricted palettes.
w5 = join(make_named("K", 1), c5)
show("wheel via layered strategy", w5, 4, strat_p5k4kitebull(w5, 4))

# Clique joined to an expansion: clique first, remainder on the leftover
# palette.
g = join(make_named("K", 2), c5)
show("K2 + C5", g, 5, strat_split_c5_plus_clique(g, 5))

# Chordal part + pods.
g = join(make_named("K", 2), complete_expansion(c5, (2, 1, 1, 1, 1)))
show("{P5,C4}-free with one pod", g, chi_exact(g), strat_p5c4(g, chi_exact(g)))

# Disjoint unions compose componentwise.
host = union(c5, make_named("P", 4))
strat = strat_union([(strat_cycle_expansion(c5, 3), c5),
                     (strat_solver_backed(make_named("P", 4), 3),
                      make_named("P", 4))])
show("C5 u P4 by union composition", host, 3, strat)
