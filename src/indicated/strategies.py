"""Constructive vertex-selection strategies, each checked by one match
against the optimal adversary: that plays one adversary line, not every
reply.

A strategy is a policy: ``next_vertex(state)`` picks the vertex to present
as a function of the position alone.  It keeps no record of earlier plies,
so one strategy object can be replayed over any number of matches.
Factories raise NotApplicable when the graph is outside the strategy's
class and BoundViolated when the palette is below the strategy's
guaranteed bound.

Most plans are a presentation order: ``Order`` presents the first
uncolored vertex of a fixed vertex sequence, after an optional guard has
checked it.  Plans that play induced subgraphs chain phases with
``PhasedStrategy``: a phase is an ``Order`` or a ``SubGamePhase``, which
runs a sub-strategy, built with the plan, on its subgraph over the palette
minus the colors on an anchor clique, and checks that every reply lands
inside that palette, turning the correctness argument's claims into runtime
assertions.
"""

from .detect import is_family_free
from .errors import (
    BoundViolated,
    Disconnected,
    NoInducedC5,
    NoInducedC6,
    NotApplicable,
    NotInClass,
    NotWinnable,
    StructureViolation,
    StrategyInvariantViolation,
    TooLarge,
)
from .game import DEFAULT_SOLVE_LIMIT, GameSolver, GameState, chi_exact
from .graphs import components, degeneracy, induced, make_named
from .structure import (
    chi_formula_kc5,
    chi_p5k4kitebull,
    decompose_p5c4,
    decompose_p5k4kitebull,
    dihedral_orders,
    family_p6c5_house_claw,
    recognize_expansion,
)

__all__ = [
    "Strategy",
    "Order",
    "CounterLedger",
    "strat_degeneracy",
    "strat_cycle_expansion",
    "strat_kc6",
    "strat_kc5",
    "strat_union",
    "strat_components",
    "strat_p5k4kitebull",
    "strat_split_c5",
    "strat_split_c5_plus_clique",
    "strat_p5c4",
    "strat_p6c5_class",
    "strat_solver_backed",
    "STRATEGY_REGISTRY",
]


class Strategy:
    """Base selector policy."""

    def next_vertex(self, state):
        raise NotImplementedError


def _decompose_for_strategy(decomposer, g):
    """Class preconditions surface as NotApplicable at the strategy level."""
    try:
        return decomposer(g)
    except (Disconnected, NoInducedC5, NoInducedC6, NotInClass) as exc:
        raise NotApplicable(str(exc)) from exc


# ---------------------------------------------------------------------------
# phase framework
# ---------------------------------------------------------------------------

def _uncolored(state, vertices):
    return [v for v in vertices if not state.colors[v]]


class Order(Strategy):
    """Presents the first uncolored vertex of a fixed order, after
    guard(state, v), when given, has checked it."""

    def __init__(self, vertices, guard=None):
        self.vertices = tuple(vertices)
        self.guard = guard

    def next_vertex(self, state):
        for v in self.vertices:
            if not state.colors[v]:
                if self.guard is not None:
                    self.guard(state, v)
                return v
        raise StrategyInvariantViolation("order ran out of uncolored vertices")


class SubGamePhase:
    """Plays graph, the subgraph induced on vertices, with sub, a strategy
    built for k - len(anchors) colors, over the virtual palette: the host
    palette minus the colors on the anchor clique (a vertex b or apex, a
    joined clique, a pod's clique neighborhood, or nothing), which must be
    colored, with distinct colors, before the phase starts."""

    def __init__(self, graph, vertices, sub, label, anchors=()):
        self.graph = graph
        self.vertices = tuple(sorted(vertices))
        self.sub = sub
        self.label = label
        self.anchors = tuple(anchors)

    def next_vertex(self, state):
        taken = {state.colors[u] for u in self.anchors}
        if 0 in taken:
            raise StrategyInvariantViolation(
                f"{self.label}: anchor clique {self.anchors} not colored yet")
        if len(taken) != len(self.anchors):
            raise StrategyInvariantViolation(
                f"{self.label}: anchor clique {self.anchors} repeats a color")
        palette = tuple(c for c in range(1, state.k + 1) if c not in taken)
        colors = []
        for v in self.vertices:
            c = state.colors[v]
            if c and c not in palette:
                raise StructureViolation(
                    f"{self.label}: reply color {c} outside the virtual "
                    f"palette {palette}")
            colors.append(palette.index(c) + 1 if c else 0)
        local = self.sub.next_vertex(GameState(self.graph, len(palette), colors))
        return self.vertices[local]


def _sub_game(g, k, vertices, factory, label, anchors=()):
    """A SubGamePhase on g[vertices], its sub-strategy built now (so class
    and bound errors surface with the plan) for k - len(anchors) colors."""
    graph = induced(g, vertices)
    return SubGamePhase(graph, vertices, factory(graph, k - len(anchors)), label, anchors)


class PhasedStrategy(Strategy):
    """Plays the first phase (an Order or a SubGamePhase) that still has an
    uncolored vertex."""

    def __init__(self, phases):
        self.phases = list(phases)

    def next_vertex(self, state):
        for phase in self.phases:
            if not all(state.colors[v] for v in phase.vertices):
                return phase.next_vertex(state)
        raise StrategyInvariantViolation("all phases finished but game continues")


# ---------------------------------------------------------------------------
# elementary strategies
# ---------------------------------------------------------------------------

def strat_degeneracy(g, k):
    """Present vertices in reverse minimum-degree elimination order, so each
    presented vertex has fewer colored neighbors than col(G)."""
    res = degeneracy(g)
    if k < res.col:
        raise BoundViolated(f"need k >= col = {res.col}, got {k}")
    return Order(reversed(res.order))


def strat_solver_backed(g, k, *, solve_limit=DEFAULT_SOLVE_LIMIT):
    """Game-theoretically optimal play from the memoized exact solve."""
    if g.n > solve_limit:
        raise TooLarge(f"n={g.n} exceeds solve limit {solve_limit}")
    solver = GameSolver(g, k)
    if not solver.value(()):
        raise NotWinnable(f"position not winnable with k={k}")
    return _SolverStrategy(solver)


class _SolverStrategy(Strategy):
    def __init__(self, solver):
        self.solver = solver

    def next_vertex(self, state):
        step = self.solver.move(state.color_class_masks())
        if step is None or not step[2]:
            raise StrategyInvariantViolation("solver-backed strategy in a lost position")
        return step[0]


def strat_cycle_expansion(g, k):
    """Winning plan for independent expansions of a cycle: one
    representative per module around the cycle, then everything else.

    The cycle length is the number of distinct adjacency rows: an
    independent expansion of C_n has n open-twin classes for n != 4 and 2
    for n = 4.
    """
    n = len(set(g.adj))
    n = 4 if n <= 2 else n
    structure = None
    if n <= 8:
        structure = recognize_expansion(g, make_named("C", n), allowed=("independent",))
    if structure is None:
        raise NotApplicable("not an independent expansion of a cycle")
    chi = 2 if n % 2 == 0 else 3
    if k < chi:
        raise BoundViolated(f"need k >= {chi}, got {k}")
    reps = [mod[0] for mod in structure.modules]
    rest = sorted(v for mod in structure.modules for v in mod[1:])
    return Order(reps + rest)


# ---------------------------------------------------------------------------
# complete expansions of C6
# ---------------------------------------------------------------------------

def _rotate_modules(structure, score):
    """Best dihedral reordering of the modules by `score` (lower wins)."""
    mods = structure.modules
    return min((tuple(mods[p] for p in perm) for perm in dihedral_orders(len(mods))),
               key=lambda cand: score(tuple(len(m) for m in cand))
               + (tuple(m[0] for m in cand),))


def strat_kc6(g, k):
    """Winning plan for complete expansions of C6: a maximum clique pair
    first, its two outside neighbors next, then the remaining opposite pair
    interleaved so the later module never runs out of colors."""
    structure = recognize_expansion(g, make_named("C", 6), allowed=("complete",))
    if structure is None:
        raise NotApplicable("not a complete expansion of C6")
    sizes = structure.sizes
    omega = max(sizes[i] + sizes[(i + 1) % 6] for i in range(6))
    if k < omega:
        raise BoundViolated(f"need k >= clique number {omega}, got {k}")
    m = _rotate_modules(structure, lambda s: (-(s[0] + s[1]), s))
    return PhasedStrategy([Order(sorted(m[0] + m[1]) + list(m[2] + m[5])),
                           _KC6Tail(m[3], m[4], m[5])])


class _KC6Tail(Strategy):
    """Paces the opposite pair m3, m4 once every other module is colored.

    m4's legal colors avail(4) are the palette minus those on m3, m4 and m5.
    Every m4 reply takes one of them, so this slack never grows back: once
    m3 stops, it waits until m4 is done.
    """

    def __init__(self, m3, m4, m5):
        self.m3, self.m4 = m3, m4
        self.vertices = m3 + m4
        self.near_m4 = m3 + m4 + m5

    def next_vertex(self, state):
        m3_left = _uncolored(state, self.m3)
        m4_left = _uncolored(state, self.m4)
        taken = {state.colors[v] for v in self.near_m4} - {0}
        slack = state.k - len(taken) - len(m4_left)
        if m3_left and slack > 0:
            return m3_left[0]
        if slack < 0:
            raise StrategyInvariantViolation(
                "fewer colors than uncolored vertices in the deferred module")
        if rest := m4_left + m3_left:
            return rest[0]
        raise StrategyInvariantViolation("no vertex left to present")


# ---------------------------------------------------------------------------
# complete expansions of C5
# ---------------------------------------------------------------------------

class CounterLedger:
    """Counters for the part-by-part plan on a complete expansion of C5.

    With modules m0..m4 in cycle order (m0 presented first), tracks per
    module the uncolored count N and the commonly-available color set C
    (every vertex of a module has the same neighborhood outside it, so the
    available set is shared).  The algebra the plan relies on:

    * right after m0 completes (starred values): |C|-|N| equals
      k-|m0|-|m_i| for the modules adjacent to m0, k-|m_i| for the other
      two, and |C_i u C_j|-|N_i|-|N_j| equals k-|m_i|-|m_j| for adjacent
      pairs among m1..m4 — all positive when k exceeds the clique number;
    * a ply inside module t leaves |C_t|-|N_t| and every adjacent-pair
      union quantity containing t unchanged, because the reply comes from
      C_t: a vertex of m_t has exactly C_t as its legal set, and play_match
      rejects any other reply.

    Violations raise StrategyInvariantViolation: they would disprove the
    plan's correctness argument, so they must surface loudly.
    """

    def __init__(self, k, modules):
        self.k = k
        self.modules = modules
        self.sizes = tuple(len(m) for m in modules)

    def values(self, state):
        palette = set(range(1, self.k + 1))
        colors_on = [{state.colors[v] for v in mod if state.colors[v]}
                     for mod in self.modules]
        uncolored = [sum(1 for v in mod if not state.colors[v])
                     for mod in self.modules]
        avail = [palette - (colors_on[(i - 1) % 5] | colors_on[i] | colors_on[(i + 1) % 5])
                 for i in range(5)]
        return avail, uncolored

    def single(self, vals, i):
        avail, unc = vals
        return len(avail[i]) - unc[i]

    def union(self, vals, i, j):
        avail, unc = vals
        return len(avail[i] | avail[j]) - unc[i] - unc[j]

    def check_star(self, state):
        vals = self.values(state)
        k, s = self.k, self.sizes
        expected = {
            ("single", 1): k - s[0] - s[1],
            ("single", 4): k - s[0] - s[4],
            ("single", 2): k - s[2],
            ("single", 3): k - s[3],
            ("union", 1, 2): k - (s[1] + s[2]),
            ("union", 2, 3): k - (s[2] + s[3]),
            ("union", 3, 4): k - (s[3] + s[4]),
        }
        for key, want in expected.items():
            got = self.single(vals, key[1]) if key[0] == "single" \
                else self.union(vals, key[1], key[2])
            if got != want:
                raise StrategyInvariantViolation(
                    f"baseline counter {key} = {got}, expected {want}")
            if want <= 0:
                raise StrategyInvariantViolation(
                    f"baseline counter {key} not positive: {want}")


def strat_kc5(g, k):
    """Winning plan for complete expansions of C5.

    Two branches: when the clique number covers half the graph, a maximum
    clique pair is presented first and the rest follows directly; otherwise
    m0 is presented alone and the remaining four modules are paced by the
    CounterLedger, scanning m2 until one of three stopping conditions fires
    and finishing with the smaller-slack-first pairing rule.
    """
    structure = recognize_expansion(g, make_named("C", 5), allowed=("complete",))
    if structure is None:
        raise NotApplicable("not a complete expansion of C5")
    sizes = structure.sizes
    chi = chi_formula_kc5(sizes)
    if k < chi:
        raise BoundViolated(f"need k >= {chi}, got {k}")
    omega = max(sizes[i] + sizes[(i + 1) % 5] for i in range(5))
    if 2 * omega >= g.n:
        mods = _rotate_modules(structure, lambda s: (-(s[0] + s[1]), s))
        order = sorted(mods[0] + mods[1]) + list(mods[2]) + list(mods[4]) + list(mods[3])
        return Order(order)
    mods = _rotate_modules(structure, lambda s: (0 if s[2] >= s[3] else 1, s))
    if len(mods[2]) < len(mods[3]):
        raise StrategyInvariantViolation("rotation failed to order the scan pair")
    return _KC5LedgerStrategy(g, k, mods)


class _KC5LedgerStrategy(Strategy):
    """The ledger branch as a position policy.  m0 goes first; then m2 is
    scanned while m1, m3 and m4 are untouched, until a stop rule fires:
    case 1, m2 is done; case 2, m1 has no spare shared color; case 3, the
    (3,4) pair has no slack.  Cases 1 and 2 then finish m1 (case 2 also
    the rest of m2) and pair m3 with m4; case 3 pairs m3 with m4, then m1
    with m2.  The stage is read off which modules are untouched, partial
    or done.  A pair plays the side with less slack first."""

    def __init__(self, g, k, modules):
        self.g = g
        self.k = k
        self.modules = modules
        self.ledger = CounterLedger(k, modules)

    def next_vertex(self, state):
        led = self.ledger
        left = [_uncolored(state, mod) for mod in self.modules]
        if left[0]:
            return left[0][0]
        untouched = [len(left[i]) == len(self.modules[i]) for i in range(5)]
        if all(untouched[1:]):
            led.check_star(state)
        vals = led.values(state)

        def pair(i, j):
            if not left[i] or left[j] and led.single(vals, j) < led.single(vals, i):
                return j
            return i

        if untouched[1] and untouched[3] and untouched[4]:
            # scanning m2 until a stop rule fires
            if not left[2] or led.single(vals, 1) == 0:   # cases 1 and 2
                side = 1
            elif led.union(vals, 3, 4) == 0:             # case 3
                side = pair(3, 4)
            else:
                side = 2
        elif untouched[3] and untouched[4]:
            if left[1]:
                side = 1
            elif left[2]:
                # Only case 2 gets here.  m1 had no spare shared color when
                # the scan stopped, so m0, m1 and m2 now carry every color:
                # that pins the (3,4) pair's slack at 2k-n once m2 is done.
                on = {state.colors[v] for i in (0, 1, 2) for v in self.modules[i]}
                if not on.issuperset(range(1, self.k + 1)):
                    raise StrategyInvariantViolation(
                        f"case 2: m0, m1 and m2 leave colors of 1..{self.k} unused")
                side = 2
            else:
                side = pair(3, 4)
        elif left[3] or left[4]:
            side = pair(3, 4)
        elif left[1] or left[2]:
            # case 3's last pairing: the pair's slack must be exactly 2k - n,
            # since the scanned module consumed everything else and a ply
            # inside the pair keeps it
            want = 2 * self.k - self.g.n
            got = led.union(vals, 1, 2)
            if got != want:
                raise StrategyInvariantViolation(
                    f"pair (1,2) slack {got} != 2k-n = {want}")
            if want < 0:
                raise StrategyInvariantViolation(f"2k-n negative: {want}")
            side = pair(1, 2)
        else:
            raise StrategyInvariantViolation("no vertex left to present")
        if led.single(vals, side) < 0:
            raise StrategyInvariantViolation(
                f"module {side} has fewer shared colors than uncolored vertices")
        return left[side][0]


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def strat_union(parts):
    """Compose per-component strategies over a disjoint-union layout.

    parts: (strategy, graph) pairs whose graphs occupy consecutive id blocks
    of the host (the layout produced by graphs.union); each component is
    played to completion in block order, which is ascending least-id order.
    """
    phases, offset = [], 0
    for strat, g in parts:
        phases.append(SubGamePhase(g, range(offset, offset + g.n), strat, "union part"))
        offset += g.n
    return PhasedStrategy(phases)


def strat_components(g, k, factory):
    """One sub-strategy per connected component (built eagerly so class and
    bound errors surface now), components in ascending least-id order."""
    return PhasedStrategy(_sub_game(g, k, comp, factory, "component")
                          for comp in components(g))


# ---------------------------------------------------------------------------
# layered C5 class ({P5,K4,Kite,Bull}-free with an induced C5)
# ---------------------------------------------------------------------------

def strat_p5k4kitebull(g, k):
    """Winning plan for connected {P5,K4,Kite,Bull}-free graphs with an
    induced C5, driven by the layered decomposition.

    Pure independent expansions delegate to the cycle plan.  Otherwise: one
    hub vertex b, then the third-layer apex if needed; the first block's
    components over the palette without c(b) and the third layer's over the
    palette without c(apex); finally the leftover hub/second-layer vertices,
    for which those two colors stay open.
    """
    dec = _decompose_for_strategy(decompose_p5k4kitebull, g)
    chi = chi_p5k4kitebull(dec)
    if k < chi:
        raise BoundViolated(f"need k >= {chi}, got {k}")
    if dec.is_unit:
        return strat_cycle_expansion(g, k)
    b = dec.B[0]
    xstar = dec.xstar
    phases = [Order([b, xstar] if dec.V3 else [b])]

    def sub_factory(gg, kk):
        try:
            return strat_cycle_expansion(gg, kk)
        except NotApplicable:
            return strat_solver_backed(gg, kk)

    for block, anchor, label in ((dec.V1, b, "first block"), (dec.V3, xstar, "third layer")):
        for comp in components(induced(g, block)):
            phases.append(_sub_game(g, k, [block[i] for i in comp], sub_factory, label,
                                    anchors=(anchor,)))
    leftovers = sorted((set(dec.B) | set(dec.S)) - {b, xstar})
    if leftovers:
        bset = set(dec.B)

        def guard(state, v):
            anchor = b if v in bset else xstar
            want = state.colors[anchor]
            taken = {state.colors[u] for u in state.graph.neighbors(v)}
            if want in taken:
                raise StrategyInvariantViolation(
                    f"color of {'b' if v in bset else 'apex'} not open for "
                    f"leftover vertex {v}")

        phases.append(Order(leftovers, guard=guard))
    return PhasedStrategy(phases)


# ---------------------------------------------------------------------------
# split expansions of C5, with and without a joined clique
# ---------------------------------------------------------------------------

def strat_split_c5(g, k):
    """Winning plan for expansions of C5 whose modules are split graphs:
    play the clique-part expansion first, then the independent leftovers
    (each has a non-neighbor inside its module's clique part, whose color
    stays open for it)."""
    structure = recognize_expansion(g, make_named("C", 5), allowed=("split",))
    if structure is None:
        raise NotApplicable("not an expansion of C5 into split modules")
    return _split_c5_plan(g, k, structure, chi_exact(g))


def _split_c5_plan(g, k, structure, chi):
    """strat_split_c5's plan for g, given its recognised split expansion
    structure and its chromatic number chi."""
    if k < chi:
        raise BoundViolated(f"need k >= {chi}, got {k}")
    parts = structure.split_parts()
    if any(p is None for p in parts):
        raise StructureViolation("split certificate missing for a module")
    clique_sizes = tuple(len(p[0]) for p in parts)
    if k < chi_formula_kc5(clique_sizes):
        raise StrategyInvariantViolation(
            "palette below the clique-part expansion's chromatic number")
    core = sorted(v for cl, _ in parts for v in cl)
    rest = sorted(v for _, ind in parts for v in ind)
    module_of = {}
    for idx, (cl, ind) in enumerate(parts):
        for v in ind:
            module_of[v] = idx

    def guard(state, v):
        cl = parts[module_of[v]][0]
        open_colors = {state.colors[u] for u in cl
                       if state.colors[u] and not state.graph.has_edge(u, v)}
        if not open_colors - {state.colors[u] for u in state.graph.neighbors(v)}:
            raise StrategyInvariantViolation(
                f"no clique-part non-neighbor color open for {v}")

    phases = [_sub_game(g, k, core, strat_kc5, "clique parts")]
    if rest:
        phases.append(Order(rest, guard=guard))
    return PhasedStrategy(phases)


def strat_split_c5_plus_clique(g, k):
    """Winning plan for a split expansion of C5 joined with a clique: the
    universal clique first (always colorable, consuming one color each),
    then the expansion over the leftover palette."""
    universal = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    if not universal:
        return strat_split_c5(g, k)
    rest = [v for v in range(g.n) if v not in set(universal)]
    if not rest:
        raise NotApplicable("no expansion part left after the universal clique")
    restg = induced(g, rest)
    structure = recognize_expansion(restg, make_named("C", 5), allowed=("split",))
    if structure is None:
        raise NotApplicable("remainder is not a split expansion of C5")
    t = len(universal)
    rest_chi = chi_exact(restg)
    if k < t + rest_chi:
        raise BoundViolated(f"need k >= {t + rest_chi}, got {k}")
    return PhasedStrategy([
        Order(sorted(universal)),
        SubGamePhase(restg, rest, _split_c5_plan(restg, k - t, structure, rest_chi),
                     "expansion part", anchors=universal),
    ])


# ---------------------------------------------------------------------------
# {P5,C4}-free graphs
# ---------------------------------------------------------------------------

def strat_p5c4(g, k):
    """Winning plan for connected {P5,C4}-free graphs: the chordal part by
    reverse elimination order, then each pod (a complete expansion of C5)
    over the palette without the colors on its clique neighborhood."""
    dec = _decompose_for_strategy(decompose_p5c4, g)
    chi = chi_exact(g)
    if k < chi:
        raise BoundViolated(f"need k >= {chi}, got {k}")
    phases = []
    if dec.chordal_part:
        phases.append(_sub_game(g, k, dec.chordal_part, strat_degeneracy, "chordal part"))
    for pod in dec.pods:
        phases.append(_sub_game(g, k, pod.vertices, strat_kc5, "pod",
                                anchors=pod.clique_nbhd))
    return PhasedStrategy(phases)


# ---------------------------------------------------------------------------
# {P6,C5,house,claw}-free graphs with induced C6
# ---------------------------------------------------------------------------

def strat_p6c5_class(g, k):
    """Per-component complete-C6-expansion plans for {P6,C5,house,claw}-free
    graphs whose components all contain an induced C6."""
    if not is_family_free(g, family_p6c5_house_claw())[0]:
        raise NotApplicable("graph is not {P6,C5,house,claw}-free")
    return strat_components(g, k, strat_kc6)


STRATEGY_REGISTRY = {
    "degeneracy": strat_degeneracy,
    "cycle": strat_cycle_expansion,
    "kc5": strat_kc5,
    "kc6": strat_kc6,
    "p5k4kitebull": strat_p5k4kitebull,
    "split-c5": strat_split_c5,
    "split-c5-clique": strat_split_c5_plus_clique,
    "p5c4": strat_p5c4,
    "p6c5": strat_p6c5_class,
    "solver": strat_solver_backed,
}
