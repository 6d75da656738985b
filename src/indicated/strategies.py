"""Constructive vertex-selection strategies, each checked by one match
against the optimal adversary: that plays one adversary line, not every
reply.

A strategy is a policy: ``next_vertex(state)`` picks the vertex to present
as a function of the position alone.  It keeps no record of earlier plies,
so one strategy object can be replayed over any number of matches.
Factories raise NotApplicable when the graph is outside the strategy's
class and BoundViolated when the palette is below the strategy's
guaranteed bound.

Several strategies run sub-strategies on induced subgraphs over a virtual
palette (a subset of the host colors).  The wrapper checks that every reply
on the subgraph lands inside the virtual palette whenever the surrounding
decomposition guarantees it, turning the correctness argument's claims into
runtime assertions.
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

    name = "strategy"

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

class StaticPhase:
    """Presents a fixed vertex list in order."""

    def __init__(self, vertices, guard=None):
        self.vertices = list(vertices)
        self.guard = guard

    def done(self, state):
        return all(state.colors[v] for v in self.vertices)

    def next_vertex(self, state):
        for v in self.vertices:
            if not state.colors[v]:
                if self.guard is not None:
                    self.guard(state, v)
                return v
        raise StrategyInvariantViolation("phase already finished")


class SubGamePhase:
    """Plays an induced subgraph with a lazily-built sub-strategy over a
    virtual palette (None = the full host palette).

    The palette is recomputed from the position on every call; only the
    induced graph and the sub-strategy, built for the palette's size, are
    kept.
    """

    def __init__(self, vertices, factory, palette=None, label=""):
        self.vertices = tuple(sorted(vertices))
        self.factory = factory
        self.palette_fn = palette
        self.label = label
        self._sub = None

    def done(self, state):
        return all(state.colors[v] for v in self.vertices)

    def next_vertex(self, state):
        if self.palette_fn is None:
            palette = tuple(range(1, state.k + 1))
        else:
            palette = tuple(sorted(self.palette_fn(state)))
        if self._sub is None:
            graph = induced(state.graph, self.vertices)
            self._sub = graph, len(palette), self.factory(graph, len(palette))
        graph, size, sub = self._sub
        if len(palette) != size:
            raise StrategyInvariantViolation(
                f"{self.label or 'sub-play'}: virtual palette of {len(palette)} "
                f"colors, but the sub-strategy was built for {size}")
        colors = []
        for v in self.vertices:
            c = state.colors[v]
            if c and c not in palette:
                raise StructureViolation(
                    f"{self.label or 'sub-play'}: reply color {c} outside the "
                    f"virtual palette {palette}")
            colors.append(palette.index(c) + 1 if c else 0)
        local = sub.next_vertex(GameState(graph, len(palette), colors))
        return self.vertices[local]


class PhasedStrategy(Strategy):
    """Plays the first phase whose vertices are not all colored."""

    def __init__(self, name, phases):
        self.name = name
        self.phases = list(phases)

    def next_vertex(self, state):
        for phase in self.phases:
            if not phase.done(state):
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
    return PhasedStrategy("degeneracy", [StaticPhase(list(reversed(res.order)))])


def strat_solver_backed(g, k, *, solve_limit=DEFAULT_SOLVE_LIMIT, canon="twins"):
    """Game-theoretically optimal play from the memoized exact solve."""
    if g.n > solve_limit:
        raise TooLarge(f"n={g.n} exceeds solve limit {solve_limit}")
    solver = GameSolver(g, k, canon=canon)
    if not solver.value(()):
        raise NotWinnable(f"position not winnable with k={k}")
    return _SolverStrategy(solver)


class _SolverStrategy(Strategy):
    name = "solver"

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
    return PhasedStrategy("cycle-expansion", [StaticPhase(reps), StaticPhase(rest)])


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
    mods = _rotate_modules(structure, lambda s: (-(s[0] + s[1]), s))
    return _KC6Strategy(g, k, mods)


class _KC6Strategy(Strategy):
    name = "kc6"

    def __init__(self, g, k, modules):
        self.g = g
        self.k = k
        self.modules = modules

    def _uncolored(self, state, idx):
        return [v for v in self.modules[idx] if not state.colors[v]]

    def next_vertex(self, state):
        for part in (sorted(self.modules[0] + self.modules[1]), self.modules[2],
                     self.modules[5]):
            for v in part:
                if not state.colors[v]:
                    return v
        # m4's legal colors avail(4) are the palette minus those on m3, m4
        # and m5.  Every m4 reply takes one of them, so this slack never
        # grows back: once m3 stops, it waits until m4 is done.
        m3_left = self._uncolored(state, 3)
        m4_left = self._uncolored(state, 4)
        taken = {state.colors[v] for j in (3, 4, 5) for v in self.modules[j]} - {0}
        slack = self.k - len(taken) - len(m4_left)
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
        return PhasedStrategy("kc5", [StaticPhase(order)])
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
    or done."""

    name = "kc5"

    def __init__(self, g, k, modules):
        self.g = g
        self.k = k
        self.modules = modules
        self.ledger = CounterLedger(k, modules)

    def _uncolored(self, state, idx):
        return [v for v in self.modules[idx] if not state.colors[v]]

    def _present(self, state, idx):
        vals = self.ledger.values(state)
        if self.ledger.single(vals, idx) < 0:
            raise StrategyInvariantViolation(
                f"module {idx} has fewer shared colors than uncolored vertices")
        return self._uncolored(state, idx)[0]

    def _pair(self, state, i, j):
        vals = self.ledger.values(state)
        left_i = self._uncolored(state, i)
        left_j = self._uncolored(state, j)
        side = i
        if not left_i:
            side = j
        elif left_j and self.ledger.single(vals, j) < self.ledger.single(vals, i):
            side = j
        return self._present(state, side)

    def next_vertex(self, state):
        led = self.ledger
        left = [self._uncolored(state, i) for i in range(5)]
        if left[0]:
            return left[0][0]
        untouched = [len(left[i]) == len(self.modules[i]) for i in range(5)]
        if all(untouched[1:]):
            led.check_star(state)
        if untouched[1] and untouched[3] and untouched[4]:
            # scanning m2 until a stop rule fires
            vals = led.values(state)
            if not left[2]:                       # case 1
                return self._present(state, 1)
            if led.single(vals, 1) == 0:          # case 2
                return self._present(state, 1)
            if led.union(vals, 3, 4) == 0:        # case 3
                return self._pair(state, 3, 4)
            return self._present(state, 2)
        if untouched[3] and untouched[4]:
            if left[1]:
                return self._present(state, 1)
            if left[2]:
                # Only case 2 gets here.  m1 had no spare shared color when
                # the scan stopped, so m0, m1 and m2 now carry every color:
                # that pins the (3,4) pair's slack at 2k-n once m2 is done.
                on = {state.colors[v] for i in (0, 1, 2) for v in self.modules[i]}
                if not on.issuperset(range(1, self.k + 1)):
                    raise StrategyInvariantViolation(
                        f"case 2: m0, m1 and m2 leave colors of 1..{self.k} unused")
                return self._present(state, 2)
            return self._pair(state, 3, 4)
        if left[3] or left[4]:
            return self._pair(state, 3, 4)
        if left[1] or left[2]:                    # case 3's last pairing
            self._check_final_slack(state, 1, 2)
            return self._pair(state, 1, 2)
        raise StrategyInvariantViolation("no vertex left to present")

    def _check_final_slack(self, state, i, j):
        """In the last pairing phase the pair's slack must be exactly
        2k - n: the scanned module consumed everything else, and a ply
        inside the pair keeps it."""
        vals = self.ledger.values(state)
        want = 2 * self.k - self.g.n
        got = self.ledger.union(vals, i, j)
        if got != want:
            raise StrategyInvariantViolation(
                f"pair ({i},{j}) slack {got} != 2k-n = {want}")
        if want < 0:
            raise StrategyInvariantViolation(f"2k-n negative: {want}")


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def strat_union(parts, k):
    """Compose per-component strategies over a disjoint-union layout.

    parts: (strategy, graph) pairs whose graphs occupy consecutive id blocks
    of the host (the layout produced by graphs.union); each component is
    played to completion in block order, which is ascending least-id order.
    """
    phases = []
    offset = 0
    for strat, g in parts:
        block = range(offset, offset + g.n)
        phases.append(SubGamePhase(block, lambda gg, kk, s=strat: s,
                                   label="union part"))
        offset += g.n
    return PhasedStrategy("union", phases)


def strat_components(g, k, factory):
    """One sub-strategy per connected component (built eagerly so class and
    bound errors surface now), components in ascending least-id order."""
    phases = []
    for comp in components(g):
        sub = factory(induced(g, comp), k)
        phases.append(SubGamePhase(comp, lambda gg, kk, s=sub: s,
                                   label="component"))
    return PhasedStrategy("components", phases)


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
    phases = [StaticPhase([b])]
    if dec.V3:
        phases.append(StaticPhase([xstar]))

    def without_color_of(anchor):
        def palette(state):
            c = state.colors[anchor]
            if not c:
                raise StrategyInvariantViolation(
                    f"anchor vertex {anchor} not yet colored")
            return [x for x in range(1, state.k + 1) if x != c]
        return palette

    def sub_factory(gg, kk):
        try:
            return strat_cycle_expansion(gg, kk)
        except NotApplicable:
            return strat_solver_backed(gg, kk)

    v1 = dec.V1
    if v1:
        sub = induced(g, v1)
        for comp in components(sub):
            phases.append(SubGamePhase([v1[i] for i in comp], sub_factory,
                                       palette=without_color_of(b),
                                       label="first block"))
    if dec.V3:
        sub = induced(g, dec.V3)
        for comp in components(sub):
            phases.append(SubGamePhase([dec.V3[i] for i in comp], sub_factory,
                                       palette=without_color_of(xstar),
                                       label="third layer"))
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

        phases.append(StaticPhase(leftovers, guard=guard))
    return PhasedStrategy("p5k4kitebull", phases)


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
    chi = chi_exact(g)
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

    phases = [SubGamePhase(core, strat_kc5, label="clique parts")]
    if rest:
        phases.append(StaticPhase(rest, guard=guard))
    return PhasedStrategy("split-c5", phases)


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
    if recognize_expansion(restg, make_named("C", 5), allowed=("split",)) is None:
        raise NotApplicable("remainder is not a split expansion of C5")
    t = len(universal)
    chi = t + chi_exact(restg)
    if k < chi:
        raise BoundViolated(f"need k >= {chi}, got {k}")

    def leftover_palette(state):
        taken = {state.colors[u] for u in universal}
        if 0 in taken:
            raise StrategyInvariantViolation("universal clique not fully colored")
        return [c for c in range(1, state.k + 1) if c not in taken]

    return PhasedStrategy("split-c5-clique", [
        StaticPhase(sorted(universal)),
        SubGamePhase(rest, strat_split_c5, palette=leftover_palette,
                     label="expansion part"),
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
        phases.append(SubGamePhase(dec.chordal_part, strat_degeneracy,
                                   label="chordal part"))

    def without_nbhd(pod):
        def palette(state):
            taken = {state.colors[u] for u in pod.clique_nbhd}
            if 0 in taken:
                raise StrategyInvariantViolation("pod neighborhood not colored yet")
            return [c for c in range(1, state.k + 1) if c not in taken]
        return palette

    for pod in dec.pods:
        phases.append(SubGamePhase(pod.vertices, strat_kc5,
                                   palette=without_nbhd(pod), label="pod"))
    return PhasedStrategy("p5c4", phases)


# ---------------------------------------------------------------------------
# {P6,C5,house,claw}-free graphs with induced C6
# ---------------------------------------------------------------------------

def strat_p6c5_class(g, k):
    """Per-component complete-C6-expansion plans for {P6,C5,house,claw}-free
    graphs whose components all contain an induced C6."""
    free, witness = is_family_free(g, family_p6c5_house_claw())
    if not free:
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
