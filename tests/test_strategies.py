import collections
import itertools
import random

import pytest

import indicated.strategies as strategies
from indicated.detect import is_family_free
from indicated.errors import (
    BoundViolated,
    NotApplicable,
    NotWinnable,
    StrategyInvariantViolation,
    StructureViolation,
)
from indicated.game import (
    GameState,
    OptimalBen,
    ann_wins,
    chi_exact,
    legal_colors,
    play_match,
)
from indicated.graphs import (
    Graph,
    complete_expansion,
    degeneracy,
    independent_expansion,
    induced,
    join,
    make_named,
    union,
)
from indicated.strategies import (
    STRATEGY_REGISTRY,
    Strategy,
    SubGamePhase,
    strat_components,
    strat_cycle_expansion,
    strat_degeneracy,
    strat_kc5,
    strat_kc6,
    strat_p5c4,
    strat_p5k4kitebull,
    strat_p6c5_class,
    strat_solver_backed,
    strat_split_c5,
    strat_split_c5_plus_clique,
    strat_union,
    _KC5LedgerStrategy,
    _rotate_modules,
)
from indicated.structure import (
    chi_formula_kc5,
    family_p5k4kitebull,
    recognize_expansion,
)

from builders import build_split_c5_instance, random_graph

C5 = make_named("C", 5)
C6 = make_named("C", 6)


def win(g, k, strat, limit=16):
    res = play_match(g, k, strat, solve_limit=limit)
    assert res.ann_won, (res.outcome, res.moves)
    return res


# --- elementary strategies ------------------------------------------------------

def test_degeneracy_strategy():
    tree = Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    win(tree, 2, strat_degeneracy(tree, 2))
    k4 = make_named("K", 4)
    win(k4, 4, strat_degeneracy(k4, 4))
    pet = make_named("Petersen")
    win(pet, 4, strat_degeneracy(pet, 4))
    with pytest.raises(BoundViolated):
        strat_degeneracy(pet, 3)


def test_cycle_expansion_strategy():
    g = independent_expansion(C5, (2, 2, 2, 1, 1))
    win(g, 3, strat_cycle_expansion(g, 3))
    g = independent_expansion(C6, (2, 1, 1, 1, 1, 1))
    win(g, 2, strat_cycle_expansion(g, 2))
    with pytest.raises(BoundViolated):
        strat_cycle_expansion(C5, 2)
    with pytest.raises(NotApplicable):
        strat_cycle_expansion(make_named("K", 4), 4)


def test_cycle_expansion_not_applicable_beyond_c8():
    """Graphs on nine or more vertices that are no expansion of C3..C8 are
    outside the class, not a bad parameter."""
    for g in (make_named("P", 9), make_named("C", 9),
              independent_expansion(make_named("C", 9), (2,) + (1,) * 8)):
        with pytest.raises(NotApplicable):
            strat_cycle_expansion(g, 3)
    # a wheel W5 whose hub also sees a 9-vertex P5-free bipartite block: the
    # block's sub-game falls back from the cycle plan to the solver
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5, v) for v in range(15) if v != 5]
    edges += [(x, y) for i, x in enumerate(range(6, 10)) for y in range(10, 12 + i)]
    g = Graph(15, edges)
    assert is_family_free(g, family_p5k4kitebull())[0]
    win(g, 4, strat_p5k4kitebull(g, 4))


def test_solver_backed_strategy():
    win(C5, 3, strat_solver_backed(C5, 3))
    with pytest.raises(NotWinnable):
        strat_solver_backed(C5, 2)
    bip = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (1, 6)])
    win(bip, 2, strat_solver_backed(bip, 2))


# --- expansions of C6 and C5 ------------------------------------------------------

def test_kc6_strategy():
    g = complete_expansion(C6, (2, 2, 1, 1, 1, 1))
    win(g, 4, strat_kc6(g, 4))
    win(C6, 2, strat_kc6(C6, 2))
    g = complete_expansion(C6, (1, 2, 2, 1, 1, 1))
    win(g, 4, strat_kc6(g, 4))
    with pytest.raises(NotApplicable):
        strat_kc6(C5, 3)
    with pytest.raises(BoundViolated):
        strat_kc6(C6, 1)


class _StagedKC6Strategy(Strategy):
    """The complete-C6-expansion plan as a stateful policy that advanced a
    stage counter and kept an inspection log on each reply."""

    name = "kc6"

    def __init__(self, g, k, modules):
        self.g = g
        self.k = k
        self.modules = modules
        self.inspection = []
        self._stage = 0    # 0: m0+m1, 1: m2, 2: m5, 3: m3 scan, 4: m4, 5: m3 rest

    def _uncolored(self, state, idx):
        return [v for v in self.modules[idx] if not state.colors[v]]

    def _avail(self, state, idx):
        taken = set()
        for j in (idx - 1, idx, idx + 1):
            for v in self.modules[j % 6]:
                if state.colors[v]:
                    taken.add(state.colors[v])
        return set(range(1, self.k + 1)) - taken

    def next_vertex(self, state):
        plan = [sorted(self.modules[0] + self.modules[1]), self.modules[2],
                self.modules[5]]
        for stage in range(3):
            if self._stage == stage:
                todo = [v for v in plan[stage] if not state.colors[v]]
                if todo:
                    return todo[0]
                self._stage = stage + 1
        if self._stage == 3:
            m3_left = self._uncolored(state, 3)
            m4_left = self._uncolored(state, 4)
            if m3_left and len(self._avail(state, 4)) > len(m4_left):
                return m3_left[0]
            self._stage = 4
        if self._stage == 4:
            m4_left = self._uncolored(state, 4)
            if len(self._avail(state, 4)) < len(m4_left):
                raise StrategyInvariantViolation(
                    "fewer colors than uncolored vertices in the deferred module")
            if m4_left:
                return m4_left[0]
            self._stage = 5
        m3_left = self._uncolored(state, 3)
        if m3_left:
            return m3_left[0]
        raise StrategyInvariantViolation("no vertex left to present")

    def notify(self, state):
        # stronger quantity kept for inspection only: colors still open for
        # the opposite pair, against its remaining demand
        a34 = self._avail(state, 3) | self._avail(state, 4)
        demand = len(self._uncolored(state, 3)) + len(self._uncolored(state, 4))
        self.inspection.append((len(a34), demand))


class _RandomBen:
    """A seeded adversary that plays a uniformly random legal color."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def reply(self, state):
        return self.rng.choice(sorted(legal_colors(state, state.pending)))


def test_kc6_policy_matches_staged_strategy():
    """Deriving the stage from the position presents the same vertices as
    the stage counter did, against the optimal adversary and against
    seeded random legal ones, on the criterion-04 grid.  The staged plan
    takes the modules in strat_kc6's rotation: a maximum clique pair first,
    ties broken by the size tuple and then by the first vertices."""
    plays = 0
    for m in itertools.product((1, 2), repeat=6):
        g = complete_expansion(C6, m)
        modules = _rotate_modules(
            recognize_expansion(g, C6, allowed=("complete",)),
            lambda s: (-(s[0] + s[1]), s))
        omega = max(m[i] + m[(i + 1) % 6] for i in range(6))
        for k in (omega, omega + 1, omega + 2):
            optimal = OptimalBen(g, k)
            bens = [lambda: optimal] + [lambda s=s: _RandomBen(s) for s in range(5)]
            for make_ben in bens:
                policy = strat_kc6(g, k)
                staged = _StagedKC6Strategy(g, k, modules)
                res = play_match(g, k, policy, make_ben())
                assert res.ann_won, (m, k)
                assert res == play_match(g, k, staged, make_ben()), (m, k)
                plays += 1
    assert plays == 1152


def test_kc5_strategy_both_branches():
    g = complete_expansion(C5, (3, 3, 1, 1, 1))   # clique branch
    win(g, 6, strat_kc5(g, 6))
    g = complete_expansion(C5, (2, 2, 2, 2, 2))   # ledger branch
    win(g, 5, strat_kc5(g, 5))
    win(g, 6, strat_kc5(g, 6))
    with pytest.raises(NotApplicable):
        strat_kc5(make_named("Petersen"), 5)
    with pytest.raises(BoundViolated):
        strat_kc5(g, 4)


def test_kc5_ledger_branch_rotation():
    g = complete_expansion(C5, (1, 2, 1, 2, 1))
    k = chi_formula_kc5((1, 2, 1, 2, 1))
    strat = strat_kc5(g, k)
    sizes = [len(m) for m in strat.modules]
    assert sizes[2] >= sizes[3]
    win(g, k, strat)


def test_counter_ledger_baseline_checks():
    g = complete_expansion(C5, (2, 2, 2, 2, 2))
    strat = strat_kc5(g, 5)
    state = GameState(g, 5)
    # baseline identities only hold once the first module is fully colored
    for v, c in ((0, 1), (1, 2)):
        state.colors[v] = c
    strat.ledger.check_star(state)
    with pytest.raises(StrategyInvariantViolation):
        bad = GameState(g, 5)
        bad.colors[0] = 1
        strat.ledger.check_star(bad)


# --- the KC5 ledger plan as a position policy ------------------------------------

def _stop_case(modules, moves):
    """The stop rule that ended the ledger plan's scan of m2, read off a
    transcript at the first vertex presented outside m0 and m2: case 1 if
    m2 was done by then, else case 2 if that vertex lies in m1, else 3."""
    head = set(modules[0]) | set(modules[2])
    order = [v for v, _ in moves]
    first = next(i for i, v in enumerate(order) if v not in head)
    if set(modules[2]) <= set(order[:first]):
        return 1
    return 2 if order[first] in modules[1] else 3


# The ledger plan as a stateful class that advanced a stage counter and
# checked the ledger after every reply (its notify), kept verbatim as the
# reference for the position policy.

class _ParentCounterLedger:
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
      union quantity containing t unchanged;
    * the reply to a module-t vertex always comes from C_t.

    Violations raise StrategyInvariantViolation: they would disprove the
    plan's correctness argument, so they must surface loudly.
    """

    def __init__(self, k, modules):
        self.k = k
        self.modules = modules
        self.sizes = tuple(len(m) for m in modules)
        self.star = None
        self.prev = None

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
        self.star = vals
        self.prev = vals

    def check_ply(self, state, module_idx, reply_color):
        """Constancy and membership checks after a reply in module_idx."""
        vals = self.values(state)
        prev = self.prev
        self.prev = vals
        if prev is None or module_idx == 0:
            return
        t = module_idx
        if reply_color not in prev[0][t]:
            raise StrategyInvariantViolation(
                f"reply {reply_color} was not in the shared available set of "
                f"module {t}")
        if self.single(vals, t) != self.single(prev, t):
            raise StrategyInvariantViolation(
                f"|C|-|N| of module {t} changed on an internal ply")
        for i, j in ((t - 1, t), (t, t + 1)):
            if 1 <= i and j <= 4:
                if self.union(vals, i, j) != self.union(prev, i, j):
                    raise StrategyInvariantViolation(
                        f"pair counter ({i},{j}) changed on a module-{t} ply")



class _ParentKC5LedgerStrategy(Strategy):
    name = "kc5"

    V1, SCAN, C1_V2, C2_V2, C2_V3REST, PAIR34, C3_PAIR34, PAIR12 = range(8)

    def __init__(self, g, k, modules):
        self.g = g
        self.k = k
        self.modules = modules
        self.ledger = _ParentCounterLedger(k, modules)
        self._stage = self.V1
        self._last_module = None
        self._last_vertex = None
        self._case = None

    def _uncolored(self, state, idx):
        return [v for v in self.modules[idx] if not state.colors[v]]

    def _present(self, state, idx):
        todo = self._uncolored(state, idx)
        vals = self.ledger.values(state)
        if self.ledger.single(vals, idx) < 0:
            raise StrategyInvariantViolation(
                f"module {idx} has fewer shared colors than uncolored vertices")
        self._last_module = idx
        self._last_vertex = todo[0]
        return todo[0]

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
        if self._stage == self.V1:
            todo = self._uncolored(state, 0)
            if todo:
                self._last_module = 0
                self._last_vertex = todo[0]
                return todo[0]
            led.check_star(state)
            self._stage = self.SCAN
        if self._stage == self.SCAN:
            vals = led.values(state)
            if not self._uncolored(state, 2):
                self._case = 1
                self._stage = self.C1_V2
            elif led.single(vals, 1) == 0:
                self._case = 2
                self._stage = self.C2_V2
            elif led.union(vals, 3, 4) == 0:
                self._case = 3
                self._stage = self.C3_PAIR34
            else:
                return self._present(state, 2)
        if self._stage in (self.C1_V2, self.C2_V2):
            if self._uncolored(state, 1):
                return self._present(state, 1)
            if self._stage == self.C1_V2:
                self._stage = self.PAIR34
            else:
                self._stage = self.C2_V3REST
        if self._stage == self.C2_V3REST:
            if self._uncolored(state, 2):
                return self._present(state, 2)
            self._check_final_slack(state, 3, 4)
            self._stage = self.PAIR34
        if self._stage in (self.PAIR34, self.C3_PAIR34):
            if self._uncolored(state, 3) or self._uncolored(state, 4):
                return self._pair(state, 3, 4)
            if self._stage == self.C3_PAIR34:
                self._check_final_slack(state, 1, 2)
                self._stage = self.PAIR12
            else:
                raise StrategyInvariantViolation("no vertex left to present")
        if self._stage == self.PAIR12:
            if self._uncolored(state, 1) or self._uncolored(state, 2):
                return self._pair(state, 1, 2)
        raise StrategyInvariantViolation("no vertex left to present")

    def _check_final_slack(self, state, i, j):
        """Entering the last pairing phase, the pair's slack must be exactly
        2k - n: the scanned module consumed everything else."""
        vals = self.ledger.values(state)
        want = 2 * self.k - self.g.n
        got = self.ledger.union(vals, i, j)
        if got != want:
            raise StrategyInvariantViolation(
                f"pair ({i},{j}) slack {got} != 2k-n = {want}")
        if want < 0:
            raise StrategyInvariantViolation(f"2k-n negative: {want}")

    def notify(self, state):
        if self._last_vertex is None or self.ledger.star is None:
            return
        reply = state.colors[self._last_vertex]
        self.ledger.check_ply(state, self._last_module, reply)


class _OracleBen:
    """Passes another adversary's replies through and shows each resulting
    position to a stateful strategy's notify, so the reference ledger's
    check_ply runs on every ply."""

    def __init__(self, ben, strategy):
        self.ben = ben
        self.strategy = strategy

    def reply(self, state):
        c = self.ben.reply(state)
        after = GameState(state.graph, state.k, state.colors)
        after.colors[state.pending] = c
        self.strategy.notify(after)
        return c


def test_kc5_policy_matches_ledger_strategy():
    """Reading the stage off the position presents the same vertices as the
    stage counter did, with the reference's per-ply ledger checks as an
    oracle, against the optimal adversary and seeded random legal ones."""
    plays = 0
    cases = collections.Counter()

    def compare(m, k, bens):
        nonlocal plays
        g = complete_expansion(C5, m)
        policy = strat_kc5(g, k)
        if not isinstance(policy, _KC5LedgerStrategy):
            return
        optimal = OptimalBen(g, k)
        for make_ben in bens:
            make_ben = make_ben or (lambda: optimal)
            staged = _ParentKC5LedgerStrategy(g, k, policy.modules)
            want = play_match(g, k, staged, _OracleBen(make_ben(), staged))
            res = play_match(g, k, policy, make_ben())
            assert res.ann_won and res == want, (m, k)
            assert _stop_case(policy.modules, res.moves) == staged._case, (m, k)
            cases[staged._case] += 1
            plays += 1

    # the criterion-03 grid, against the optimal and 5 random adversaries
    bens = [None] + [lambda s=s: _RandomBen(s) for s in range(5)]
    for m in itertools.product((1, 2), repeat=5):
        chi = chi_formula_kc5(m)
        for k in range(chi, min(chi + 2, 8) + 1):
            compare(m, k, bens)
    for m in itertools.product((1, 2, 3), repeat=5):
        compare(m, chi_formula_kc5(m), bens)
    assert plays == 624
    # every 3-valued tuple at k = chi..chi+2, against 8 random adversaries
    bens = [lambda s=s: _RandomBen(s) for s in range(8)]
    for m in itertools.product((1, 2, 3), repeat=5):
        chi = chi_formula_kc5(m)
        for k in range(chi, chi + 3):
            compare(m, k, bens)
    assert plays == 624 + 1632
    assert set(cases) == {1, 2, 3}, cases


# --- replaying one strategy object ------------------------------------------------

def _replay_instance(name):
    """A graph of the strategy's class, its palette size and the strategy."""
    k1, k2, p4 = make_named("K", 1), make_named("K", 2), make_named("P", 4)
    kc6 = complete_expansion(C6, (2, 2, 1, 1, 1, 1))
    instances = {
        "degeneracy": (make_named("Petersen"), 4),
        "cycle": (independent_expansion(C5, (2, 2, 1, 1, 1)), 3),
        "kc5": (complete_expansion(C5, (2, 2, 2, 2, 2)), 5),
        "kc6": (kc6, 4),
        "p5k4kitebull": (join(k1, C5), 4),
        "split-c5": (complete_expansion(C5, (2, 1, 1, 1, 1)), 3),
        "split-c5-clique": (join(k2, C5), 5),
        "p5c4": (join(k2, complete_expansion(C5, (2, 1, 1, 1, 1))), 5),
        "p6c5": (union(C6, kc6), 4),
        "solver": (C5, 3),
    }
    assert set(instances) == set(STRATEGY_REGISTRY)
    if name == "union":
        return union(C5, p4), 3, lambda: strat_union(
            [(strat_cycle_expansion(C5, 3), C5), (strat_solver_backed(p4, 3), p4)])
    if name == "components":
        g = union(C6, kc6)
        return g, 4, lambda: strat_components(g, 4, strat_kc6)
    g, k = instances[name]
    return g, k, lambda: STRATEGY_REGISTRY[name](g, k)


@pytest.mark.parametrize("name", sorted(STRATEGY_REGISTRY) + ["union", "components"])
def test_strategy_object_replays(name):
    """One strategy object played through consecutive matches gives what a
    fresh object gives: no state carries over from an earlier game."""
    g, k, make = _replay_instance(name)
    strat = make()
    for seed in range(3):
        res = play_match(g, k, strat, _RandomBen(seed))
        assert res.ann_won, (name, seed)
        assert res == play_match(g, k, make(), _RandomBen(seed)), (name, seed)


# --- composition --------------------------------------------------------------------

def test_union_strategy():
    p4 = make_named("P", 4)
    host = union(C5, p4)
    strat = strat_union([(strat_cycle_expansion(C5, 3), C5),
                         (strat_solver_backed(p4, 3), p4)])
    win(host, 3, strat)
    k3 = make_named("K", 3)
    host = union(k3, k3)
    win(host, 3, strat_union([(strat_degeneracy(k3, 3), k3),
                              (strat_degeneracy(k3, 3), k3)]))
    with pytest.raises(NotWinnable):
        strat_union([(strat_solver_backed(C5, 2), C5)])


def test_components_strategy():
    host = union(C6, complete_expansion(C6, (2, 2, 1, 1, 1, 1)))
    win(host, 4, strat_components(host, 4, strat_kc6))


def test_sub_game_phase_asserts_its_anchor_clique_and_palette():
    """A sub-game built for k - 2 colors beside anchors 0 and 1 refuses to
    play while an anchor is uncolored, when the anchors share a color (the
    palette would not have the size the sub-strategy was built for), and
    when a sub-game vertex holds a color outside the virtual palette."""
    host = Graph(4, [(2, 3)])
    part = induced(host, [2, 3])
    phase = SubGamePhase(part, [2, 3], strat_degeneracy(part, 2), "part", anchors=(0, 1))
    assert phase.next_vertex(GameState(host, 4, [1, 2, 3, 0])) == 3
    with pytest.raises(StrategyInvariantViolation, match="not colored yet"):
        phase.next_vertex(GameState(host, 4, [1, 0, 0, 0]))
    with pytest.raises(StrategyInvariantViolation, match="repeats a color"):
        phase.next_vertex(GameState(host, 4, [1, 1, 0, 0]))
    with pytest.raises(StructureViolation, match="outside the virtual palette"):
        phase.next_vertex(GameState(host, 4, [1, 2, 2, 0]))


# --- class strategies ------------------------------------------------------------------

def test_p5k4kitebull_strategy_wheel():
    w5 = join(make_named("K", 1), C5)
    win(w5, 4, strat_p5k4kitebull(w5, 4))
    win(w5, 5, strat_p5k4kitebull(w5, 5))
    with pytest.raises(BoundViolated):
        strat_p5k4kitebull(w5, 3)


def test_p5k4kitebull_strategy_delegates_unit_case():
    g = independent_expansion(C5, (2, 1, 1, 1, 1))
    strat = strat_p5k4kitebull(g, 3)
    assert strat.vertices == strat_cycle_expansion(g, 3).vertices
    win(g, 3, strat)


def test_p5k4kitebull_strategy_with_third_layer(rng):
    from builders import build_layered_c5_instance
    from indicated.structure import decompose_p5k4kitebull, family_p5k4kitebull

    found = 0
    attempts = 0
    while found < 3 and attempts < 2000:
        attempts += 1
        g = build_layered_c5_instance(rng, max_block=2, max_n=14)
        if g is None or not is_family_free(g, family_p5k4kitebull())[0]:
            continue
        dec = decompose_p5k4kitebull(g)
        if not dec.V3:
            continue
        k = chi_exact(g)
        win(g, k, strat_p5k4kitebull(g, k))
        found += 1
    assert found == 3


def test_split_c5_strategy():
    g = complete_expansion(C5, (2, 1, 1, 1, 1))
    win(g, 3, strat_split_c5(g, 3))
    with pytest.raises(NotApplicable):
        strat_split_c5(make_named("Petersen"), 3)


def test_split_c5_strategy_with_independents(rng):
    for _ in range(5):
        g = build_split_c5_instance(rng)
        k = chi_exact(g)
        win(g, k, strat_split_c5(g, k), limit=20)


def test_split_c5_plus_clique_strategy():
    w5 = join(make_named("K", 1), C5)
    win(w5, 4, strat_split_c5_plus_clique(w5, 4))
    g = join(make_named("K", 2), C5)
    win(g, 5, strat_split_c5_plus_clique(g, 5))
    with pytest.raises(BoundViolated):
        strat_split_c5_plus_clique(g, 4)


def test_split_c5_plus_clique_recognises_the_remainder_once(monkeypatch):
    """One build on K2 v C5 recognises and colours the remainder once: two
    recognize_expansion calls (one for the kc5 core) and one chi_exact."""
    calls = collections.Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("recognize_expansion", "chi_exact"):
        monkeypatch.setattr(strategies, name, counted(getattr(strategies, name)))
    strat_split_c5_plus_clique(join(make_named("K", 2), C5), 5)
    assert calls == {"recognize_expansion": 2, "chi_exact": 1}


def test_split_c5_plus_clique_nontrivial_split(rng):
    for _ in range(3):
        core = build_split_c5_instance(rng, max_clique=2, max_ind=1)
        g = join(make_named("K", 1), core)
        k = chi_exact(g)
        win(g, k, strat_split_c5_plus_clique(g, k), limit=18)


def test_p5c4_strategy():
    g = Graph(5, make_named("K", 4).edges() + [(3, 4)])
    win(g, 4, strat_p5c4(g, 4))
    win(C5, 3, strat_p5c4(C5, 3))
    w5 = join(make_named("K", 1), C5)
    win(w5, 4, strat_p5c4(w5, 4))
    g = join(make_named("K", 2), complete_expansion(C5, (2, 1, 1, 1, 1)))
    win(g, chi_exact(g), strat_p5c4(g, chi_exact(g)))
    with pytest.raises(NotApplicable):
        strat_p5c4(make_named("P", 5), 3)


def test_p6c5_class_strategy():
    g = complete_expansion(C6, (2, 1, 2, 1, 1, 1))
    k = chi_exact(g)
    win(g, k, strat_p6c5_class(g, k))
    host = union(C6, complete_expansion(C6, (2, 2, 1, 1, 1, 1)))
    win(host, 4, strat_p6c5_class(host, 4))
    with pytest.raises(NotApplicable):
        strat_p6c5_class(C5, 3)


# --- fuzz: legality and honest applicability ------------------------------------------

def test_strategies_never_misbehave_on_random_graphs(rng):
    """Factories either refuse or produce a strategy that plays legally;
    play_match raises on any illegal selection, so a clean outcome is the
    assertion."""
    factories = dict(STRATEGY_REGISTRY)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        for name, factory in factories.items():
            k = degeneracy(g).col + 1
            try:
                strat = factory(g, k)
            except (NotApplicable, BoundViolated, NotWinnable):
                continue
            res = play_match(g, k, strat)
            assert res.outcome in ("ANN_WINS", "BEN_WINS")


def test_strategy_win_implies_solver_win(rng):
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 7))
        col = degeneracy(g).col
        res = play_match(g, col, strat_degeneracy(g, col))
        assert res.ann_won
        assert ann_wins(g, col, want_line=False).ann_wins


class _FreshFirstBen:
    """Adversary that burns unused colors first: drives the scan counters
    toward the palette-exhaustion stopping condition."""

    def reply(self, state):
        from indicated.game import legal_colors

        legal = legal_colors(state, state.pending)
        unused = [c for c in legal if c not in state.colors]
        return min(unused) if unused else min(legal)


class _ReuseBen:
    """Adversary that recycles colors whenever legal: the scanned module
    finishes first."""

    def reply(self, state):
        from indicated.game import legal_colors

        legal = legal_colors(state, state.pending)
        used = [c for c in legal if c in state.colors]
        return min(used) if used else min(legal)


def test_kc5_ledger_case_paths_forced():
    # fresh-first play on the balanced tuple exhausts the second module's
    # slack before the scan finishes: case 2
    g = complete_expansion(C5, (2, 2, 2, 2, 2))
    strat = strat_kc5(g, 5)
    res = play_match(g, 5, strat, ben=_FreshFirstBen())
    assert res.ann_won and _stop_case(strat.modules, res.moves) == 2
    # color reuse burns the tight pair slack instead: case 3
    strat = strat_kc5(g, 5)
    res = play_match(g, 5, strat, ben=_ReuseBen())
    assert res.ann_won and _stop_case(strat.modules, res.moves) == 3
    # with a singleton first module the scan finishes first: case 1
    g = complete_expansion(C5, (1, 2, 2, 2, 2))
    strat = strat_kc5(g, 5)
    res = play_match(g, 5, strat, ben=_FreshFirstBen())
    assert res.ann_won and _stop_case(strat.modules, res.moves) == 1


def test_kc5_ledger_case3_reached_by_optimal_ben():
    seen = set()
    for m in itertools.product((1, 2, 3), repeat=5):
        g = complete_expansion(C5, m)
        k = chi_formula_kc5(m)
        strat = strat_kc5(g, k)
        if not isinstance(strat, _KC5LedgerStrategy):
            continue
        res = play_match(g, k, strat, solve_limit=16)
        assert res.ann_won
        seen.add(_stop_case(strat.modules, res.moves))
        if seen == {1, 3}:
            break
    assert 3 in seen


def test_union_composition_matches_solver(rng):
    """Union of solver-backed parts wins exactly when every part is
    winnable at k."""
    from indicated.game import chi_i

    for _ in range(12):
        g1 = random_graph(rng, rng.randint(1, 4))
        g2 = random_graph(rng, rng.randint(1, 4))
        k = max(chi_i(g1).chi_i, chi_i(g2).chi_i) + rng.randint(0, 1)
        w1 = ann_wins(g1, k, want_line=False).ann_wins
        w2 = ann_wins(g2, k, want_line=False).ann_wins
        host = union(g1, g2)
        if w1 and w2:
            strat = strat_union([(strat_solver_backed(g1, k), g1),
                                 (strat_solver_backed(g2, k), g2)])
            assert play_match(host, k, strat).ann_won
            assert ann_wins(host, k, want_line=False).ann_wins
        else:
            with pytest.raises(NotWinnable):
                strat_union([(strat_solver_backed(g1, k), g1),
                             (strat_solver_backed(g2, k), g2)])
