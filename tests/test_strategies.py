import itertools
import random

import pytest

from indicated.detect import is_family_free
from indicated.errors import (
    BoundViolated,
    NotApplicable,
    NotWinnable,
    StrategyInvariantViolation,
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
    join,
    make_named,
    union,
)
from indicated.strategies import (
    STRATEGY_REGISTRY,
    Strategy,
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
)
from indicated.structure import chi_formula_kc5

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
    seeded random legal ones, on the criterion-04 grid."""
    plays = 0
    for m in itertools.product((1, 2), repeat=6):
        g = complete_expansion(C6, m)
        omega = max(m[i] + m[(i + 1) % 6] for i in range(6))
        for k in (omega, omega + 1, omega + 2):
            optimal = OptimalBen(g, k)
            bens = [lambda: optimal] + [lambda s=s: _RandomBen(s) for s in range(5)]
            for make_ben in bens:
                policy = strat_kc6(g, k)
                staged = _StagedKC6Strategy(g, k, policy.modules)
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


# --- composition --------------------------------------------------------------------

def test_union_strategy():
    p4 = make_named("P", 4)
    host = union(C5, p4)
    strat = strat_union([(strat_cycle_expansion(C5, 3), C5),
                         (strat_solver_backed(p4, 3), p4)], 3)
    win(host, 3, strat)
    k3 = make_named("K", 3)
    host = union(k3, k3)
    win(host, 3, strat_union([(strat_degeneracy(k3, 3), k3),
                              (strat_degeneracy(k3, 3), k3)], 3))
    with pytest.raises(NotWinnable):
        strat_union([(strat_solver_backed(C5, 2), C5)], 2)


def test_components_strategy():
    host = union(C6, complete_expansion(C6, (2, 2, 1, 1, 1, 1)))
    win(host, 4, strat_components(host, 4, strat_kc6))


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
    assert strat.name == "cycle-expansion"
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
    assert res.ann_won and strat._case == 2
    # color reuse burns the tight pair slack instead: case 3
    strat = strat_kc5(g, 5)
    res = play_match(g, 5, strat, ben=_ReuseBen())
    assert res.ann_won and strat._case == 3
    # with a singleton first module the scan finishes first: case 1
    g = complete_expansion(C5, (1, 2, 2, 2, 2))
    strat = strat_kc5(g, 5)
    res = play_match(g, 5, strat, ben=_FreshFirstBen())
    assert res.ann_won and strat._case == 1


def test_kc5_ledger_case3_reached_by_optimal_ben():
    import itertools
    from indicated.strategies import _KC5LedgerStrategy

    seen = set()
    for m in itertools.product((1, 2, 3), repeat=5):
        g = complete_expansion(C5, m)
        k = chi_formula_kc5(m)
        strat = strat_kc5(g, k)
        if not isinstance(strat, _KC5LedgerStrategy):
            continue
        res = play_match(g, k, strat, solve_limit=16)
        assert res.ann_won
        seen.add(strat._case)
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
                                 (strat_solver_backed(g2, k), g2)], k)
            assert play_match(host, k, strat).ann_won
            assert ann_wins(host, k, want_line=False).ann_wins
        else:
            with pytest.raises(NotWinnable):
                strat_union([(strat_solver_backed(g1, k), g1),
                             (strat_solver_backed(g2, k), g2)], k)
