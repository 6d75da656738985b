import pytest

from indicated.errors import (
    AlreadyColored,
    BadParam,
    NoLegalColor,
    NotWinnableWithinKmax,
    ResourceBudgetExceeded,
    ScriptError,
    StrategyIllegalMove,
    StrategyInvariantViolation,
    TooLarge,
)
from indicated.game import (
    GameSolver,
    GameState,
    SolveResult,
    alpha_exact,
    ann_wins,
    ann_wins_reference,
    ben_best_reply,
    blocked_vertex,
    chi_exact,
    chi_i,
    legal_colors,
    omega_exact,
    _principal_line,
    play_match,
    twin_classes,
)
from indicated.graphs import (
    Graph,
    bits,
    complete_expansion,
    degeneracy,
    independent_expansion,
    join,
    make_named,
    union,
)
from indicated.strategies import Strategy, strat_solver_backed

from builders import random_graph


def test_legal_colors_examples():
    s = GameState(Graph(2, [(0, 1)]), 3, [1, 0])
    assert legal_colors(s, 1) == {2, 3}
    assert legal_colors(GameState(Graph(1), 2), 0) == {1, 2}
    c4 = make_named("C", 4)
    s = GameState(c4, 2, [1, 0, 2, 0])
    assert legal_colors(s, 1) == set()
    with pytest.raises(AlreadyColored):
        legal_colors(s, 0)


def test_blocked_vertex_examples():
    assert blocked_vertex(GameState(Graph(2, [(0, 1)]), 3, [1, 0])) is None
    assert blocked_vertex(GameState(Graph(1), 2)) is None
    c4 = make_named("C", 4)
    assert blocked_vertex(GameState(c4, 2, [1, 0, 2, 0])) == 1


def test_state_validation():
    with pytest.raises(BadParam):
        GameState(Graph(2, [(0, 1)]), 2, [1, 1])
    with pytest.raises(BadParam):
        GameState(Graph(1), 0)
    with pytest.raises(BadParam):
        GameState(Graph(1), 2, [3])


def test_ann_wins_examples():
    assert ann_wins(make_named("K", 4), 4).ann_wins
    assert not ann_wins(make_named("C", 5), 2).ann_wins
    assert ann_wins(make_named("C", 5), 3).ann_wins
    assert ann_wins(make_named("P", 4), 2).ann_wins


def test_ann_wins_principal_line():
    res = ann_wins(make_named("C", 5), 3)
    assert len(res.principal_line) == 5
    g = make_named("C", 5)
    colors = {}
    for v, c in res.principal_line:
        assert v not in colors
        assert all(colors.get(u) != c for u in g.neighbors(v))
        colors[v] = c
    # losing line ends in a blocked position
    res = ann_wins(make_named("C", 5), 2)
    assert len(res.principal_line) < 5
    end = GameState(g, 2)
    for v, c in res.principal_line:
        end.colors[v] = c
    assert blocked_vertex(end) is not None


def test_ann_wins_limits():
    with pytest.raises(TooLarge):
        ann_wins(Graph(15), 2)
    with pytest.raises(ResourceBudgetExceeded):
        ann_wins(make_named("Petersen"), 3, node_budget=5)
    with pytest.raises(BadParam):
        ann_wins(Graph(1), 0)


def test_chi_i_examples():
    res = chi_i(make_named("C", 5), 5)
    assert res.chi_i == 3
    assert res.winnable == {1: False, 2: False, 3: True, 4: True, 5: True}
    res = chi_i(make_named("Petersen"), 4, canon="twins")
    assert res.chi_i == 3
    res = chi_i(complete_expansion(make_named("C", 5), (2, 2, 2, 2, 2)), 6,
                canon="twins")
    assert res.chi_i == 5
    assert res.winnable[5] and res.winnable[6]


def test_chi_i_errors_and_edges():
    with pytest.raises(NotWinnableWithinKmax):
        chi_i(make_named("C", 5), 2)
    assert chi_i(Graph(0)).chi_i == 0
    assert chi_i(Graph(1)).chi_i == 1


def test_ben_best_reply_examples():
    c4 = make_named("C", 4)
    st = GameState(c4, 2, [1, 0, 0, 0], pending=2)
    assert ben_best_reply(st) == 2
    st = GameState(Graph(2, [(0, 1)]), 2, [1, 0], pending=1)
    assert ben_best_reply(st) == 2
    # all replies lose for the adversary: least color
    st = GameState(make_named("K", 3), 3, [0, 0, 0], pending=0)
    assert ben_best_reply(st) == 1
    st = GameState(c4, 2, [1, 0, 2, 0], pending=1)
    with pytest.raises(NoLegalColor):
        ben_best_reply(st)


def test_solver_move_and_reply_examples():
    c4 = make_named("C", 4)
    solver = GameSolver(c4, 2)
    # vertex 1 sees both colors: no move, no reply and no solver call
    assert solver.move([0b0001, 0b0100]) is None
    assert solver.reply([0b0001, 0b0100], 1) is None
    assert solver.move([0b0101, 0b1010]) is None
    assert solver.nodes == 0
    assert solver.move([0, 0]) == (0, 1, True)
    assert solver.reply([0, 0], 0) == (1, True)
    # color 1 on the opposite vertex wins for the selector, color 2 refutes
    assert solver.reply([0b0001, 0], 2) == (2, False)
    # no vertex wins: the least vertex and its least refuting color
    assert GameSolver(make_named("K", 3), 2).move([0, 0]) == (0, 1, False)


class _Scripted(Strategy):
    def __init__(self, order):
        self.order = list(order)

    def next_vertex(self, state):
        return self.order.pop(0)


def test_play_match_examples():
    c5 = make_named("C", 5)
    from indicated.strategies import strat_cycle_expansion

    res = play_match(c5, 3, strat_cycle_expansion(c5, 3))
    assert res.ann_won and len(res.moves) == 5
    # scripted bad selector on C4 with 2 colors loses at move 3
    c4 = make_named("C", 4)
    res = play_match(c4, 2, _Scripted([0, 2, 1, 3]))
    assert res.outcome == "BEN_WINS" and res.blocked in (1, 3)
    assert len(res.moves) == 2
    res = play_match(make_named("K", 3), 3, _Scripted([0, 1, 2]))
    assert res.ann_won


def test_play_match_illegal_moves():
    c4 = make_named("C", 4)
    with pytest.raises(StrategyIllegalMove):
        play_match(c4, 3, _Scripted([0, 0, 1, 2, 3]))
    with pytest.raises(StrategyIllegalMove):
        play_match(c4, 3, _Scripted([9]))


def test_play_match_scripted_ben():
    c4 = make_named("C", 4)
    res = play_match(c4, 2, _Scripted([0, 2, 1, 3]), ben=[1, 2])
    assert res.outcome == "BEN_WINS"
    res = play_match(c4, 2, _Scripted([0, 2, 1, 3]), ben=[1, 1, 2, 2])
    assert res.ann_won
    with pytest.raises(ScriptError):
        play_match(c4, 2, _Scripted([0, 2, 1, 3]), ben=[1])
    with pytest.raises(ScriptError):
        play_match(c4, 2, _Scripted([0, 1]), ben=[1, 1])


def test_exact_oracles():
    assert chi_exact(complete_expansion(make_named("C", 5), (2, 2, 2, 2, 2))) == 5
    assert alpha_exact(make_named("C", 5)) == 2
    assert omega_exact(make_named("Kite")) == 3
    assert chi_exact(make_named("Petersen")) == 3
    assert chi_exact(Graph(0)) == 0
    assert chi_exact(Graph(4)) == 1
    assert omega_exact(join(make_named("K", 3), make_named("C", 5))) == 5
    with pytest.raises(TooLarge):
        chi_exact(Graph(21))
    with pytest.raises(TooLarge):
        omega_exact(Graph(41))


def test_chi_exact_brute_oracle(rng):
    """Cross-check the branch-and-bound against naive k-colorability."""

    def brute_chi(g):
        if g.n == 0:
            return 0

        def colorable(k, colors, v):
            if v == g.n:
                return True
            for c in range(1, k + 1):
                if all(colors[u] != c for u in g.neighbors(v) if u < v):
                    colors[v] = c
                    if colorable(k, colors, v + 1):
                        return True
                    colors[v] = 0
            return False

        for k in range(1, g.n + 1):
            if colorable(k, [0] * g.n, 0):
                return k
        return g.n

    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 8))
        assert chi_exact(g) == brute_chi(g)


def test_twin_classes():
    g = complete_expansion(make_named("C", 5), (2, 2, 1, 1, 1))
    classes = twin_classes(g)
    assert sorted(m.bit_count() for m in classes) == [1, 1, 1, 2, 2]
    g = independent_expansion(make_named("C", 5), (3, 1, 1, 1, 1))
    classes = twin_classes(g)
    assert sorted(m.bit_count() for m in classes) == [1, 1, 1, 1, 3]


def test_solver_canonicalizations_agree(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        for k in range(1, 5):
            a = ann_wins(g, k, canon="classes", want_line=False).ann_wins
            b = ann_wins(g, k, canon="twins", want_line=False).ann_wins
            c = ann_wins_reference(g, k)
            assert a == b == c


class _CountTupleTwinSolver(GameSolver):
    """Twins mode keyed by the unpacked per-class count tuples (the
    reference for the packed, cached profile key)."""

    def __init__(self, g, k):
        super().__init__(g, k, canon="twins")
        self._tw = twin_classes(g)

    def _key(self, classes):
        tw = self._tw
        return tuple(sorted(tuple((c & t).bit_count() for t in tw) for c in classes))


def _solve_counts(solver):
    return solver.value(()), solver.nodes, solver.memo_hits, len(solver.memo)


def test_twin_key_matches_count_tuple_reference(rng):
    """The packed twin key induces the same equivalence as the count-tuple
    key, so the search visits the same nodes with the same memo."""
    graphs = [random_graph(rng, rng.randint(1, 7)) for _ in range(30)]
    graphs += [complete_expansion(make_named("C", 5), (2, 2, 1, 1, 1)),
               independent_expansion(make_named("C", 5), (3, 1, 1, 1, 1))]
    assert sum(any(t.bit_count() > 1 for t in twin_classes(g)) for g in graphs) >= 10
    for g in graphs:
        for k in range(1, 5):
            packed = _solve_counts(GameSolver(g, k, canon="twins"))
            assert packed == _solve_counts(_CountTupleTwinSolver(g, k)), (g.edges(), k)
    petersen = make_named("Petersen")
    assert all(t.bit_count() == 1 for t in twin_classes(petersen))
    for k in range(1, 5):
        twins = GameSolver(petersen, k, canon="twins")
        assert twins._twins is None
        assert _solve_counts(twins) == _solve_counts(GameSolver(petersen, k))


class _ParentSearchSolver(GameSolver):
    """The search as it was before one-vertex positions were decided in
    place: it recurses into, and memoizes, every completed coloring."""

    def value(self, classes=()):
        """True iff the selector wins with optimal play from this
        selector-to-move position (classes: sorted tuple of class masks)."""
        memo = self.memo
        key = self._key(classes)
        hit = memo.get(key)
        if hit is not None:
            self.memo_hits += 1
            return hit
        adj = self.g.adj
        colored = 0
        for c in classes:
            colored |= c
        full = self._full
        if colored == full:
            memo[key] = True
            return True
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise ResourceBudgetExceeded(f"node budget {self.node_budget} exceeded")
        open_slot = len(classes) < self.k
        moves = []
        for v in bits(full & ~colored):
            row = adj[v]
            legal = [i for i, c in enumerate(classes) if not (c & row)]
            n_replies = len(legal) + (1 if open_slot else 0)
            if n_replies == 0:
                memo[key] = False
                return False
            moves.append((n_replies, -(row & colored).bit_count(), v, legal))
        moves.sort()
        for _, _, v, legal in moves:
            bit = 1 << v
            win_all = True
            if open_slot:
                child = tuple(sorted(classes + (bit,)))
                if not self.value(child):
                    win_all = False
            if win_all:
                for i in legal:
                    tmp = list(classes)
                    tmp[i] |= bit
                    tmp.sort()
                    if not self.value(tuple(tmp)):
                        win_all = False
                        break
            if win_all:
                memo[key] = True
                return True
        memo[key] = False
        return False


class _HitLog(dict):
    """A memo that records the key of every hit."""

    def __init__(self):
        super().__init__()
        self.hit_keys = []

    def get(self, key):
        hit = super().get(key)
        if hit is not None:
            self.hit_keys.append(key)
        return hit


def _concrete_replies(g, k, by_color, v):
    """(color, child classes) for every legal concrete color on v."""
    bit = 1 << v
    row = g.adj[v]
    out = []
    for c in range(1, k + 1):
        m = by_color[c - 1]
        if m & row:
            continue
        child = [x for x in by_color if x]
        if m:
            child[child.index(m)] = m | bit
        else:
            child.append(bit)
        out.append((c, tuple(sorted(child))))
    return out


def _parent_principal_line(solver):
    g, k = solver.g, solver.k
    by_color = [0] * k
    line = []
    full = g.full_mask()
    while True:
        colored = 0
        for m in by_color:
            colored |= m
        if colored == full:
            break
        uncol = bits(full & ~colored)
        if any(_concrete_replies(g, k, by_color, v) == [] for v in uncol):
            break
        move = None
        for v in uncol:
            if all(solver.value(ch) for _, ch in _concrete_replies(g, k, by_color, v)):
                move = v
                break
        if move is None:
            move = uncol[0]
        best_c = None
        for c, child in _concrete_replies(g, k, by_color, move):
            if not solver.value(child):
                best_c = c
                break
        if best_c is None:
            best_c = _concrete_replies(g, k, by_color, move)[0][0]
        by_color[best_c - 1] |= 1 << move
        line.append((move, best_c))
    return tuple(line)


def test_last_vertex_shortcut_matches_parent_search(rng):
    """Deciding one-vertex positions in place, and peeling positions, keep
    every value, principal line and optimal reply, and store exactly one
    memo entry per node.  The peel only prunes, so the nodes and memo
    entries are a subset of the parent's, and the hits are at most the
    parent's hits on those entries."""
    graphs = [random_graph(rng, rng.randint(1, 8)) for _ in range(25)]
    graphs.append(complete_expansion(make_named("C", 5), (2, 2, 1, 1, 1)))
    wins = losses = fewer = 0
    for g in graphs:
        for k in range(1, 5):
            for canon in ("classes", "twins"):
                new = GameSolver(g, k, canon=canon)
                old = _ParentSearchSolver(g, k, canon=canon)
                old.memo = _HitLog()
                win = new.value(())
                assert win == old.value(()), (g.edges(), k)
                assert new.nodes <= old.nodes
                fewer += new.nodes < old.nodes
                assert len(new.memo) == new.nodes
                assert new.memo.items() <= old.memo.items()
                assert new.memo_hits <= sum(key in new.memo for key in old.memo.hit_keys)
                wins += win
                losses += not win
                line = ann_wins(g, k, canon=canon).principal_line
                assert line == _parent_principal_line(old), (g.edges(), k, canon)
                state = GameState(g, k)
                for v, c in line + ((None, None),):
                    for u in state.uncolored():
                        if legal_colors(state, u):
                            state.pending = u
                            assert ben_best_reply(state, new) == ben_best_reply(state, old)
                            state.pending = None
                    if v is not None:
                        state.colors[v] = c
    assert wins >= 50 and losses >= 50
    assert fewer >= 100


class _NoPeelSolver(GameSolver):
    """The search as it was before positions were decided by peeling."""

    def _search(self, classes, key):
        """Value of a position whose key is not in the memo; stores it
        unless every vertex is colored."""
        colored = 0
        for c in classes:
            colored |= c
        free = self._full & ~colored
        if not free:
            return True
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise ResourceBudgetExceeded(f"node budget {self.node_budget} exceeded")
        memo = self.memo
        adj = self.g.adj
        open_slot = len(classes) < self.k
        if not free & (free - 1):
            # the last vertex: every legal color completes the coloring
            row = adj[free.bit_length() - 1]
            win = open_slot or any(not (c & row) for c in classes)
            memo[key] = win
            return win
        fresh = [-1] if open_slot else []
        moves = []
        while free:
            bit = free & -free
            free ^= bit
            row = adj[bit.bit_length() - 1]
            # reply -1 opens a new class; i joins classes[i]
            replies = fresh + [i for i, c in enumerate(classes) if not (c & row)]
            if not replies:
                memo[key] = False
                return False
            moves.append((len(replies), -(row & colored).bit_count(), bit, replies))
        moves.sort()
        key_of = self._key
        search = self._search
        for _, _, bit, replies in moves:
            for i in replies:
                if i < 0:
                    child = tuple(sorted(classes + (bit,)))
                else:
                    tmp = list(classes)
                    tmp[i] |= bit
                    tmp.sort()
                    child = tuple(tmp)
                child_key = key_of(child)
                win = memo.get(child_key)
                if win is None:
                    win = search(child, child_key)
                else:
                    self.memo_hits += 1
                if not win:
                    break
            else:
                memo[key] = True
                return True
        memo[key] = False
        return False


def test_peel_values_match_reference_at_root(rng):
    """With the peel, root values still equal the canonicalization-free
    reference in both canon modes."""
    peeled = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), p=rng.choice((0.3, 0.5, 0.7)))
        for k in range(1, 6):
            ref = ann_wins_reference(g, k)
            for canon in ("classes", "twins"):
                solver = GameSolver(g, k, canon=canon)
                assert solver.value(()) == ref, (g.edges(), k, canon)
                peeled += solver.nodes < _solve_counts(_NoPeelSolver(g, k, canon=canon))[1]
    assert peeled >= 50


def _random_partial_coloring(rng, g, k):
    """A proper partial coloring reached by coloring random vertices with
    random legal colors; it may leave a vertex blocked."""
    state = GameState(g, k)
    for v in rng.sample(range(g.n), rng.randint(0, g.n - 1)):
        legal = sorted(legal_colors(state, v))
        if legal:
            state.colors[v] = rng.choice(legal)
    return state


def test_blocked_vertex_matches_legal_sets(rng):
    """The class-mask test finds the same least-id blocked vertex as the
    set-based legal colors."""
    blocked = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 9), p=rng.choice((0.3, 0.5, 0.7)))
        state = _random_partial_coloring(rng, g, rng.randint(1, 5))
        expect = next((v for v in state.uncolored() if not legal_colors(state, v)), None)
        assert blocked_vertex(state) == expect, (g.edges(), state.k, state.colors)
        blocked += expect is not None
    assert 50 <= blocked <= 350


def test_peel_values_match_unpeeled_search_inside(rng):
    """At interior positions the peeled search gives the unpeeled search's
    value, with no more nodes."""
    positions = 0
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9), p=rng.choice((0.3, 0.5, 0.7)))
        for k in range(1, 6):
            for canon in ("classes", "twins"):
                new = GameSolver(g, k, canon=canon)
                old = _NoPeelSolver(g, k, canon=canon)
                for _ in range(6):
                    state = _random_partial_coloring(rng, g, k)
                    assert new.state_value(state) == old.state_value(state), \
                        (g.edges(), k, canon, state.colors)
                    positions += 1
                assert new.nodes <= old.nodes
    assert positions >= 1500


def test_peel_decides_root_at_coloring_number(rng):
    """At the root every vertex has k legal colors, so the whole graph peels
    iff k >= col, and then the search takes one node.  IC7:2^7 has col = 5."""
    g = independent_expansion(make_named("C", 7), (2,) * 7)
    assert degeneracy(g).col == 5
    for k in (5, 6):
        for canon in ("classes", "twins"):
            solver = GameSolver(g, k, canon=canon)
            assert solver.value(()) and (solver.nodes, len(solver.memo)) == (1, 1)
    assert GameSolver(g, 4).value(())
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9), p=rng.choice((0.3, 0.5, 0.7)))
        col = degeneracy(g).col
        for k in range(1, col + 2):
            solver = GameSolver(g, k)
            solver.value(())
            assert (solver.nodes == 1) == (k >= col), (g.edges(), k)


def test_chi_i_label_invariance(rng):
    """Relabeling the vertices never changes the winnable table."""
    checked = 0
    graphs_used = 0
    while graphs_used < 20:
        n = rng.randint(3, 8)
        g = random_graph(rng, n, p=rng.choice((0.3, 0.5, 0.7)))
        base = chi_i(g, min(n, 5))
        graphs_used += 1
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in g.edges()]
            h = Graph(n, edges)
            assert chi_i(h, min(n, 5)).winnable == base.winnable
            checked += 1
    assert checked >= 100


def test_optimal_ben_is_deterministic():
    g = make_named("C", 5)
    from indicated.strategies import strat_cycle_expansion

    m1 = play_match(g, 3, strat_cycle_expansion(g, 3))
    m2 = play_match(g, 3, strat_cycle_expansion(g, 3))
    assert m1.moves == m2.moves


def test_strategy_win_implies_game_value(rng):
    """A strategy win against the optimal adversary certifies the game value."""
    from indicated.strategies import strat_degeneracy
    from indicated.graphs import degeneracy

    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 7))
        col = degeneracy(g).col
        res = play_match(g, col, strat_degeneracy(g, col))
        assert res.ann_won
        assert ann_wins(g, col, want_line=False).ann_wins


def test_union_and_join_solver_identities(rng):
    for _ in range(10):
        g1 = random_graph(rng, rng.randint(1, 4))
        g2 = random_graph(rng, rng.randint(1, 4))
        c1 = chi_i(g1).chi_i
        c2 = chi_i(g2).chi_i
        assert chi_i(union(g1, g2)).chi_i == max(c1, c2)
        assert chi_i(join(g1, g2)).chi_i == c1 + c2


def test_gamestate_turn_and_clone():
    g = make_named("C", 4)
    s = GameState(g, 2)
    assert s.turn == "ann"
    s.pending = 0
    assert s.turn == "ben"
    s.pending = None
    s.colors[0] = 1
    c = s.clone()
    c.colors[2] = 2
    assert s.colors[2] == 0 and c.colors[0] == 1


@pytest.mark.slow
def test_twin_canonicalization_agrees_on_larger_graphs(rng):
    """Beyond the reference-solver range, the twin-profile key must still
    agree with the plain class-multiset key."""
    for _ in range(120):
        g = random_graph(rng, rng.randint(7, 8), p=rng.choice((0.3, 0.5, 0.7)))
        for k in range(2, 6):
            a = ann_wins(g, k, canon="classes", want_line=False).ann_wins
            b = ann_wins(g, k, canon="twins", want_line=False).ann_wins
            assert a == b, (g.edges(), k)


def test_budget_propagates_through_match():
    g = make_named("Petersen")
    from indicated.strategies import strat_degeneracy

    with pytest.raises(ResourceBudgetExceeded):
        play_match(g, 4, strat_degeneracy(g, 4), node_budget=3)


def test_winnable_at_coloring_number(rng):
    """Solver-level check of the greedy bound: every graph is winnable for
    k >= col(G), independent of the strategy layer."""
    from indicated.graphs import degeneracy

    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        col = degeneracy(g).col
        assert ann_wins(g, col, want_line=False).ann_wins
        assert ann_wins(g, col + 1, want_line=False).ann_wins


def test_omega_exact_brute_oracle(rng):
    from itertools import combinations

    def brute_omega(g):
        for size in range(g.n, 0, -1):
            for cand in combinations(range(g.n), size):
                if all(g.has_edge(u, v) for i, u in enumerate(cand)
                       for v in cand[i + 1:]):
                    return size
        return 0

    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 8))
        assert omega_exact(g) == brute_omega(g)


def test_known_instances_corroborate_engine():
    pet = make_named("Petersen")
    assert [ann_wins(pet, k, want_line=False).ann_wins for k in (2, 3, 4, 5)] \
        == [False, True, True, True]
    g = complete_expansion(make_named("C", 6), (2,) * 6)
    res = chi_i(g, 6, canon="twins")
    assert res.chi_i == 4
    assert res.winnable == {1: False, 2: False, 3: False,
                            4: True, 5: True, 6: True}


# The principal line, the optimal reply and the solver-backed selector as
# each derived "a winning vertex or a refuting color" from _concrete_replies
# before GameSolver.move and GameSolver.reply answered it.

def _replies_principal_line(solver):
    g, k = solver.g, solver.k
    by_color = [0] * k
    line = []
    full = solver._full
    colored = 0
    while colored != full:
        moves = [(v, _concrete_replies(g, k, by_color, v))
                 for v in bits(full & ~colored)]
        if not all(r for _, r in moves):
            break
        move, replies = next(((v, r) for v, r in moves
                              if all(solver.value(ch) for _, ch in r)), moves[0])
        best_c = next((c for c, ch in replies if not solver.value(ch)),
                      replies[0][0])
        by_color[best_c - 1] |= 1 << move
        colored |= 1 << move
        line.append((move, best_c))
    return tuple(line)


def _replies_ben_best_reply(state, solver=None):
    """A color minimizing the selector's continuation value for the pending
    vertex; least color among optimal replies."""
    if state.pending is None:
        raise BadParam("no pending vertex")
    v = state.pending
    g, k = state.graph, state.k
    if solver is None:
        solver = GameSolver(g, k, canon="twins")
    by_color = state.color_class_masks()
    replies = _concrete_replies(g, k, by_color, v)
    if not replies:
        raise NoLegalColor(f"vertex {v} is blocked")
    for c, child in replies:
        if not solver.value(child):
            return c
    return replies[0][0]


class _RepliesSolverStrategy(Strategy):
    name = "solver"

    def __init__(self, solver):
        self.solver = solver

    def next_vertex(self, state):
        g, k = self.solver.g, self.solver.k
        by_color = state.color_class_masks()
        for v in range(g.n):
            if state.colors[v]:
                continue
            replies = _concrete_replies(g, k, by_color, v)
            if replies and all(self.solver.value(ch) for _, ch in replies):
                return v
        raise StrategyInvariantViolation("solver-backed strategy in a lost position")


class _RepliesBen:
    def __init__(self, solver):
        self.solver = solver

    def reply(self, state):
        return _replies_ben_best_reply(state, self.solver)


def _same_counts(a, b):
    return (a.nodes, len(a.memo), a.memo_hits) == (b.nodes, len(b.memo), b.memo_hits)


def test_solver_query_matches_concrete_replies(rng, connected_le7):
    """move and reply make the same value calls, in the same order, as the
    _concrete_replies callers did: values, principal lines, nodes, memo
    sizes, optimal replies and solver-backed matches are identical.  The
    line no longer re-probes the chosen vertex, so its hits can only drop."""
    graphs = [random_graph(rng, rng.randint(1, 9)) for _ in range(60)]
    graphs += connected_le7[::25]
    graphs += [complete_expansion(make_named("C", 5), (2, 2, 1, 1, 1)),
               independent_expansion(make_named("C", 6), (2, 1, 2, 1, 1, 1)),
               make_named("Petersen")]
    wins = losses = fewer_hits = 0
    for g in graphs:
        for k in range(1, 5):
            for canon in ("classes", "twins"):
                new = GameSolver(g, k, canon=canon)
                old = GameSolver(g, k, canon=canon)
                win = new.value(())
                assert win == old.value(()), (g.edges(), k, canon)
                line = _principal_line(new)
                assert line == _replies_principal_line(old), (g.edges(), k, canon)
                assert (new.nodes, len(new.memo)) == (old.nodes, len(old.memo))
                assert new.memo_hits <= old.memo_hits
                fewer_hits += new.memo_hits < old.memo_hits
                assert ann_wins(g, k, canon=canon) == SolveResult(
                    k, win, line, new.nodes, new.memo_hits)
                wins += win
                losses += not win
                new.memo_hits = old.memo_hits = 0
                state = GameState(g, k)
                for v, c in line + ((None, None),):
                    for u in state.uncolored():
                        state.pending = u
                        if legal_colors(state, u):
                            assert ben_best_reply(state, new) == \
                                _replies_ben_best_reply(state, old), (g.edges(), k, u)
                        else:
                            with pytest.raises(NoLegalColor):
                                ben_best_reply(state, new)
                        state.pending = None
                        assert _same_counts(new, old)
                    if v is not None:
                        state.colors[v] = c
                if win:
                    strat = strat_solver_backed(g, k, canon=canon)
                    ref = _RepliesSolverStrategy(GameSolver(g, k, canon=canon))
                    ref.solver.value(())
                    ben = _RepliesBen(GameSolver(g, k, canon=canon))
                    assert play_match(g, k, strat, canon=canon) == \
                        play_match(g, k, ref, ben), (g.edges(), k, canon)
                    assert _same_counts(strat.solver, ref.solver)
    assert wins >= 300 and losses >= 300
    assert fewer_hits >= 500
