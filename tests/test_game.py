import json
from pathlib import Path

import pytest

import indicated.game as game
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
    max_clique,
    omega_exact,
    _Colorings,
    _extend,
    _greedy_chi,
    _inside,
    _principal_line,
    play_match,
    twin_classes,
)
from indicated.graphs import (
    Graph,
    bits,
    complete_expansion,
    degeneracy,
    expand,
    independent_expansion,
    join,
    make_named,
    parse_graph6,
    union,
)
from indicated.strategies import Strategy, strat_solver_backed

from builders import random_graph, relabelled


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
    res = chi_i(make_named("Petersen"), 4)
    assert res.chi_i == 3
    res = chi_i(complete_expansion(make_named("C", 5), (2, 2, 2, 2, 2)), 6)
    assert res.chi_i == 5
    assert res.winnable[5] and res.winnable[6]


def test_chi_i_errors_and_edges():
    with pytest.raises(NotWinnableWithinKmax):
        chi_i(make_named("C", 5), 2)
    assert chi_i(Graph(0)).chi_i == 0
    assert chi_i(Graph(1)).chi_i == 1


def test_chi_i_checks_an_explicit_kmax_on_every_graph():
    """kmax < 1 is refused on the empty graph as on any other; kmax=None
    on the empty graph is the empty table."""
    for g in (Graph(0), Graph(1), make_named("C", 5)):
        for kmax in (0, -3):
            with pytest.raises(BadParam, match="kmax must be >= 1"):
                chi_i(g, kmax)
    for res in (chi_i(Graph(0)), chi_i(Graph(0), 3)):
        assert (res.chi_i, res.winnable) == (0, {})


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


class _ConstantBen:
    def __init__(self, color):
        self.color = color

    def reply(self, state):
        return self.color


def test_play_match_rejects_illegal_replies():
    from indicated.strategies import strat_cycle_expansion

    c5 = make_named("C", 5)
    # color 1 again on vertex 1, next to vertex 0, would be improper
    with pytest.raises(BadParam, match="reply 1 .* vertex 1"):
        play_match(c5, 3, strat_cycle_expansion(c5, 3), _ConstantBen(1))
    for color in (0, 4, 9, -1, "1", 1.0, None):
        with pytest.raises(BadParam, match="vertex 0"):
            play_match(c5, 3, strat_cycle_expansion(c5, 3), _ConstantBen(color))


def test_exact_oracles():
    assert chi_exact(complete_expansion(make_named("C", 5), (2, 2, 2, 2, 2))) == 5
    assert alpha_exact(make_named("C", 5)) == 2
    assert omega_exact(make_named("Kite")) == 3
    assert chi_exact(make_named("Petersen")) == 3
    assert chi_exact(Graph(0)) == 0
    assert max_clique(Graph(0)) == []
    assert omega_exact(Graph(0)) == alpha_exact(Graph(0)) == 0
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


def _brute_completable(g, k, colors):
    """True iff the partial coloring colors (0 = uncolored) extends to a
    proper k-coloring: every color tried on each free vertex in id order."""
    free = [v for v in range(g.n) if not colors[v]]
    colors = list(colors)

    def fill(i):
        if i == len(free):
            return True
        v = free[i]
        for c in range(1, k + 1):
            if all(colors[u] != c for u in g.neighbors(v)):
                colors[v] = c
                if fill(i + 1):
                    return True
        colors[v] = 0
        return False

    return fill(0)


def test_extend_matches_brute_completion(rng, all_le6):
    """_extend finds a completion exactly when one exists, and a found one
    is a proper coloring with at most k classes, the i-th containing the
    i-th given class.  The table of every proper k-coloring that _extend
    lists (all_le6 stays under the cap) gives the same answer."""
    found = none = 0
    for g in all_le6:
        for k in range(1, g.n + 1):
            colorings = []
            assert _extend(g.adj, k, (), g.full_mask(), None, colorings) is None
            assert len(set(map(frozenset, colorings))) == len(colorings)
            table = _Colorings(g.n, k, colorings)
            for trial in range(4):
                state = GameState(g, k) if not trial else _random_partial_coloring(rng, g, k)
                classes = tuple(m for m in state.color_class_masks() if m)
                free = g.full_mask() & ~sum(classes)
                done = _extend(g.adj, k, classes, free)
                completable = _brute_completable(g, k, state.colors)
                assert (done is not None) == completable, (g.edges(), k, state.colors)
                assert bool(table.extends(classes)) == completable, (g.edges(), k, state.colors)
                if done is None:
                    none += 1
                    continue
                found += 1
                assert len(done) <= k
                assert sorted(v for c in done for v in bits(c)) == list(range(g.n))
                assert all(not g.adj[v] & c for c in done for v in bits(c))
                assert all(c & ~d == 0 for c, d in zip(classes, done))
    assert found >= 2000 and none >= 1000


def _old_colorable(g, k, clique):
    """The list-based k-colorability test chi_exact used before _extend,
    verbatim."""
    n = g.n
    adj = g.adj
    if len(clique) > k:
        return False
    colors = [0] * n
    for i, v in enumerate(clique):
        colors[v] = i + 1

    def pick():
        best = None
        for v in range(n):
            if colors[v]:
                continue
            taken = {colors[u] for u in bits(adj[v]) if colors[u]}
            avail = k - len(taken)
            if avail == 0:
                return v, ()
            key = (avail, -len(taken), v)
            if best is None or key < best[0]:
                cand = [c for c in range(1, k + 1) if c not in taken]
                best = (key, v, cand)
        if best is None:
            return None, None
        return best[1], best[2]

    def solve(used):
        v, cand = pick()
        if v is None:
            return True
        if cand == ():
            return False
        for c in cand:
            if c > used + 1:
                break
            colors[v] = c
            if solve(max(used, c)):
                return True
            colors[v] = 0
        return False

    return solve(len(clique))


def test_chi_exact_matches_old_colorable(connected_le7):
    """chi_exact on _extend gives the chromatic number the old test gave,
    and both tests agree on every k from the clique size to n."""
    gaps = 0
    for g in connected_le7:
        clique = max_clique(g)
        upper = _greedy_chi(g)
        old = next((k for k in range(len(clique), upper) if _old_colorable(g, k, clique)),
                   upper)
        assert chi_exact(g) == old, g.edges()
        gaps += len(clique) < upper
        seed = tuple(1 << v for v in clique)
        for k in range(len(clique), g.n + 1):
            assert (_extend(g.adj, k, seed, g.full_mask() & ~sum(seed)) is None) \
                == (not _old_colorable(g, k, clique)), (g.edges(), k)
    assert gaps >= 50


def test_twin_classes():
    g = complete_expansion(make_named("C", 5), (2, 2, 1, 1, 1))
    classes = twin_classes(g)
    assert sorted(m.bit_count() for m in classes) == [1, 1, 1, 2, 2]
    g = independent_expansion(make_named("C", 5), (3, 1, 1, 1, 1))
    classes = twin_classes(g)
    assert sorted(m.bit_count() for m in classes) == [1, 1, 1, 1, 3]


def _union_find_twin_classes(g):
    """twin_classes as a union-find over open and closed neighborhood
    groups, merged transitively."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    groups = {}
    for v in range(g.n):
        open_key = ("o", g.adj[v])
        closed_key = ("c", g.adj[v] | (1 << v))
        for key in (open_key, closed_key):
            if key in groups:
                ra, rb = find(groups[key]), find(v)
                if ra != rb:
                    parent[rb] = ra
            else:
                groups[key] = v
    classes = {}
    for v in range(g.n):
        classes.setdefault(find(v), 0)
        classes[find(v)] |= 1 << v
    return tuple(classes[r] for r in sorted(classes))


def test_twin_classes_match_union_find(rng, all_le6, connected_le7):
    """The open-or-closed grouping gives the union-find's classes, in the
    same order, and no vertex has both a non-trivial open and a non-trivial
    closed twin group, so no transitive merge is ever needed."""
    graphs = list(all_le6) + list(connected_le7)
    graphs += [random_graph(rng, rng.randint(1, 14), p=rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
               for _ in range(2000)]
    for _ in range(300):
        base = random_graph(rng, rng.randint(1, 7), p=rng.choice((0.3, 0.5, 0.7)))
        graphs.append(relabelled(rng, expand(
            base, [rng.randint(1, 3) for _ in range(base.n)],
            [rng.choice(("complete", "independent")) for _ in range(base.n)])))
    with_twins = 0
    for g in graphs:
        classes = twin_classes(g)
        assert classes == _union_find_twin_classes(g), g.edges()
        with_twins += len(classes) < g.n
        for v in range(g.n):
            opened = sum(g.adj[u] == g.adj[v] for u in range(g.n))
            closed = sum(g.adj[u] | 1 << u == g.adj[v] | 1 << v for u in range(g.n))
            assert opened == 1 or closed == 1, (g.edges(), v)
    assert with_twins >= 1000


class _ClassesKeySolver(GameSolver):
    """Keyed by the sorted class-mask tuple alone, collapsing color symmetry
    only (the reference for the twin-profile key)."""

    def _key(self, classes):
        return classes


def test_solver_canonicalizations_agree(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        for k in range(1, 5):
            a = _ClassesKeySolver(g, k).value(())
            b = ann_wins(g, k, want_line=False).ann_wins
            c = ann_wins_reference(g, k)
            assert a == b == c


def test_twin_key_keeps_kc5_table():
    """KC5:3,3,2,2,2 has chi = col = 6, so every k of 1..8 is decided at
    the root in one node with either key.  KC5:2,2,2,2,2 has chi 5 and col
    6, so k = 5 is searched, with the no-completion proof at every
    position: there the twin key gives the class-multiset key's table in 56
    nodes over k = 1..7 (230 with the class-multiset key)."""
    for mods, kmax, counts in (((3, 3, 2, 2, 2), 8, (8, 8)),
                               ((2, 2, 2, 2, 2), 7, (56, 230))):
        g = complete_expansion(make_named("C", 5), mods)
        table = {}
        nodes = ref_nodes = 0
        for k in range(1, kmax + 1):
            ref = _ClassesKeySolver(g, k)
            table[k] = ref.value(())
            res = ann_wins(g, k, want_line=False)
            assert res.ann_wins == table[k], (mods, k)
            nodes += res.nodes
            ref_nodes += ref.nodes
        assert chi_i(g, kmax).winnable == table
        assert (nodes, ref_nodes) == counts, mods


class _CountTupleTwinSolver(GameSolver):
    """Keyed by the unpacked per-twin-class count tuples (the reference for
    the packed, cached profile key)."""

    def __init__(self, g, k):
        super().__init__(g, k)
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
            packed = _solve_counts(GameSolver(g, k))
            assert packed == _solve_counts(_CountTupleTwinSolver(g, k)), (g.edges(), k)
    petersen = make_named("Petersen")
    assert all(t.bit_count() == 1 for t in twin_classes(petersen))
    for k in range(1, 5):
        twins = GameSolver(petersen, k)
        assert twins._twins is None
        assert _solve_counts(twins) == _solve_counts(_ClassesKeySolver(petersen, k))


class _ParentSearchSolver(GameSolver):
    """The search as it was before one-vertex positions were decided without
    a child: it recurses into, and memoizes, every completed coloring."""

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
    """Against the parent search, which recursed into and memoized every
    completed coloring and did not peel, deciding each one-vertex position
    by the blocked test or the peel, and peeling every position, keep every
    value, principal line and optimal reply, and store exactly one memo
    entry per node.  The peel only prunes, so the nodes and memo entries are
    a subset of the parent's, and the hits are at most the parent's hits on
    those entries.  A one-vertex position takes one node and one memo entry:
    K2 with vertex 0 colored is won at k = 2 and lost, blocked, at k = 1."""
    for k in (1, 2):
        solver = GameSolver(make_named("K", 2), k)
        assert solver.value((0b01,)) == (k == 2)
        assert (solver.nodes, len(solver.memo)) == (1, 1)
    graphs = [random_graph(rng, rng.randint(1, 8)) for _ in range(50)]
    graphs.append(complete_expansion(make_named("C", 5), (2, 2, 1, 1, 1)))
    wins = losses = fewer = 0
    for g in graphs:
        for k in range(1, 5):
            new = GameSolver(g, k)
            old = _ParentSearchSolver(g, k)
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
            line = ann_wins(g, k).principal_line
            assert line == _parent_principal_line(old), (g.edges(), k)
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
    reference."""
    peeled = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), p=rng.choice((0.3, 0.5, 0.7)))
        for k in range(1, 6):
            solver = GameSolver(g, k)
            assert solver.value(()) == ann_wins_reference(g, k), (g.edges(), k)
            peeled += solver.nodes < _solve_counts(_NoPeelSolver(g, k))[1]
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
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 9), p=rng.choice((0.3, 0.5, 0.7)))
        for k in range(1, 6):
            new = GameSolver(g, k)
            old = _NoPeelSolver(g, k)
            for _ in range(6):
                state = _random_partial_coloring(rng, g, k)
                classes = tuple(sorted(m for m in state.color_class_masks() if m))
                assert new.value(classes) == old.value(classes), \
                    (g.edges(), k, state.colors)
                positions += 1
            assert new.nodes <= old.nodes
    assert positions >= 1500


def test_peel_decides_root_at_coloring_number(rng):
    """At the root every vertex has k legal colors, so the whole graph peels
    iff k >= col, and then the search takes one node.  Below chi the root
    has no proper k-coloring to complete, so it is lost in one node too.
    IC7:2^7 has chi = 3 and col = 5."""
    g = independent_expansion(make_named("C", 7), (2,) * 7)
    assert degeneracy(g).col == 5
    for k in (5, 6):
        solver = GameSolver(g, k)
        assert solver.value(()) and (solver.nodes, len(solver.memo)) == (1, 1)
    assert GameSolver(g, 4).value(())
    assert chi_exact(g) == 3
    for k in (1, 2):
        solver = GameSolver(g, k)
        assert not solver.value(()) and (solver.nodes, len(solver.memo)) == (1, 1)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9), p=rng.choice((0.3, 0.5, 0.7)))
        col = degeneracy(g).col
        chi = chi_exact(g)
        for k in range(1, col + 2):
            solver = GameSolver(g, k)
            solver.value(())
            assert (solver.nodes == 1) == (k >= col or k < chi), (g.edges(), k)


def test_root_proof_below_chi(all_le6, connected_le7):
    """Below chi the root has no proper k-coloring, so the game is lost in
    one node, the value agrees with the reference, and every answer is the
    least one: the principal line colors the least uncolored vertex with its
    least legal color until a vertex is blocked, and the optimal reply on
    any vertex along that line is its least legal color, with no further
    node searched."""
    pairs = replies = 0
    for g in list(all_le6) + list(connected_le7):
        for k in range(1, chi_exact(g)):
            res = ann_wins(g, k)
            assert (res.ann_wins, res.nodes) == (False, 1), (g.edges(), k)
            assert not ann_wins_reference(g, k), (g.edges(), k)
            state = GameState(g, k)
            line = []
            while blocked_vertex(state) is None:
                v = state.uncolored()[0]
                line.append((v, min(legal_colors(state, v))))
                state.colors[v] = line[-1][1]
            assert res.principal_line == tuple(line), (g.edges(), k)
            solver = GameSolver(g, k)
            assert not solver.value(())
            state = GameState(g, k)
            for v, c in line + [(None, None)]:
                for u in state.uncolored():
                    legal = legal_colors(state, u)
                    if legal:
                        state.pending = u
                        assert ben_best_reply(state, solver) == min(legal), (g.edges(), k)
                        state.pending = None
                        replies += 1
                if v is not None:
                    state.colors[v] = c
            assert solver.nodes == 1
            pairs += 1
    assert pairs >= 2700 and replies >= 40000


def _classes(state):
    return tuple(sorted(m for m in state.color_class_masks() if m))


def _gated_solvers(graphs):
    """(g, k, solver) for every graph and every k with chi <= k < col, after
    the root search has found the witness that sets the no-completion
    gate."""
    for g in graphs:
        for k in range(chi_exact(g), degeneracy(g).col):
            solver = GameSolver(g, k)
            solver.value(())
            assert solver.witness is not None, (g.edges(), k)
            yield g, k, solver


def test_child_consistent_set_matches_a_fresh_one(rng, all_le6):
    """The consistent set a child gets from its parent's, by the table rows
    of the vertex it colors, equals the child's own: for every free vertex
    of the empty and of random partial colorings, joining each class it
    fits and a class of its own."""
    derived = empty = 0
    for g in all_le6:
        for k in range(1, g.n + 1):
            colorings = []
            _extend(g.adj, k, (), g.full_mask(), None, colorings)
            table = _Colorings(g.n, k, colorings)
            for trial in range(4):
                state = GameState(g, k) if not trial else _random_partial_coloring(rng, g, k)
                classes = _classes(state)
                ok = table.extends(classes)
                for v in bits(g.full_mask() & ~sum(classes)):
                    children = [(i, classes[:i] + (c | 1 << v,) + classes[i + 1:])
                                for i, c in enumerate(classes) if not c & g.adj[v]]
                    if len(classes) < k:
                        children.insert(0, (-1, classes + (1 << v,)))
                    if not children:
                        continue
                    sets = table.children(ok, classes, v, [i for i, _ in children])
                    for (i, child), sub in zip(children, sets, strict=True):
                        assert sub == table.extends(child), (g.edges(), k, state.colors, v, i)
                        derived += 1
                        empty += not sub
    assert derived >= 20000 and empty >= 5000


def test_gate_is_set_at_every_searched_root(rng):
    """The root sets the gate, its witness, iff it is searched and has a
    k-coloring: it does not peel and k >= chi, so at chi <= k < col."""
    gated = 0
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 9), p=rng.choice((0.3, 0.5, 0.7)))
        chi = chi_exact(g)
        col = degeneracy(g).col
        for k in range(1, col + 2):
            solver = GameSolver(g, k)
            solver.value(())
            assert (solver.witness is not None) == (chi <= k < col), (g.edges(), k)
            gated += solver.witness is not None
    assert gated >= 12


def test_no_completion_proof_matches_reference_inside(rng, all_le6, connected_le7):
    """With the gate set, at every k with chi <= k < col (278 solvers),
    random positions get the canonicalization-free reference's value."""
    positions = lost = 0
    for g, k, solver in _gated_solvers(list(all_le6) + list(connected_le7)):
        for _ in range(6):
            state = _random_partial_coloring(rng, g, k)
            win = solver.value(_classes(state))
            assert win == ann_wins_reference(g, k, colors=state.colors), \
                (g.edges(), k, state.colors)
            positions += 1
            lost += not win
    assert positions == 1668 and lost >= 400


def test_no_completion_position_is_lost_in_one_node(rng, all_le6, connected_le7):
    """With the gate set, a position not yet in the memo that has no proper
    k-completion (by brute force) is stored as lost in one node, also when
    no vertex is blocked yet."""
    fresh = unblocked = 0
    for g, k, solver in _gated_solvers(list(all_le6) + list(connected_le7)):
        for _ in range(16):
            state = _random_partial_coloring(rng, g, k)
            classes = _classes(state)
            key = solver._key(classes)
            if key in solver.memo or _brute_completable(g, k, state.colors):
                continue
            nodes = solver.nodes
            assert not solver.value(classes)
            assert solver.nodes == nodes + 1 and solver.memo[key] is False, \
                (g.edges(), k, state.colors)
            fresh += 1
            unblocked += blocked_vertex(state) is None
    assert fresh >= 1000 and unblocked >= 150


def test_inside_witness_implies_completion(rng, all_le6):
    """A position whose classes lie inside distinct classes of a proper
    coloring completes; two classes inside one witness class do not
    count."""
    inside = outside = 0
    for g in all_le6:
        for k in range(1, g.n + 1):
            witness = _extend(g.adj, k, (), g.full_mask())
            if witness is None:
                continue
            for _ in range(4):
                state = _random_partial_coloring(rng, g, k)
                if rng.random() < 0.5:
                    # uncolor part of the witness and rename its colors
                    names = rng.sample(range(1, k + 1), len(witness))
                    state.colors = [0] * g.n
                    for name, w in zip(names, witness):
                        for v in bits(w):
                            state.colors[v] = name if rng.random() < 0.6 else 0
                if _inside(_classes(state), witness):
                    assert _brute_completable(g, k, state.colors), (g.edges(), k, state.colors)
                    inside += 1
                else:
                    outside += 1
    assert inside >= 2000 and outside >= 500
    p3 = make_named("P", 3)
    assert not _inside((0b001, 0b100), (0b101, 0b010))
    assert not _brute_completable(p3, 2, [1, 0, 2])


def _twin_heavy_tables():
    """(graph, kmax) of the two deep-solve tables: IC7:2^7 to 6 and
    KC5:3,3,2,2,2 to 8."""
    return [(independent_expansion(make_named("C", 7), (2,) * 7), 6),
            (complete_expansion(make_named("C", 5), (3, 3, 2, 2, 2)), 8)]


def _pinned_counts(connected_le7, counts):
    """counts(g, kmax) -> (nodes, memo entries) summed over connected_le7 at
    max degree + 1, then on each of the two deep-solve tables."""
    total = [0, 0]
    for g in connected_le7:
        nodes, entries = counts(g, max(g.degree(v) for v in range(g.n)) + 1)
        total[0] += nodes
        total[1] += entries
    return (tuple(total), *(counts(g, kmax) for g, kmax in _twin_heavy_tables()))


PINNED_COUNTS = ((7022, 7022), (195, 195), (8, 8))
# with a table from the first failed completion search, and with none
TABLED_COUNTS = ((6937, 6937), (195, 195), (8, 8))
UNTABLED_COUNTS = ((7040, 7040), (195, 195), (8, 8))


def _fresh_counts(g, kmax):
    """(nodes, memo entries) of a fresh solve of each k = 1..kmax."""
    nodes = entries = 0
    for k in range(1, kmax + 1):
        solver = GameSolver(g, k)
        solver.value(())
        nodes += solver.nodes
        entries += len(solver.memo)
    return nodes, entries


def test_solver_counts_are_pinned(connected_le7):
    """Nodes and memo entries of chi_i(g, max degree + 1) over
    connected_le7 and of two deep-solve tables, so a change meant only to be
    faster can show the search is as it was; a declared search change
    restates them."""
    assert _pinned_counts(connected_le7, _fresh_counts) == PINNED_COUNTS


@pytest.mark.parametrize("limit", [game._COLORINGS_LIMIT, 0])
def test_coloring_table_keeps_the_pinned_counts(connected_le7, monkeypatch, limit):
    """Answering the gated completion queries from the coloring table, or
    from the search when the table is over the cap, searches the pinned
    nodes and memo entries: tabulating on the first failed search (22
    connected_le7 solves build a table, and the moves it refutes take 103
    nodes off), or never (a cap of 0)."""
    built = []
    tabulate = GameSolver._completes

    def completes(self, classes, free):
        had = self.colorings is not None
        done = tabulate(self, classes, free)
        built.append(not had and self.colorings is not None)
        return done

    monkeypatch.setattr(game, "_TABULATE_AFTER", 1)
    monkeypatch.setattr(game, "_COLORINGS_LIMIT", limit)
    monkeypatch.setattr(GameSolver, "_completes", completes)
    assert _pinned_counts(connected_le7, _fresh_counts) == \
        (TABLED_COUNTS if limit else UNTABLED_COUNTS)
    assert sum(built) == (22 if limit else 0)


def test_tabled_solves_match_the_reference(rng, monkeypatch, all_le6, connected_le7):
    """With a table from the first failed completion search, so that moves
    are refuted from it, the root of every all_le6 and connected_le7 graph
    at k = chi and at every gated k, chi < k < col, gets the
    canonicalization-free reference's value, and so do random positions of
    each solver that built a table.  Where the graph is twin-free, so that
    a memo key is the position's classes, every memo entry holds the
    reference's value too."""
    monkeypatch.setattr(game, "_TABULATE_AFTER", 1)
    roots = tabled = positions = entries = 0
    for g in list(all_le6) + list(connected_le7):
        chi = chi_exact(g)
        for k in range(chi, max(degeneracy(g).col, chi + 1)):
            solver = GameSolver(g, k)
            assert solver.value(()) == ann_wins_reference(g, k), (g.edges(), k)
            roots += 1
            if solver.colorings is None:
                continue
            tabled += 1
            for _ in range(6):
                state = _random_partial_coloring(rng, g, k)
                assert solver.value(_classes(state)) == \
                    ann_wins_reference(g, k, colors=state.colors), (g.edges(), k, state.colors)
                positions += 1
            if solver._twins is None:
                for classes, win in solver.memo.items():
                    colors = [0] * g.n
                    for c, mask in enumerate(classes, 1):
                        for v in bits(mask):
                            colors[v] = c
                    assert win == ann_wins_reference(g, k, colors=colors), (g.edges(), k, colors)
                    entries += 1
    assert roots == 1220 and tabled == 23 and positions == 138 and entries == 130


def test_tabled_solves_above_chi_match_an_ungated_solve(rng, monkeypatch):
    """At chi < k < col no corpus solver builds a table, so seeded random
    graphs on 10 to 12 vertices check it there, tabulating on the first
    failed completion search: the root, and random colored positions of
    each solver that built a table, get the value of an ungated solve.
    That is a fresh solver that never searches the root (the root's value
    is its move's), so it finds no witness and runs neither the gate nor
    the table."""
    monkeypatch.setattr(game, "_TABULATE_AFTER", 1)
    roots = tabled = positions = lost = 0
    for _ in range(2000):
        g = random_graph(rng, rng.randint(10, 12), p=rng.choice((0.3, 0.5, 0.7)))
        for k in range(chi_exact(g) + 1, degeneracy(g).col):
            solver = GameSolver(g, k)
            ungated = GameSolver(g, k)
            assert solver.value(()) == ungated.move([0] * k)[2], (g.edges(), k)
            roots += 1
            if solver.colorings is None:
                continue
            tabled += 1
            for _ in range(6):
                classes = _classes(_random_partial_coloring(rng, g, k))
                if classes:
                    win = solver.value(classes)
                    assert win == ungated.value(classes), (g.edges(), k, classes)
                    positions += 1
                    lost += not win
            assert ungated.witness is None and ungated.colorings is None
    assert (roots, tabled, positions, lost) == (195, 13, 67, 12)


def _gated_solve(g, k):
    solver = GameSolver(g, k)
    return solver, solver.value(())


def _counted(monkeypatch, name):
    """A one-item list counting the calls of GameSolver's method name."""
    calls = [0]
    method = getattr(GameSolver, name)

    def counted(self, *args):
        calls[0] += 1
        return method(self, *args)

    monkeypatch.setattr(GameSolver, name, counted)
    return calls


def _completed_searches(monkeypatch):
    """A one-item list counting the _search calls on a position with every
    vertex colored: a one-vertex position is decided by the blocked test or
    the peel, so a solve builds no completed coloring."""
    calls = [0]
    search = GameSolver._search

    def counted(self, classes, *args):
        calls[0] += not self._full & ~sum(classes)
        return search(self, classes, *args)

    monkeypatch.setattr(GameSolver, "_search", counted)
    return calls


RANDOM13_04 = "Lr~nnTx|\\ljT{~"


def test_heavy_gated_tables_are_pinned(monkeypatch):
    """Two deep-solve graphs at k = chi whose solves fail many completion
    searches, random13-04 (the costliest table) and random12-01: each
    builds its coloring table and keeps its counts.  Once it has the table,
    a move with a reply that has no consistent coloring is refuted without
    a child, before any reply is searched, so each node is one _search
    call.  Neither searches a completed coloring."""
    searches = _counted(monkeypatch, "_search")
    completed = _completed_searches(monkeypatch)
    solver, win = _gated_solve(parse_graph6(RANDOM13_04), 6)
    assert (win, solver.nodes, len(solver.memo), solver.memo_hits) == (False, 478, 478, 1102)
    assert solver.witness is not None and solver.colorings is not None and searches == [478]
    searches[0] = 0
    solver, win = _gated_solve(parse_graph6("Kz\\qiufmVnx\\"), 5)
    assert (win, solver.nodes, len(solver.memo)) == (True, 59, 59)
    assert solver.witness is not None and solver.colorings is not None and searches == [59]
    assert completed == [0]


def test_node_budget_bounds_a_tabled_solve():
    """random13-04 at k = 6 searches 478 nodes; the moves its table refutes
    add none, and the budget bounds the nodes exactly."""
    g = parse_graph6(RANDOM13_04)
    with pytest.raises(ResourceBudgetExceeded):
        GameSolver(g, 6, node_budget=477).value(())
    solver = GameSolver(g, 6, node_budget=478)
    assert not solver.value(()) and solver.nodes == 478


def test_untabled_tight_solve_keeps_the_gate_after_the_peel(monkeypatch):
    """A gated solver that never fails enough completion searches to build
    the table gates only the positions the peel leaves open: random12-12
    at k = 5 searches 35 nodes with 9 completion searches."""
    completes = _counted(monkeypatch, "_completes")
    solver, win = _gated_solve(parse_graph6("KntT}WnBwjjt"), 5)
    assert (win, solver.nodes, solver.witness is not None, solver.colorings) == \
        (True, 35, True, None)
    assert completes == [9]


def test_coloring_table_over_the_cap_keeps_the_search(monkeypatch):
    """A graph with more proper k-colorings than the cap gets no table and
    keeps the per-position search: Ffx|w plus 7 isolated vertices at k = 4
    (49,152 colorings) when the first failure tabulates, and FPT}o plus 7
    isolated vertices at k = 3, which fails enough searches to try."""
    ffx = parse_graph6("Ffx|w")
    fpt = parse_graph6("FPT}o")
    solver, win = _gated_solve(Graph(14, fpt.edges()), 3)
    assert (win, solver.nodes, solver.witness is not None, solver.colorings) == \
        (True, 304, True, None)
    assert solver._tabulate < 0
    monkeypatch.setattr(game, "_TABULATE_AFTER", 1)
    solver, win = _gated_solve(Graph(14, ffx.edges()), 4)
    assert (win, solver.nodes, solver.witness is not None, solver.colorings) == \
        (True, 12, True, None)
    assert solver._tabulate < 0


def test_chi_i_searches_the_pinned_counts(connected_le7, monkeypatch):
    """chi_i itself searches the pinned nodes and memo entries and holds one
    solver at a time, and never searches a completed coloring.  All its
    solvers share one set of graph tables, and a second chi_i on an equal
    graph finds them cached: it builds none."""
    completed = _completed_searches(monkeypatch)
    seen = {"nodes": 0, "entries": 0, "live": 0, "peak": 0, "twins": 0}
    held = []

    class CountingSolver(GameSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            held.append((self._deg, self._twins))
            seen["live"] += 1
            seen["peak"] = max(seen["peak"], seen["live"])

        def __del__(self):
            seen["live"] -= 1
            seen["nodes"] += self.nodes
            seen["entries"] += len(self.memo)

    def counting_twins(g):
        seen["twins"] += 1
        return twin_classes(g)

    monkeypatch.setattr(game, "GameSolver", CountingSolver)
    monkeypatch.setattr(game, "twin_classes", counting_twins)

    def counts(g, kmax):
        before = dict(seen)
        held.clear()
        result = chi_i(g, kmax)
        found = seen["nodes"] - before["nodes"], seen["entries"] - before["entries"]
        built = seen["twins"]
        assert chi_i(Graph.from_rows(g.adj), kmax).winnable == result.winnable
        assert seen["twins"] == built
        deg, twins = held[0]
        assert all(d is deg and t is twins for d, t in held)
        return found

    assert _pinned_counts(connected_le7, counts) == PINNED_COUNTS
    assert seen["peak"] == 1 and seen["live"] == 0
    assert completed == [0]


def test_chi_i_table_equals_ann_wins_per_k(all_le6, connected_le7):
    """chi_i's table equals a fresh ann_wins solve of each k: on every
    all_le6 and connected_le7 graph to max degree + 1, and on the
    twin-heavy IC7:2^7 to 6 and KC5:3,3,2,2,2 to 8."""
    cases = [(g, max(g.degree(v) for v in range(g.n)) + 1)
             for g in list(all_le6) + list(connected_le7)]
    cases += _twin_heavy_tables()
    for g, kmax in cases:
        assert chi_i(g, kmax).winnable == \
            {k: ann_wins(g, k, want_line=False).ann_wins for k in range(1, kmax + 1)}


def test_extend_returns_recorded_completions():
    """_extend returns the completion recorded from its list-based form
    (data/extend_completions.json: graph6, k, [clique,] classes as vertex
    lists or null): at the root of every all_le6 graph for k = 1..n, and
    from the maximum clique that seeds chi_exact on every connected_le7
    graph for k = clique size..n."""
    data = Path(__file__).parent / "data"
    rec = json.loads((data / "extend_completions.json").read_text())

    def listed(done):
        return None if done is None else [list(bits(c)) for c in done]

    lines = (data / "all_le6.g6").read_text().split()
    assert [r[:2] for r in rec["root"]] == \
        [[ln, k] for ln in lines for k in range(1, parse_graph6(ln).n + 1)]
    for ln, k, want in rec["root"]:
        g = parse_graph6(ln)
        assert listed(_extend(g.adj, k, (), g.full_mask())) == want, (ln, k)
    lines = (data / "connected_le7.g6").read_text().split()
    assert sorted({r[0] for r in rec["clique_seeded"]}) == sorted(lines)
    for ln, k, clique, want in rec["clique_seeded"]:
        g = parse_graph6(ln)
        if k == len(clique):
            assert max_clique(g) == clique, ln
            ks = []
        ks.append(k)
        assert ks == list(range(len(clique), len(clique) + len(ks))), ln
        seed = tuple(1 << v for v in clique)
        done = _extend(g.adj, k, seed, g.full_mask() & ~sum(seed))
        assert listed(done) == want, (ln, k)


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


@pytest.mark.slow
def test_twin_canonicalization_agrees_on_larger_graphs(rng):
    """Beyond the reference-solver range, the twin-profile key must still
    agree with the plain class-multiset key."""
    for _ in range(120):
        g = random_graph(rng, rng.randint(7, 8), p=rng.choice((0.3, 0.5, 0.7)))
        for k in range(2, 6):
            a = _ClassesKeySolver(g, k).value(())
            b = ann_wins(g, k, want_line=False).ann_wins
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
    res = chi_i(g, 6)
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
        solver = GameSolver(g, k)
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
    line no longer re-probes the chosen vertex, so its hits can only drop;
    below chi neither side searches past the root, so there they tie."""
    graphs = [random_graph(rng, rng.randint(1, 9)) for _ in range(200)]
    graphs += connected_le7[::12]
    graphs += [complete_expansion(make_named("C", 5), (2, 2, 1, 1, 1)),
               independent_expansion(make_named("C", 6), (2, 1, 2, 1, 1, 1)),
               make_named("Petersen")]
    wins = losses = fewer_hits = 0
    for g in graphs:
        for k in range(1, 5):
            new = GameSolver(g, k)
            old = GameSolver(g, k)
            win = new.value(())
            assert win == old.value(()), (g.edges(), k)
            line = _principal_line(new)
            assert line == _replies_principal_line(old), (g.edges(), k)
            assert (new.nodes, len(new.memo)) == (old.nodes, len(old.memo))
            assert new.memo_hits <= old.memo_hits
            fewer_hits += new.memo_hits < old.memo_hits
            assert ann_wins(g, k) == SolveResult(k, win, line, new.nodes, new.memo_hits)
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
                strat = strat_solver_backed(g, k)
                ref = _RepliesSolverStrategy(GameSolver(g, k))
                ref.solver.value(())
                ben = _RepliesBen(GameSolver(g, k))
                assert play_match(g, k, strat) == play_match(g, k, ref, ben), (g.edges(), k)
                assert _same_counts(strat.solver, ref.solver)
    assert wins >= 300 and losses >= 300
    assert fewer_hits >= 500
