"""The vertex-selection coloring game: state, exact solving, optimal adversary.

Two players color a graph with a fixed palette 1..k.  The selector (Ann)
picks the next vertex; the colorist (Ben) gives it any proper color.  Ann
wins iff every vertex ends up colored; Ben wins as soon as some uncolored
vertex has all k colors in its neighborhood (a blocked vertex).

The solver computes the exact minimax value.  Its memo key collapses the
k! color symmetry: a position is the unordered multiset of color classes
(each class a vertex bit-set) — the uncolored set is the complement of
their union.  The key also quotients by swapping vertices with identical
(open or closed) neighborhoods, which collapses the huge symmetric state
spaces of expansion graphs; it is validated against a
canonicalization-free reference solver.

Every searched position is first tried for an elimination proof, the
argument behind chi_i <= col.  If the uncolored vertices peel one at a
time, each with fewer uncolored neighbors left than legal colors, the
selector wins by presenting them in reverse peel order: a colored neighbor
removes at most one color, so no vertex is ever blocked.

Its dual is the no-completion proof: the selector wins only by completing
a proper k-coloring, so a position whose classes extend to none is lost.
At the root this decides every k < chi.  When the root has a k-coloring but
no (k-1)-coloring (k = chi, where chi_i > chi can happen) the proof also
runs at every searched position.  After a few positions fail it, the solver
lists every proper k-coloring of the graph once, unless there are more than
_COLORINGS_LIMIT, and answers the rest from that table.  From then on each
position carries its consistent set, the listed colorings that put each of
its classes inside a class of its own, and cuts it by the rows of the
vertex a move colors for each reply before it searches any.  A reply
whose set is empty has no completion, so it alone refutes the move.  A
solver without a table runs the proof after the peel.  Each k proves this
on its own: the table belongs to one solver.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (
    AlreadyColored,
    BadParam,
    NoLegalColor,
    NotWinnableWithinKmax,
    ResourceBudgetExceeded,
    ScriptError,
    StrategyIllegalMove,
    TooLarge,
)
from .graphs import bits, complement, twin_classes

DEFAULT_SOLVE_LIMIT = 14
_COLORINGS_LIMIT = 1024  # most colorings a tight solver tabulates
_TABULATE_AFTER = 8      # failed completion searches before it tabulates
_GRAPHS_CACHED = 64      # graphs whose tables _solver_tables keeps

__all__ = [
    "GameState",
    "SolveResult",
    "ChiIResult",
    "MatchResult",
    "GameSolver",
    "legal_colors",
    "blocked_vertex",
    "ann_wins",
    "ann_wins_reference",
    "chi_i",
    "ben_best_reply",
    "play_match",
    "OptimalBen",
    "ScriptedBen",
    "chi_exact",
    "omega_exact",
    "alpha_exact",
    "max_clique",
    "twin_classes",
]


# ---------------------------------------------------------------------------
# live game position
# ---------------------------------------------------------------------------

class GameState:
    """A graph, a partial proper coloring and the palette size.

    ``colors[v]`` is 0 for uncolored, else a color in 1..k.  ``pending`` is
    the vertex awaiting a color when it is the colorist's turn.
    """

    __slots__ = ("graph", "k", "colors", "pending")

    def __init__(self, graph, k, colors=None, pending=None):
        if k < 1:
            raise BadParam("palette size must be >= 1")
        self.graph = graph
        self.k = k
        self.colors = list(colors) if colors is not None else [0] * graph.n
        self.pending = pending
        self._check()

    def _check(self):
        g = self.graph
        for v in range(g.n):
            c = self.colors[v]
            if c < 0 or c > self.k:
                raise BadParam(f"color {c} outside palette 1..{self.k}")
            if c:
                for u in bits(g.adj[v]):
                    if self.colors[u] == c and u < v:
                        raise BadParam(f"coloring not proper on edge ({u},{v})")
        if self.pending is not None and self.colors[self.pending]:
            raise BadParam("pending vertex already colored")

    def uncolored(self):
        return [v for v in range(self.graph.n) if not self.colors[v]]

    def all_colored(self):
        return all(self.colors)

    def color_class_masks(self):
        """Mask of each color's class, indexed by color-1."""
        out = [0] * self.k
        for v, c in enumerate(self.colors):
            if c:
                out[c - 1] |= 1 << v
        return out


def legal_colors(state, v):
    """Palette minus the colors on v's neighbors."""
    if state.colors[v]:
        raise AlreadyColored(f"vertex {v} already colored")
    taken = {state.colors[u] for u in bits(state.graph.adj[v])}
    return {c for c in range(1, state.k + 1) if c not in taken}


def blocked_vertex(state):
    """Least-id uncolored vertex with an empty legal set, or None."""
    masks = state.color_class_masks()
    free = state.graph.full_mask()
    for m in masks:
        free ^= m
    return _first_blocked(state.graph.adj, masks, free)


def _first_blocked(adj, by_color, free):
    """Least vertex of the mask free whose neighborhood meets every color's
    class mask in by_color, or None."""
    for v in bits(free):
        if all(m & adj[v] for m in by_color):
            return v
    return None


def _extend(adj, k, classes, free, near=None, found=None):
    """A proper k-coloring extending the color classes (a tuple of at most k
    vertex masks) to the vertices of the mask free, as the tuple of its
    class masks, or None when there is none.  The least vertex with the
    fewest legal colors joins each class it fits in turn, then a new class:
    one branch for all the unused colors.

    near[i] is the neighborhood mask of classes[i] (computed when None), so
    a vertex fits class i iff its bit is clear there.  The masks, cut to
    free, are summed in a bit-sliced counter whose top nonempty layer holds
    the vertices that the most classes block.

    With a list found, each completion is appended to it and the search
    goes on, so each partition into at most k classes is listed once.  The
    result is then None when every completion is listed, or the one that
    takes the list past _COLORINGS_LIMIT."""
    if not free:
        if found is None:
            return classes
        found.append(classes)
        return classes if len(found) > _COLORINGS_LIMIT else None
    if near is None:
        near = tuple(_neighborhood(adj, c) for c in classes)
    layers = []
    for m in near:
        m &= free
        for j, s in enumerate(layers):
            if not m:
                break
            layers[j] = s ^ m
            m &= s
        else:
            if m:
                layers.append(m)
    pick = free
    for s in reversed(layers):
        if pick & s:
            pick &= s
    bit = pick & -pick
    row = adj[bit.bit_length() - 1]
    free ^= bit
    for i, m in enumerate(near):
        if not m & bit:
            done = _extend(adj, k, classes[:i] + (classes[i] | bit,) + classes[i + 1:], free,
                           near[:i] + (m | row,) + near[i + 1:], found)
            if done is not None:
                return done
    if len(classes) < k:
        return _extend(adj, k, classes + (bit,), free, near + (row,), found)
    return None


def _inside(classes, witness):
    """True iff each class lies inside its own class of the coloring
    witness, which then completes the position up to renaming colors."""
    used = 0
    for c in classes:
        for j, w in enumerate(witness):
            if not c & ~w:
                if used >> j & 1:
                    return False
                used |= 1 << j
                break
        else:
            return False
    return True


class _Colorings(dict):
    """A table of proper colorings, each a tuple of class masks, as
    bit-sets over the colorings: _lab[v][j] holds the colorings whose j-th
    class contains v.  Vertex r -> its row, listing per vertex v the
    colorings in which r and v share a class; filled on first lookup."""

    def __init__(self, n, k, colorings):
        super().__init__()
        lab = [[0] * k for _ in range(n)]
        for i, coloring in enumerate(colorings):
            for j, c in enumerate(coloring):
                for v in bits(c):
                    lab[v][j] |= 1 << i
        self._lab = lab
        self._all = (1 << len(colorings)) - 1

    def __missing__(self, r):
        mine = self._lab[r]
        row = []
        for theirs in self._lab:
            shared = 0
            for a, b in zip(mine, theirs):
                shared |= a & b
            row.append(shared)
        self[r] = row
        return row

    def extends(self, classes):
        """The consistent set of the classes: the colorings of the table
        that put each class inside a class of its own, 0 for none.  If the
        table holds every proper coloring, it is 0 exactly when the classes
        do not complete."""
        ok = self._all
        seen = []
        for c in classes:
            r = (c & -c).bit_length() - 1
            row = self[r]
            for s in seen:
                ok &= ~row[s]
            c ^= 1 << r
            while c:
                low = c & -c
                ok &= row[low.bit_length() - 1]
                c ^= low
            if not ok:
                return 0
            seen.append(r)
        return ok

    def children(self, ok, classes, v, replies):
        """The consistent sets of the children where v joins classes[i],
        for i in replies (i = -1, listed first, opens a class of its own),
        from ok, that of the classes: the colorings that put v with
        classes[i]'s least vertex, and the ones left over, as a coloring
        puts v with at most one of them."""
        row = self[v]
        sets = [ok & row[(classes[i] & -classes[i]).bit_length() - 1]
                for i in replies if i >= 0]
        if replies[0] < 0:
            sets.insert(0, ok ^ sum(sets))
        return sets


def _neighborhood(adj, mask):
    out = 0
    for v in bits(mask):
        out |= adj[v]
    return out


# ---------------------------------------------------------------------------
# exact solver
# ---------------------------------------------------------------------------

class _TwinProfiles(dict):
    """Class mask -> its twin count profile packed into one int: the count
    of each twin class in a bit field as wide as that class's size needs,
    so distinct profiles give distinct ints.  Filled on first lookup; at
    most 2^n entries."""

    def __init__(self, twins):
        super().__init__()
        fields = []
        shift = 0
        for t in twins:
            fields.append((t, shift))
            shift += t.bit_count().bit_length()
        self._fields = fields

    def __missing__(self, mask):
        p = 0
        for t, shift in self._fields:
            p |= (mask & t).bit_count() << shift
        self[mask] = p
        return p


@lru_cache(maxsize=_GRAPHS_CACHED)
def _solver_tables(g):
    """The full mask, the degree table and the twin profile cache (None
    when every twin class is a singleton) of g, shared by its solvers."""
    tw = twin_classes(g)
    return (g.full_mask(), tuple(row.bit_count() for row in g.adj),
            _TwinProfiles(tw) if len(tw) < g.n else None)


class GameSolver:
    """Memoized exact minimax for one (graph, k) pair.

    A position is keyed by its color classes with each class mask replaced
    by its per-twin-class count profile, packed into one int and cached per
    mask, so the key is the sorted tuple of those ints.  When every twin
    class is a singleton the profile carries no more than the mask, so the
    key is the sorted class-mask tuple itself.  Ben's replies collapse fresh
    colors into one branch, since unused colors are interchangeable.

    A position with no blocked vertex is stored as a win, without a child,
    when its uncolored vertices peel (the elimination proof of the module
    docstring); at the root that is every k >= col, in one node.  The peel
    runs only when some vertex peels at once, a test the move loop makes
    from a degree table and the colored-neighbor count it takes for move
    ordering.  Values are exact either way; only the node count drops.

    So a position with one uncolored vertex takes one node: lost if that
    vertex is blocked, else won, as it has no uncolored neighbor and peels
    at once.  Completed colorings are never built or stored, so after a
    fresh ``value(())`` the memo holds exactly one entry per counted node.
    Children are probed in the memo before the search recurses into them.

    A root that does not peel is stored as lost in one node when ``_extend``
    finds no proper k-coloring (the exhausted search is the witness).  A
    completion of any position would complete the root, so ``lost`` is set
    and every later ``value`` is False without a search.  Otherwise the root
    sets ``tight`` when ``_extend`` finds no (k-1)-coloring, that is when
    k = chi.  Then every later position that does not peel is stored as
    lost, without a child, when ``_extend`` finds no completion of it.  The
    last completion found is kept in ``witness``: a position whose classes
    lie inside distinct witness classes completes without the search.  The
    root's search alone sets ``tight``, so a solver that never searches the
    root (as ``OptimalBen``'s) searches as without it.

    On the ``_TABULATE_AFTER``-th failed completion search, a tight solver
    lists every proper k-coloring of the graph with ``_extend`` and keeps
    them in ``colorings``.  From then on a position completes iff its
    consistent set, the listed colorings that put each of its classes
    inside a class of its own, is not empty: the same answer the search
    gives.  A position gets that set from its parent (``_search``'s ``ok``),
    cut by the table rows of the vertex the move colors, and runs the gate
    before it builds its move list.  A declared search change: the parent
    cuts the sets of every reply of a move first, and a reply whose set is
    empty refutes the move alone (probed in the memo, else stored as lost
    in one node), so no reply before it is searched.  Values do not change;
    the nodes of a tabled solve drop, by half on the deep solves.
    A graph with more than ``_COLORINGS_LIMIT`` proper k-colorings gets no
    table and keeps the search after the peel, as does every solver before
    its table.  The table is this solver's own: no other k reads it.

    The full mask, the degree table and the twin profile cache do not
    depend on k; they are built once per graph, in a bounded cache.
    """

    def __init__(self, g, k, node_budget=None):
        if k < 1:
            raise BadParam("palette size must be >= 1")
        self.g = g
        self.k = k
        self.node_budget = node_budget
        self.memo = {}
        self.nodes = 0
        self.memo_hits = 0
        self.lost = False
        self.tight = False
        self.witness = None
        self.colorings = None
        self._tabulate = _TABULATE_AFTER
        self._full, self._deg, self._twins = _solver_tables(g)

    def _key(self, classes):
        if self._twins is None:
            return classes
        return tuple(sorted(map(self._twins.__getitem__, classes)))

    def value(self, classes=()):
        """True iff the selector wins with optimal play from this
        selector-to-move position (classes: sorted tuple of class masks)."""
        if self.lost:
            return False
        key = self._key(classes)
        hit = self.memo.get(key)
        if hit is not None:
            self.memo_hits += 1
            return hit
        return self._search(classes, key)

    def _search(self, classes, key, ok=None):
        """Value of a position whose key is not in the memo; stores it
        unless every vertex is colored.  ok is its consistent set in the
        coloring table (computed here when None), 0 when it is lost."""
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
        table = self.colorings
        if table is not None:
            if ok is None:
                ok = table.extends(classes)
            if not ok:
                memo[key] = False
                return False
        adj = self.g.adj
        open_slot = len(classes) < self.k
        fresh = [-1] if open_slot else []
        # a vertex's legal colors: its replies plus the unused colors that
        # the one fresh reply stands for
        spare = self.k - len(classes) - open_slot
        deg = self._deg
        moves = []
        peel = 0
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length() - 1
            row = adj[v]
            # reply -1 opens a new class; i joins classes[i]
            replies = fresh + [i for i, c in enumerate(classes) if not (c & row)]
            if not replies:
                memo[key] = False
                return False
            n_replies = len(replies)
            taken = (row & colored).bit_count()
            moves.append((n_replies, -taken, bit, replies))
            if deg[v] - taken < n_replies + spare:
                peel |= bit
        if peel:
            # peel the rest in sweeps until it is empty or a sweep is stuck
            rest = self._full & ~(colored | peel)
            stuck = 0
            while rest != stuck:
                stuck = rest
                for n_replies, _, bit, _ in moves:
                    if (bit & rest and (adj[bit.bit_length() - 1] & rest).bit_count()
                            < n_replies + spare):
                        rest ^= bit
            if not rest:
                memo[key] = True
                return True
        if not classes:
            self.witness = _extend(adj, self.k, (), self._full)
            if self.witness is None:
                self.lost = True
                memo[key] = False
                return False
            self.tight = _extend(adj, self.k - 1, (), self._full) is None
        elif (self.tight and table is None and not _inside(classes, self.witness)
              and not self._completes(classes, self._full & ~colored)):
            memo[key] = False
            return False
        moves.sort()
        key_of = self._key
        search = self._search
        for _, _, bit, replies in moves:
            table = self.colorings
            if table is None:
                sets = (None,) * len(replies)
            else:
                if ok is None:  # the table was built below this position
                    ok = table.extends(classes)
                sets = table.children(ok, classes, bit.bit_length() - 1, replies)
                if 0 in sets:  # a reply with no completion refutes the move
                    replies, sets = [replies[sets.index(0)]], (0,)
            for i, sub in zip(replies, sets):
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
                    win = search(child, child_key, sub)
                else:
                    self.memo_hits += 1
                if not win:
                    break
            else:
                memo[key] = True
                return True
        memo[key] = False
        return False

    def _completes(self, classes, free):
        """True iff the classes extend to a proper k-coloring of their
        vertices and free, by _extend, whose _TABULATE_AFTER-th failure
        tabulates every proper k-coloring of the graph unless there are
        more than _COLORINGS_LIMIT."""
        adj = self.g.adj
        done = _extend(adj, self.k, classes, free)
        if done is not None:
            self.witness = done
            return True
        self._tabulate -= 1
        if not self._tabulate:
            found = []
            if _extend(adj, self.k, (), self._full, None, found) is None:
                self.colorings = _Colorings(self.g.n, self.k, found)
        return False

    def reply(self, by_color, v):
        """The colorist's answer on uncolored vertex v, where by_color[c-1]
        is color c's class mask: (c, False) for the least legal color c
        whose child position the selector loses, (least legal color, True)
        when no legal color refutes the selector, None when v is blocked.
        Children are probed in ascending color order up to the first loss.
        """
        bit = 1 << v
        row = self.g.adj[v]
        classes = [m for m in by_color if m]
        least = None
        for c, m in enumerate(by_color, 1):
            if m & row:
                continue
            if least is None:
                least = c
            child = list(classes)
            if m:
                child[child.index(m)] = m | bit
            else:
                child.append(bit)
            if not self.value(tuple(sorted(child))):
                return c, False
        return None if least is None else (least, True)

    def move(self, by_color):
        """A round from the selector-to-move position by_color (as for
        reply): (v, c, True) for the least vertex v on which no color
        refutes the selector, c its least legal color; else (least
        uncolored vertex, its refuting color, False).  None, without a
        solver call, when every vertex is colored or one is blocked."""
        colored = 0
        for m in by_color:
            colored |= m
        free = self._full & ~colored
        if _first_blocked(self.g.adj, by_color, free) is not None:
            return None
        fallback = None
        for v in bits(free):
            c, win = self.reply(by_color, v)
            if win:
                return v, c, True
            fallback = fallback or (v, c, False)
        return fallback


@dataclass(frozen=True)
class SolveResult:
    k: int
    ann_wins: bool
    principal_line: tuple
    nodes: int
    memo_hits: int


def ann_wins(g, k, *, solve_limit=DEFAULT_SOLVE_LIMIT, node_budget=None,
             want_line=True):
    """Exact game value for palette size k, with a deterministic principal
    line (least-id / least-color tie-breaking)."""
    if k < 1:
        raise BadParam("palette size must be >= 1")
    if g.n > solve_limit:
        raise TooLarge(f"n={g.n} exceeds solve limit {solve_limit}")
    solver = GameSolver(g, k, node_budget=node_budget)
    win = solver.value(())
    line = _principal_line(solver) if want_line else ()
    return SolveResult(k, win, line, solver.nodes, solver.memo_hits)


def _principal_line(solver):
    by_color = [0] * solver.k
    line = []
    while (step := solver.move(by_color)) is not None:
        v, c, _ = step
        by_color[c - 1] |= 1 << v
        line.append((v, c))
    return tuple(line)


def ann_wins_reference(g, k, *, colors=None, solve_limit=8):
    """Canonicalization-free reference solver (memo on the raw coloring
    vector, colorist branches over every concrete color), from the proper
    partial coloring colors (0 = uncolored; default: none colored)."""
    if g.n > solve_limit:
        raise TooLarge(f"reference solver limited to n <= {solve_limit}")
    adj = g.adj
    n = g.n
    memo = {}

    def val(coloring):
        res = memo.get(coloring)
        if res is not None:
            return res
        uncol = [v for v in range(n) if not coloring[v]]
        if not uncol:
            memo[coloring] = True
            return True
        legal = {}
        for v in uncol:
            taken = {coloring[u] for u in bits(adj[v])}
            cs = [c for c in range(1, k + 1) if c not in taken]
            if not cs:
                memo[coloring] = False
                return False
            legal[v] = cs
        for v in uncol:
            ok = True
            for c in legal[v]:
                child = list(coloring)
                child[v] = c
                if not val(tuple(child)):
                    ok = False
                    break
            if ok:
                memo[coloring] = True
                return True
        memo[coloring] = False
        return False

    return val((0,) * n if colors is None else tuple(colors))


@dataclass(frozen=True)
class ChiIResult:
    chi_i: int
    winnable: dict = field(compare=False)


def chi_i(g, kmax=None, *, solve_limit=DEFAULT_SOLVE_LIMIT, node_budget=None):
    """Least winnable palette size plus the full per-k table for 1..kmax.

    Each k is searched with its own memo and root proofs, while the graph's
    tables are built once per graph, in a bounded cache: winnability is not
    assumed monotone, and the table is reported as computed.
    """
    if kmax is not None and kmax < 1:
        raise BadParam("kmax must be >= 1")
    if g.n == 0:
        return ChiIResult(0, {})
    if kmax is None:
        kmax = g.n
    if g.n > solve_limit:
        raise TooLarge(f"n={g.n} exceeds solve limit {solve_limit}")
    # one solver at a time: each is freed once its k is decided
    table = {k: GameSolver(g, k, node_budget).value(()) for k in range(1, kmax + 1)}
    for k in range(1, kmax + 1):
        if table[k]:
            return ChiIResult(k, table)
    raise NotWinnableWithinKmax(f"not winnable for any k <= {kmax}")


# ---------------------------------------------------------------------------
# adversary policies and the match harness
# ---------------------------------------------------------------------------

def ben_best_reply(state, solver=None):
    """A color minimizing the selector's continuation value for the pending
    vertex; least color among optimal replies."""
    if state.pending is None:
        raise BadParam("no pending vertex")
    v = state.pending
    if solver is None:
        solver = GameSolver(state.graph, state.k)
    answer = solver.reply(state.color_class_masks(), v)
    if answer is None:
        raise NoLegalColor(f"vertex {v} is blocked")
    return answer[0]


class OptimalBen:
    """Exact adversary; shares one solver across the whole match."""

    def __init__(self, g, k, node_budget=None):
        self.solver = GameSolver(g, k, node_budget=node_budget)

    def reply(self, state):
        return ben_best_reply(state, self.solver)


class ScriptedBen:
    """Colors read from a fixed list (for reproducing walk-throughs)."""

    def __init__(self, script):
        self.script = list(script)
        self.pos = 0

    def reply(self, state):
        if self.pos >= len(self.script):
            raise ScriptError("script exhausted")
        c = self.script[self.pos]
        self.pos += 1
        if c not in legal_colors(state, state.pending):
            raise ScriptError(f"scripted color {c} illegal on vertex {state.pending}")
        return c


@dataclass(frozen=True)
class MatchResult:
    outcome: str
    moves: tuple
    blocked: int
    k: int

    @property
    def ann_won(self):
        return self.outcome == "ANN_WINS"


def play_match(g, k, ann, ben="optimal", *, solve_limit=DEFAULT_SOLVE_LIMIT,
               node_budget=None):
    """Run one full game; returns the transcript and outcome.

    The optimal adversary plays one line: the least color whose child
    position the selector loses, or else the least legal color.  A won
    match therefore shows the strategy survives that line, not every
    adversary reply.  Any adversary's reply must be a legal color for the
    pending vertex, else BadParam.
    """
    if ben == "optimal":
        if g.n > solve_limit:
            raise TooLarge(f"n={g.n} exceeds solve limit {solve_limit}")
        ben = OptimalBen(g, k, node_budget=node_budget)
    elif isinstance(ben, (list, tuple)):
        ben = ScriptedBen(ben)
    state = GameState(g, k)
    moves = []
    while True:
        if state.all_colored():
            return MatchResult("ANN_WINS", tuple(moves), -1, k)
        bv = blocked_vertex(state)
        if bv is not None:
            return MatchResult("BEN_WINS", tuple(moves), bv, k)
        v = ann.next_vertex(state)
        if not isinstance(v, int) or not 0 <= v < g.n:
            raise StrategyIllegalMove(f"strategy selected absent vertex {v!r}")
        if state.colors[v]:
            raise StrategyIllegalMove(f"strategy selected colored vertex {v}")
        state.pending = v
        c = ben.reply(state)
        if not isinstance(c, int) or c not in legal_colors(state, v):
            raise BadParam(f"adversary reply {c!r} is not a legal color for vertex {v}")
        state.pending = None
        state.colors[v] = c
        moves.append((v, c))


# ---------------------------------------------------------------------------
# exact chromatic / clique / independence numbers
# ---------------------------------------------------------------------------

_CLIQUE_LIMIT = 40       # omega_exact and alpha_exact
_CHROMATIC_LIMIT = 20    # chi_exact


def max_clique(g):
    """Maximum clique as a sorted vertex list (branch and bound with a
    greedy coloring bound; deterministic)."""
    adj = g.adj
    best = []

    def expand(rlist, pmask):
        nonlocal best
        if not pmask:
            if len(rlist) > len(best):
                best = list(rlist)
            return
        order = [(c, v) for c, m in enumerate(_first_fit(adj, bits(pmask)), 1)
                 for v in bits(m)]
        for c, v in reversed(order):
            if len(rlist) + c <= len(best):
                return
            rlist.append(v)
            expand(rlist, pmask & adj[v])
            rlist.pop()
            pmask &= ~(1 << v)

    expand([], g.full_mask())
    return sorted(best)


def omega_exact(g):
    """Exact clique number."""
    if g.n > _CLIQUE_LIMIT:
        raise TooLarge(f"n={g.n} exceeds clique limit {_CLIQUE_LIMIT}")
    return len(max_clique(g))


def alpha_exact(g):
    """Exact independence number (clique number of the complement)."""
    if g.n > _CLIQUE_LIMIT:
        raise TooLarge(f"n={g.n} exceeds independence limit {_CLIQUE_LIMIT}")
    return len(max_clique(complement(g)))


def chi_exact(g):
    """Exact chromatic number: saturation-guided branch and bound seeded
    with a maximum clique (precolored, breaking color symmetry) and a
    greedy upper bound."""
    if g.n > _CHROMATIC_LIMIT:
        raise TooLarge(f"n={g.n} exceeds chromatic limit {_CHROMATIC_LIMIT}")
    adj = g.adj
    clique = max_clique(g)
    lower = len(clique)
    upper = _greedy_chi(g)
    seed = tuple(1 << v for v in clique)
    for k in range(lower, upper):
        if _extend(adj, k, seed, g.full_mask() & ~sum(seed)) is not None:
            return k
    return upper


def _greedy_chi(g):
    return len(_first_fit(g.adj, sorted(range(g.n), key=lambda v: (-g.degree(v), v))))


def _first_fit(adj, order):
    """Greedy coloring of the vertices in order, each joining the first
    class it fits: the list of class masks."""
    classes = []
    for v in order:
        for i, m in enumerate(classes):
            if not adj[v] & m:
                classes[i] = m | 1 << v
                break
        else:
            classes.append(1 << v)
    return classes
