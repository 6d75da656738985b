"""The vertex-selection coloring game: state, exact solving, optimal adversary.

Two players color a graph with a fixed palette 1..k.  The selector (Ann)
picks the next vertex; the colorist (Ben) gives it any proper color.  Ann
wins iff every vertex ends up colored; Ben wins as soon as some uncolored
vertex has all k colors in its neighborhood (a blocked vertex).

The solver computes the exact minimax value.  Its memo key collapses the
k! color symmetry: a position is the unordered multiset of color classes
(each class a vertex bit-set) — the uncolored set is the complement of
their union.  An optional "twins" mode additionally quotients by swapping
vertices with identical (open or closed) neighborhoods, which collapses the
huge symmetric state spaces of expansion graphs; both modes are validated
against a canonicalization-free reference solver.

Every searched position is first tried for an elimination proof, the
argument behind chi_i <= col.  If the uncolored vertices peel one at a
time, each with fewer uncolored neighbors left than legal colors, the
selector wins by presenting them in reverse peel order: a colored neighbor
removes at most one color, so no vertex is ever blocked.
"""

from dataclasses import dataclass, field

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
from .graphs import bits, complement

DEFAULT_SOLVE_LIMIT = 14

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

    @property
    def turn(self):
        return "ben" if self.pending is not None else "ann"

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

    def clone(self):
        return GameState(self.graph, self.k, self.colors, self.pending)


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


# ---------------------------------------------------------------------------
# exact solver
# ---------------------------------------------------------------------------

def twin_classes(g):
    """Partition of V into classes closed under neighborhood-preserving
    swaps: u,v land together when adj(u)==adj(v) or adj[u]+u == adj[v]+v,
    transitively.  Swapping within a class is a graph automorphism."""
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


class GameSolver:
    """Memoized exact minimax for one (graph, k) pair.

    canon: "classes" keys states by the sorted class-mask tuple (color
    symmetry only); "twins" further replaces each mask by its per-twin-class
    count profile, packed into one int and cached per mask, so the key is
    the sorted tuple of those ints.  When every twin class is a singleton
    the profile carries no more than the mask, and twins mode runs exactly
    as classes mode.  Ben's replies collapse fresh colors into one branch in
    both modes, since unused colors are interchangeable.

    A position with one uncolored vertex is decided in place: the selector
    wins iff that vertex has a legal color.  Completed colorings are never
    built or stored, so after a fresh ``value(())`` the memo holds exactly
    one entry per counted node.  Children are probed in the memo before the
    search recurses into them.

    A position with no blocked vertex is stored as a win, without a child,
    when its uncolored vertices peel (the elimination proof of the module
    docstring); at the root that is every k >= col, in one node.  The peel
    runs only when some vertex peels at once, a test the move loop makes
    from a degree table and the colored-neighbor count it takes for move
    ordering.  Values are exact either way; only the node count drops.
    """

    def __init__(self, g, k, canon="classes", node_budget=None):
        if k < 1:
            raise BadParam("palette size must be >= 1")
        if canon not in ("classes", "twins"):
            raise BadParam(f"unknown canonicalization {canon!r}")
        self.g = g
        self.k = k
        self.canon = canon
        self.node_budget = node_budget
        self.memo = {}
        self.nodes = 0
        self.memo_hits = 0
        self._full = g.full_mask()
        self._deg = [row.bit_count() for row in g.adj]
        self._twins = None
        if canon == "twins":
            tw = twin_classes(g)
            if any(t.bit_count() > 1 for t in tw):
                self._twins = _TwinProfiles(tw)

    def _key(self, classes):
        if self._twins is None:
            return classes
        return tuple(sorted(map(self._twins.__getitem__, classes)))

    def value(self, classes=()):
        """True iff the selector wins with optimal play from this
        selector-to-move position (classes: sorted tuple of class masks)."""
        key = self._key(classes)
        hit = self.memo.get(key)
        if hit is not None:
            self.memo_hits += 1
            return hit
        return self._search(classes, key)

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
        if not free or _first_blocked(self.g.adj, by_color, free) is not None:
            return None
        fallback = None
        for v in bits(free):
            c, win = self.reply(by_color, v)
            if win:
                return v, c, True
            fallback = fallback or (v, c, False)
        return fallback

    def state_value(self, state):
        """Value of a live selector-to-move position."""
        classes = tuple(sorted(m for m in state.color_class_masks() if m))
        return self.value(classes)


@dataclass(frozen=True)
class SolveResult:
    k: int
    ann_wins: bool
    principal_line: tuple
    nodes: int
    memo_hits: int


def ann_wins(g, k, *, canon="classes", solve_limit=DEFAULT_SOLVE_LIMIT,
             node_budget=None, want_line=True):
    """Exact game value for palette size k, with a deterministic principal
    line (least-id / least-color tie-breaking)."""
    if k < 1:
        raise BadParam("palette size must be >= 1")
    if g.n > solve_limit:
        raise TooLarge(f"n={g.n} exceeds solve limit {solve_limit}")
    solver = GameSolver(g, k, canon=canon, node_budget=node_budget)
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


def ann_wins_reference(g, k, *, solve_limit=8):
    """Canonicalization-free reference solver (memo on the raw coloring
    vector, colorist branches over every concrete color)."""
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

    return val((0,) * n)


@dataclass(frozen=True)
class ChiIResult:
    chi_i: int
    winnable: dict = field(compare=False)


def chi_i(g, kmax=None, *, canon="classes", solve_limit=DEFAULT_SOLVE_LIMIT,
          node_budget=None):
    """Least winnable palette size plus the full per-k table for 1..kmax.

    Every k is solved independently: winnability is not assumed monotone,
    and the table is reported as computed.
    """
    if g.n == 0:
        return ChiIResult(0, {})
    if kmax is None:
        kmax = g.n
    if kmax < 1:
        raise BadParam("kmax must be >= 1")
    table = {}
    for k in range(1, kmax + 1):
        table[k] = ann_wins(g, k, canon=canon, solve_limit=solve_limit,
                            node_budget=node_budget, want_line=False).ann_wins
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
        solver = GameSolver(state.graph, state.k, canon="twins")
    answer = solver.reply(state.color_class_masks(), v)
    if answer is None:
        raise NoLegalColor(f"vertex {v} is blocked")
    return answer[0]


class OptimalBen:
    """Exact adversary; shares one solver across the whole match."""

    def __init__(self, g, k, canon="twins", node_budget=None):
        self.solver = GameSolver(g, k, canon=canon, node_budget=node_budget)

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


def play_match(g, k, ann, ben="optimal", *, canon="twins",
               solve_limit=DEFAULT_SOLVE_LIMIT, node_budget=None):
    """Run one full game; returns the transcript and outcome.

    The optimal adversary plays one line: the least color whose child
    position the selector loses, or else the least legal color.  A won
    match therefore shows the strategy survives that line, not every
    adversary reply.
    """
    if ben == "optimal":
        if g.n > solve_limit:
            raise TooLarge(f"n={g.n} exceeds solve limit {solve_limit}")
        ben = OptimalBen(g, k, canon=canon, node_budget=node_budget)
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
        state.pending = None
        state.colors[v] = c
        moves.append((v, c))
        notify = getattr(ann, "notify", None)
        if notify is not None:
            notify(state)


# ---------------------------------------------------------------------------
# exact chromatic / clique / independence numbers
# ---------------------------------------------------------------------------

def max_clique(g):
    """Maximum clique as a sorted vertex list (branch and bound with a
    greedy coloring bound; deterministic)."""
    n = g.n
    if n == 0:
        return []
    adj = g.adj
    best = []

    def greedy_color_order(pmask):
        """Vertices of pmask with greedy color numbers, ascending."""
        order = []
        color_of = {}
        classes = []
        for v in bits(pmask):
            placed = False
            for ci, cmask in enumerate(classes):
                if not (adj[v] & cmask):
                    classes[ci] |= 1 << v
                    color_of[v] = ci + 1
                    placed = True
                    break
            if not placed:
                classes.append(1 << v)
                color_of[v] = len(classes)
        order = sorted(bits(pmask), key=lambda v: (color_of[v], v))
        return order, color_of

    def expand(rlist, pmask):
        nonlocal best
        if not pmask:
            if len(rlist) > len(best):
                best = list(rlist)
            return
        order, color_of = greedy_color_order(pmask)
        for v in reversed(order):
            if len(rlist) + color_of[v] <= len(best):
                return
            rlist.append(v)
            expand(rlist, pmask & adj[v])
            rlist.pop()
            pmask &= ~(1 << v)

    expand([], g.full_mask())
    return sorted(best)


def omega_exact(g, limit=40):
    """Exact clique number."""
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds clique limit {limit}")
    return len(max_clique(g))


def alpha_exact(g, limit=40):
    """Exact independence number (clique number of the complement)."""
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds independence limit {limit}")
    return len(max_clique(complement(g)))


def chi_exact(g, limit=20):
    """Exact chromatic number: saturation-guided branch and bound seeded
    with a maximum clique (precolored, breaking color symmetry) and a
    greedy upper bound."""
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds chromatic limit {limit}")
    n = g.n
    if n == 0:
        return 0
    adj = g.adj
    clique = max_clique(g)
    lower = len(clique)
    upper = _greedy_chi(g)
    if lower == upper:
        return lower
    for k in range(lower, upper):
        if _colorable(g, k, clique):
            return k
    return upper


def _greedy_chi(g):
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colors = {}
    used = 0
    for v in order:
        taken = {colors[u] for u in bits(g.adj[v]) if u in colors}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
        used = max(used, c)
    return used


def _colorable(g, k, clique):
    """Backtracking k-colorability with most-saturated-first selection and
    new-color symmetry breaking."""
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
