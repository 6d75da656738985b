"""Induced-subgraph detection and class predicates (bipartite/chordal/split).

All searches are deterministic: candidates are scanned in ascending id order,
so the witness returned is the lexicographically least one.  Patterns are
small (<= 10 vertices); `find_induced` is a backtracking search with forward
checking over host-vertex bit masks, one candidate mask per pattern vertex.
"""

from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import PatternTooLarge
from .graphs import Graph, bits, induced, make_named, mask_of

MAX_PATTERN = 10

__all__ = [
    "Embedding",
    "find_induced",
    "is_family_free",
    "find_induced_cycle",
    "is_bipartite",
    "is_chordal",
    "is_split",
]


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern -> host preserving adjacency and
    non-adjacency (an induced embedding)."""

    pattern: Graph
    host: Graph
    map: tuple

    def verify(self):
        p, h, m = self.pattern, self.host, self.map
        if len(set(m)) != p.n:
            return False
        for a in range(p.n):
            for b in range(a + 1, p.n):
                if p.has_edge(a, b) != h.has_edge(m[a], m[b]):
                    return False
        return True


def find_induced(host, pattern):
    """Lexicographically least induced embedding of pattern in host, or None.

    Pattern vertices are placed in id order, each at the least host vertex
    in its domain, a candidate mask that starts as the vertices of large
    enough degree.  Placing u at v narrows each later domain to v's
    neighbours or to its non-neighbours other than v, as ux is an edge or
    not, and an empty domain backtracks.  Pruning drops only partial maps
    with no extension, so the first map found is the least.
    """
    p, h, k = pattern, host, pattern.n
    if k > MAX_PATTERN:
        raise PatternTooLarge(f"pattern has {k} > {MAX_PATTERN} vertices")
    if k > h.n:
        return None
    hadj = h.adj
    fit = [0] * (h.n + 1)  # fit[t]: the host vertices of degree >= t
    for v, row in enumerate(hadj):
        fit[row.bit_count()] |= 1 << v
    for t in reversed(range(h.n)):
        fit[t] |= fit[t + 1]
    # dom[u][x], x >= u: domain of pattern vertex x once 0..u-1 are placed.
    dom = [[fit[row.bit_count()] for row in p.adj]] + [[0] * k for _ in range(k)]
    later = [[(x, p.adj[u] >> x & 1) for x in range(u + 1, k)] for u in range(k)]
    image = [0] * k

    def place(u):
        if u == k:
            return True
        cur, nxt = dom[u], dom[u + 1]
        m = cur[u]
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            a = hadj[v]
            na = ~(a | low)
            for x, edge in later[u]:
                d = cur[x] & (a if edge else na)
                if not d:
                    break
                nxt[x] = d
            else:
                image[u] = v
                if place(u + 1):
                    return True
        return False

    if place(0):
        return Embedding(p, h, tuple(image))
    return None


def is_family_free(host, family):
    """(True, None) if no family member embeds induced, else
    (False, first witness) scanning the family in order."""
    for pattern in family:
        emb = find_induced(host, pattern)
        if emb is not None:
            return False, emb
    return True, None


def find_induced_cycle(host, length):
    """Ordered vertex list of a chordless cycle of the given length, or None.

    Canonical choice: the cycle starts at the least possible vertex and the
    search extends by ascending ids, so the returned tuple is the
    lexicographically least among all orientations it examines.
    """
    if length < 3 or length > host.n:
        return None
    emb = find_induced(host, make_named("C", length))
    return None if emb is None else list(emb.map)


def is_bipartite(g):
    """2-partition certificate (side0, side1) or None.  Each component's
    least vertex goes in side 0."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            v = queue.pop(0)
            for u in bits(g.adj[v]):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    side0 = [v for v in range(g.n) if color[v] == 0]
    side1 = [v for v in range(g.n) if color[v] == 1]
    return side0, side1


def is_chordal(g):
    """Perfect elimination order or None.

    Runs maximum cardinality search (ties by least id) to get a candidate
    order, then verifies the elimination property directly: every vertex's
    later neighbors must form a clique.  The verification pass makes the
    certificate self-checking.
    """
    n = g.n
    if n == 0:
        return ()
    weight = [0] * n
    picked = [False] * n
    mcs = []
    for _ in range(n):
        v = max(((weight[u], -u) for u in range(n) if not picked[u]))[1]
        v = -v
        picked[v] = True
        mcs.append(v)
        for u in bits(g.adj[v]):
            if not picked[u]:
                weight[u] += 1
    peo = tuple(reversed(mcs))
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [u for u in bits(g.adj[v]) if pos[u] > pos[v]]
        for a in range(len(later)):
            for b in range(a + 1, len(later)):
                if not g.has_edge(later[a], later[b]):
                    return None
    return peo


def is_split(g):
    """Split certificate (clique part, independent part) or None.

    Hammer and Simeone: with degrees d_1 >= ... >= d_n and m the largest i
    with d_i >= i - 1, g is split iff sum_{i<=m} d_i = m(m-1) +
    sum_{i>m} d_i.  For the m highest-degree vertices K and the rest R,
    sum_{i<=m} d_i = 2e(K) + e(K,R) <= m(m-1) + sum_{i>m} d_i, with equality
    iff K is a clique and R is independent, so under the identity K and R
    are a split partition whatever the tie order.  The clique side is then
    grown by the least-id independent vertex adjacent to all of it, so no
    independent vertex sees the whole clique side in the returned
    certificate.
    """
    n = g.n
    if n == 0:
        return [], []
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    m = 0
    for i in range(n):
        if degs[i] >= i:
            m = i + 1
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    clique = sorted(order[:m])
    cmask = mask_of(clique)
    for v in range(n):
        if not (cmask >> v) & 1 and g.adj[v] & cmask == cmask:
            clique = sorted(clique + [v])
            cmask |= 1 << v
            break
    independent = [v for v in range(n) if not (cmask >> v) & 1]
    return clique, independent


def brute_force_induced(host, pattern):
    """Independent oracle: try every |pattern|-subset and every ordering.

    Deliberately naive (used to cross-check find_induced); the only
    optimization is a sorted-degree prefilter per subset.
    """
    p = pattern
    if p.n > host.n:
        return False
    pseq = p.degree_sequence()
    for subset in combinations(range(host.n), p.n):
        sub = induced(host, subset)
        if sub.degree_sequence() != pseq:
            continue
        for perm in permutations(range(p.n)):
            if all(
                p.has_edge(a, b) == sub.has_edge(perm[a], perm[b])
                for a in range(p.n)
                for b in range(a + 1, p.n)
            ):
                return True
    return False
