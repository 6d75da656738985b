"""Induced-subgraph detection and class predicates (bipartite/chordal/split).

All searches are deterministic: candidates are scanned in ascending id order,
so the witness returned is the lexicographically least one.  Patterns are
small (<= 10 vertices); `find_induced` is a backtracking search with forward
checking over host-vertex bit masks, one candidate mask per pattern vertex.

Two lex-leader rules (Crawford, Ginsberg, Luks and Roy, KR 1996) prune
every partial map that cannot extend to the least embedding m*.  Composing
m* with a pattern automorphism, or a host automorphism after it, gives
another embedding, which is no smaller than m*:

- if an automorphism of the pattern fixes 0..u-1 and sends u to x, then
  m*(x) > m*(u);
- swapping two twins of the host (equal open or closed neighbourhoods) is
  an automorphism, so m* uses a twin only once every smaller twin of it is
  used by an earlier pattern vertex.

Both rules keep the id order of pattern vertices and of candidates, and
m* obeys both, so the search still returns m* first.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .errors import PatternTooLarge
from .graphs import Graph, bits, induced, make_named, mask_of, twin_classes

MAX_PATTERN = 10
_HOSTS_CACHED = 64  # hosts whose tables _host_tables keeps

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
    not, and an empty domain backtracks.  It also cuts the domain of each
    later x in u's orbit under the pattern automorphisms that fix 0..u-1 to
    the vertices above v, and v is skipped while a smaller twin of it is
    unused.  Both cuts drop only maps that some automorphism turns into a
    smaller embedding, so the first map found is still the least.
    """
    p, h, k = pattern, host, pattern.n
    if k > MAX_PATTERN:
        raise PatternTooLarge(f"pattern has {k} > {MAX_PATTERN} vertices")
    if k > h.n:
        return None
    fit, elder = _host_tables(h)
    image = _search(h.adj, [fit[row.bit_count()] for row in p.adj], _plan(p.adj), elder)
    return None if image is None else Embedding(p, h, image)


@lru_cache(maxsize=_HOSTS_CACHED)
def _host_tables(h):
    """fit[t]: the vertices of degree >= t; elder[v]: v's smaller twins."""
    fit = [0] * (h.n + 1)
    for v, row in enumerate(h.adj):
        fit[row.bit_count()] |= 1 << v
    for t in reversed(range(h.n)):
        fit[t] |= fit[t + 1]
    elder = [0] * h.n
    for t in twin_classes(h):
        while t & (t - 1):
            v = t.bit_length() - 1
            t ^= 1 << v
            elder[v] = t
    return tuple(fit), tuple(elder)


def _search(hadj, first, later, elder):
    """Image tuple of the least map that sends each pattern vertex u into
    first[u], passes the checks later[u] of `_plan`, and places a host
    vertex v only once all of elder[v] is placed; None if there is none."""
    k = len(first)
    # dom[u][x], x >= u: domain of pattern vertex x once 0..u-1 are placed.
    dom = [first] + [[0] * k for _ in range(k)]
    image = [0] * k

    def place(u, used):
        if u == k:
            return True
        cur, nxt = dom[u], dom[u + 1]
        free = ~used
        m = cur[u]
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if elder[v] & free:
                continue
            a = hadj[v]
            na = ~(a | low)
            for x, edge, orbit in later[u]:
                d = cur[x] & (a if edge else na)
                if orbit:
                    d &= -(low << 1)
                if not d:
                    break
                nxt[x] = d
            else:
                image[u] = v
                if place(u + 1, used | low):
                    return True
        return False

    return tuple(image) if place(0, 0) else None


@lru_cache(maxsize=256)
def _plan(adj):
    """later[u] of the pattern with rows adj: (x, ux is an edge, x is in u's
    orbit under the automorphisms fixing 0..u-1) for each x > u.  Each orbit
    test is a search for an automorphism fixing 0..u-1 with u -> x."""
    k = len(adj)
    plain = [[(x, adj[u] >> x & 1, 0) for x in range(u + 1, k)] for u in range(k)]
    degree = [row.bit_count() for row in adj]
    fixed = [1 << v for v in range(k)]
    anywhere = [mask_of(v for v in range(k) if degree[v] == d) for d in degree]
    zero = [0] * k

    def orbit(u, x):
        first = fixed[:u] + [1 << x] + anywhere[u + 1:]
        return _search(adj, first, plain, zero) is not None

    return tuple([(x, edge, int(degree[x] == degree[u] and orbit(u, x)))
                  for x, edge, _ in plain[u]] for u in range(k))


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
    emb = find_induced(host, _cycle_pattern(length))
    return None if emb is None else list(emb.map)


@lru_cache(maxsize=None)
def _cycle_pattern(length):
    return make_named("C", length)


def is_bipartite(g):
    """2-partition certificate (side0, side1) or None.  Each component's
    least vertex goes in side 0."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        for v in queue:  # the queue grows as it is read
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
