"""Immutable simple graphs with bit-row adjacency, constructions and formats.

Vertices are dense 0-based ids.  Adjacency is stored as one Python int per
vertex (bit j of row i set iff ij is an edge), which keeps every algorithm in
the package deterministic: all iteration is in ascending id order.
"""

from dataclasses import dataclass
from itertools import accumulate

from .errors import BadParam, BadVertexSet, MalformedGraph6, UnknownName

__all__ = [
    "Graph",
    "DegeneracyResult",
    "make_named",
    "expand",
    "complete_expansion",
    "independent_expansion",
    "join",
    "union",
    "complement",
    "induced",
    "degeneracy",
    "parse_graph6",
    "write_graph6",
    "to_dot",
    "components",
    "is_connected",
    "twin_classes",
]


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise BadParam("vertex count must be >= 0")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise BadParam(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise BadParam(f"self-loop at {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(rows))

    @classmethod
    def from_rows(cls, rows):
        """Build directly from adjacency bit rows (validated)."""
        n = len(rows)
        g = cls.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(rows))
        for v in range(n):
            if rows[v] >> n:
                raise BadParam("adjacency row exceeds vertex range")
            if rows[v] & (1 << v):
                raise BadParam(f"self-loop at {v}")
        for u in range(n):
            for v in range(u + 1, n):
                if bool(rows[u] & (1 << v)) != bool(rows[v] & (1 << u)):
                    raise BadParam("adjacency not symmetric")
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # the default slot restore would go through __setattr__
        return Graph.from_rows, (self.adj,)

    def has_edge(self, u, v):
        return bool(self.adj[u] & (1 << v))

    def degree(self, v):
        return self.adj[v].bit_count()

    def neighbors(self, v):
        """Neighbors of v in ascending id order."""
        return bits(self.adj[v])

    def edges(self):
        """All edges (u, v) with u < v, lexicographically."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    out.append((u, v))
                row >>= 1
                v += 1
        return out

    @property
    def num_edges(self):
        return sum(self.degree(v) for v in range(self.n)) // 2

    def degree_sequence(self):
        return tuple(sorted(self.degree(v) for v in range(self.n)))

    def full_mask(self):
        return (1 << self.n) - 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


def bits(mask):
    """Indices of set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# ---------------------------------------------------------------------------
# named graphs
# ---------------------------------------------------------------------------

def _path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


# Five-vertex obstructions, fixed by explicit edge lists; the degree-sequence
# assertions in tests guard against transcription slips.
_FIXED = {
    # diamond 0123 (missing edge 23) with a pendant at the degree-2 vertex 2
    "kite": lambda: Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)]),
    # diamond 0123 (missing edge 23) with a pendant at the degree-3 vertex 0
    "dart": lambda: Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (0, 4)]),
    # triangle 012 with pendants at 0 and 1
    "bull": lambda: Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]),
    "p5_bar": lambda: complement(_path(5)),
    "p2up3": lambda: Graph(5, [(0, 1), (2, 3), (3, 4)]),
    "p2up3_bar": lambda: complement(Graph(5, [(0, 1), (2, 3), (3, 4)])),
    "claw": lambda: Graph(4, [(0, 1), (0, 2), (0, 3)]),
    "petersen": _petersen,
    "diamond": lambda: Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "paw": lambda: Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
}

_ALIASES = {
    "k1,3": "claw",
    "k13": "claw",
    "house": "p5_bar",
    "p5bar": "p5_bar",
    "p2up3bar": "p2up3_bar",
}


def make_named(name, param=None):
    """Construct a named graph: families P/C/K/W by size, or one of the
    fixed small graphs (Kite, Bull, Dart, claw, P5_bar, P2uP3, P2uP3_bar,
    Petersen, diamond, paw).

    Families: P n>=1, C n>=3, K n>=1, W n>=3 (wheel = hub joined to C_n).
    """
    key = str(name).strip().lower()
    key = _ALIASES.get(key, key)
    if key in ("p", "c", "k", "w"):
        if param is None:
            raise BadParam(f"family '{name}' needs a size parameter")
        n = int(param)
        if key == "p":
            if n < 1:
                raise BadParam("P_n needs n >= 1")
            return _path(n)
        if key == "c":
            if n < 3:
                raise BadParam("C_n needs n >= 3")
            return _cycle(n)
        if key == "k":
            if n < 1:
                raise BadParam("K_n needs n >= 1")
            return _complete(n)
        if n < 3:
            raise BadParam("W_n needs n >= 3")
        return join(_complete(1), _cycle(n))
    if param is not None:
        raise UnknownName(f"graph '{name}' takes no parameter")
    if key in _FIXED:
        return _FIXED[key]()
    raise UnknownName(f"unknown graph name: {name!r}")


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------

def expand(base, sizes, kinds):
    """Materialize an expansion: base vertex i becomes a part of sizes[i]
    vertices, laid out consecutively in base-vertex order, internally
    "complete" or "independent" as kinds[i] says, and parts are fully
    joined across base edges, nothing else."""
    if len(sizes) != base.n or len(kinds) != base.n:
        raise BadParam("parts length must equal base.n")
    if any(s < 1 for s in sizes):
        raise BadParam("all part sizes must be >= 1")
    if not set(kinds) <= {"complete", "independent"}:
        raise BadParam("part kinds must be 'complete' or 'independent'")
    ends = list(accumulate(sizes))
    parts = [range(end - s, end) for s, end in zip(sizes, ends)]
    edges = []
    for p, kind in zip(parts, kinds):
        if kind == "complete":
            edges.extend((u, v) for u in p for v in p if u < v)
    for i, j in base.edges():
        edges.extend((u, v) for u in parts[i] for v in parts[j])
    return Graph(sum(sizes), edges)


def complete_expansion(base, sizes):
    return expand(base, sizes, ("complete",) * base.n)


def independent_expansion(base, sizes):
    return expand(base, sizes, ("independent",) * base.n)


# ---------------------------------------------------------------------------
# graph operations
# ---------------------------------------------------------------------------

def join(g1, g2):
    """Disjoint copies of g1 and g2 plus all cross edges."""
    n1 = g1.n
    edges = g1.edges()
    edges += [(u + n1, v + n1) for u, v in g2.edges()]
    edges += [(u, v + n1) for u in range(n1) for v in range(g2.n)]
    return Graph(n1 + g2.n, edges)


def union(g1, g2):
    """Disjoint union; g2's ids are shifted up by g1.n."""
    n1 = g1.n
    edges = g1.edges() + [(u + n1, v + n1) for u, v in g2.edges()]
    return Graph(n1 + g2.n, edges)


def complement(g):
    full = g.full_mask()
    rows = [(full & ~g.adj[v]) & ~(1 << v) for v in range(g.n)]
    return Graph.from_rows(rows)


def induced(g, vertices):
    """Subgraph induced by `vertices`; new ids follow ascending old ids."""
    vs = sorted(set(vertices))
    if any(not 0 <= v < g.n for v in vs):
        raise BadVertexSet(f"vertices {vertices} not all in range 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u in vs for v in vs if u < v and g.has_edge(u, v)]
    return Graph(len(vs), edges)


def components(g):
    """Connected components as sorted vertex lists, ordered by least id."""
    seen = 0
    out = []
    for s in range(g.n):
        if seen & (1 << s):
            continue
        comp = 1 << s
        frontier = 1 << s
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        out.append(bits(comp))
    return out


def is_connected(g):
    return g.n <= 1 or len(components(g)) == 1


def twin_classes(g):
    """Partition of V into twin classes, ordered by least vertex: u,v land
    together when adj[u] == adj[v] (open twins) or adj[u]+u == adj[v]+v
    (closed twins).  Swapping within a class is a graph automorphism.

    No vertex has both an open and a closed twin: if u,v are open twins
    and v,w closed twins, then w is in N(v) = N(u), so u is in N[w] = N[v],
    yet open twins are never adjacent.  So each class is one open group or
    one closed group, and no two groups need merging."""
    opened = {}
    closed = {}
    for v, row in enumerate(g.adj):
        opened[row] = opened.get(row, 0) | 1 << v
        closed[row | 1 << v] = closed.get(row | 1 << v, 0) | 1 << v
    out = []
    for v, row in enumerate(g.adj):
        t = opened[row]
        if not t & (t - 1):
            t = closed[row | 1 << v]
        if t & -t == 1 << v:
            out.append(t)
    return tuple(out)


# ---------------------------------------------------------------------------
# degeneracy / coloring number
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegeneracyResult:
    """Removal order from repeated minimum-degree deletion, and
    col = 1 + the largest degree seen at removal time (0 for the empty
    graph by convention)."""

    order: tuple
    col: int


def degeneracy(g):
    """Greedy minimum-degree elimination (ties broken by least id)."""
    if g.n == 0:
        return DegeneracyResult((), 0)
    alive = g.full_mask()
    deg = [g.degree(v) for v in range(g.n)]
    order = []
    worst = 0
    for _ in range(g.n):
        best = min((deg[v], v) for v in bits(alive))
        d, v = best
        worst = max(worst, d)
        order.append(v)
        alive &= ~(1 << v)
        for u in bits(g.adj[v] & alive):
            deg[u] -= 1
    return DegeneracyResult(tuple(order), worst + 1)


# ---------------------------------------------------------------------------
# graph6 interchange (single-byte regime, n <= 62)
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def parse_graph6(line):
    """Decode one graph6 line (upper triangle, column-major)."""
    text = line.strip().removeprefix(_G6_HEADER)
    try:
        if not text:
            raise MalformedGraph6("empty graph6 line", 0)
        try:
            raw = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise MalformedGraph6(f"non-ASCII character {text[exc.start]!r}",
                                  exc.start) from None
        first = raw[0]
        if first == 126:
            raise MalformedGraph6("multi-byte vertex counts (n > 62) unsupported", 0)
        if not 63 <= first <= 125:
            raise MalformedGraph6(f"bad size byte {first}", 0)
        n = first - 63
        nbits = n * (n - 1) // 2
        nbytes = (nbits + 5) // 6
        if len(raw) - 1 != nbytes:
            raise MalformedGraph6(
                f"expected {nbytes} data bytes for n={n}, got {len(raw) - 1}", len(raw))
        bits_acc = []
        for off, byte in enumerate(raw[1:], start=1):
            if not 63 <= byte <= 126:
                raise MalformedGraph6(f"bad data byte {byte}", off)
            val = byte - 63
            bits_acc.extend((val >> s) & 1 for s in range(5, -1, -1))
        if any(bits_acc[nbits:]):
            raise MalformedGraph6("nonzero padding bits", len(raw) - 1)
        edges = []
        idx = 0
        for j in range(1, n):
            for i in range(j):
                if bits_acc[idx]:
                    edges.append((i, j))
                idx += 1
        return Graph(n, edges)
    except MalformedGraph6 as exc:  # count the offset in UTF-8 bytes from the start of line
        lead = line.rstrip()[:len(line.rstrip()) - len(text)]
        raise MalformedGraph6(exc.message, exc.offset + len(lead.encode())) from None


def write_graph6(g):
    """Encode to canonical graph6 (no header)."""
    if g.n > 62:
        raise BadParam("graph6 writer supports n <= 62")
    out = [chr(g.n + 63)]
    acc = 0
    nacc = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.has_edge(i, j) else 0)
            nacc += 1
            if nacc == 6:
                out.append(chr(acc + 63))
                acc = nacc = 0
    if nacc:
        acc <<= 6 - nacc
        out.append(chr(acc + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def to_dot(g, coloring=None):
    """DOT text for a graph named G; vertex labels are ids, optional color
    attribute from a vertex -> color-number map."""
    lines = ["graph G {"]
    for v in range(g.n):
        suffix = f' [color="{coloring[v]}"]' if coloring and coloring.get(v) else ""
        lines.append(f"  {v}{suffix};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
