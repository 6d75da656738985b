"""Structural decompositions and chromatic formulas for the supported
forbidden-subgraph classes.

Every decomposer validates the full claim list of its target structure as a
postcondition and fails loudly on violation instead of trusting the class
check; the class check and the decomposition cross-verify each other.
"""

from dataclasses import dataclass

from .detect import find_induced_cycle, is_bipartite, is_chordal, is_family_free, is_split
from .errors import (
    BadParam,
    Disconnected,
    NoInducedC5,
    NoInducedC6,
    NotInClass,
    StructureViolation,
)
from .graphs import Graph, bits, induced, is_connected, make_named, mask_of

__all__ = [
    "ExpansionStructure",
    "C5Decomposition",
    "C6Decomposition",
    "P5C4Decomposition",
    "Pod",
    "ComponentTag",
    "recognize_expansion",
    "decompose_p5k4kitebull",
    "decompose_p6c5claw",
    "decompose_p5c4",
    "sumner_classify",
    "chi_formula_kc5",
    "chi_p5k4kitebull",
    "family_p5k4kitebull",
    "family_p6c5claw",
    "family_p5c4",
    "family_sumner",
    "family_figure1",
]


def family_p5k4kitebull():
    return [make_named("P", 5), make_named("K", 4), make_named("Kite"), make_named("Bull")]


def family_p6c5claw():
    return [make_named("P", 6), make_named("C", 5), make_named("claw")]


def family_p6c5_house_claw():
    return family_p6c5claw() + [make_named("p5_bar")]


def family_p5c4():
    return [make_named("P", 5), make_named("C", 4)]


def family_sumner():
    return [make_named("P", 5), make_named("K", 3)]


def family_split_c5():
    return [make_named("P", 5), make_named("p2up3_bar"), make_named("p5_bar"),
            make_named("Dart")]


def family_figure1():
    """The five-vertex obstruction set used by the detector oracle."""
    return [make_named("Kite"), make_named("Dart"), make_named("Bull"),
            make_named("p5_bar"), make_named("p2up3_bar")]


# ---------------------------------------------------------------------------
# edge-set helpers
# ---------------------------------------------------------------------------

def _complete_between(g, xs, ys):
    ymask = mask_of(ys)
    return all((g.adj[x] & ymask) == (ymask & ~(1 << x)) for x in xs)


def _empty_between(g, xs, ys):
    ymask = mask_of(ys)
    return all(g.adj[x] & (ymask & ~(1 << x)) == 0 for x in xs)


def _is_clique(g, xs):
    m = mask_of(xs)
    return all((g.adj[x] & m).bit_count() == len(xs) - 1 for x in xs)


def _is_independent(g, xs):
    m = mask_of(xs)
    return all(g.adj[x] & m == 0 for x in xs)


_KIND_TESTS = {
    "complete": _is_clique,
    "independent": _is_independent,
    "split": lambda g, xs: is_split(induced(g, xs)) is not None,
}


# ---------------------------------------------------------------------------
# expansion recognition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionStructure:
    """A partition of V into modules realizing a cycle's adjacency: modules
    fully joined across cycle edges, fully non-adjacent otherwise."""

    graph: Graph
    base: Graph
    modules: tuple   # sorted vertex tuples, in cycle order
    kinds: tuple     # "complete" | "independent" | "split"

    @property
    def sizes(self):
        return tuple(len(m) for m in self.modules)

    def split_parts(self):
        """(clique part, independent part) per module, via the split
        certificate on each module's induced subgraph."""
        out = []
        for mod in self.modules:
            sub = induced(self.graph, mod)
            cert = is_split(sub)
            if cert is None:
                out.append(None)
                continue
            cl, ind = cert
            out.append((tuple(mod[i] for i in cl), tuple(mod[i] for i in ind)))
        return tuple(out)

    def validate(self):
        g = self.graph
        n = self.base.n
        all_vs = sorted(v for m in self.modules for v in m)
        if all_vs != list(range(g.n)):
            raise StructureViolation("modules do not partition V")
        for i in range(n):
            for j in range(i + 1, n):
                if (j - i) % n in (1, n - 1):
                    if not _complete_between(g, self.modules[i], self.modules[j]):
                        raise StructureViolation(f"[M{i},M{j}] not complete")
                elif not _empty_between(g, self.modules[i], self.modules[j]):
                    raise StructureViolation(f"[M{i},M{j}] not empty")
        for i, kind in enumerate(self.kinds):
            if not _KIND_TESTS[kind](g, self.modules[i]):
                raise StructureViolation(f"module {i} is not {kind}")
        return self


def _cycle_order(base):
    """Vertices of a cycle graph in traversal order, or None."""
    n = base.n
    if n < 3 or any(base.degree(v) != 2 for v in range(n)):
        return None
    order = [0]
    prev = None
    cur = 0
    for _ in range(n - 1):
        nbrs = [u for u in bits(base.adj[cur]) if u != prev]
        nxt = min(nbrs)
        order.append(nxt)
        prev, cur = cur, nxt
    if len(set(order)) != n or not base.has_edge(order[-1], order[0]):
        return None
    return order


def _induced_cycles(g, n):
    """All induced n-cycles (n >= 3), canonically (min vertex first, lesser
    neighbor second), in lexicographic order."""
    adj = g.adj
    out = []

    def grow(path, seen, first):
        # seen: vertices <= path[0] and the closed neighborhoods of
        # path[1..-2]; first: the neighbors of path[0], which only the
        # closing vertex may touch
        last = path[-1]
        row = adj[last]
        if len(path) == n - 1:
            for x in bits(row & first & ~seen):
                if path[1] < x:
                    # canonical direction: second vertex below last
                    out.append((*path, x))
            return
        for x in bits(row & ~first & ~seen):
            path.append(x)
            grow(path, seen | row | (1 << last), first)
            path.pop()

    for v0 in range(g.n):
        low = (2 << v0) - 1
        for x in bits(adj[v0] & ~low):
            grow([v0, x], low, adj[v0])
    return sorted(out)


def _kind_label(g, module, allowed):
    for kind in allowed:
        if _KIND_TESTS[kind](g, module):
            return kind
    return None


def recognize_expansion(g, base, allowed=("complete", "independent")):
    """Recognize g as an expansion of the cycle `base` whose modules all fall
    under the allowed kinds; None if no such partition exists.

    The least induced base-length cycle is the seed: each seed vertex anchors
    its own position, and every other vertex goes to the least position p
    whose two cycle neighbours are exactly the seed vertices it sees apart
    from seed[p].  One seed suffices: C_n is prime for n >= 5, so a module
    meets an induced C_n in at most one vertex unless it holds the whole
    cycle, and complete, independent and split modules are chordal.  C3 and
    C4 are not prime and take only ("complete",) or ("independent",).  Each
    module is labelled with the first allowed kind it satisfies; the module
    order is canonicalized by least contained id and the structure validated
    before it is returned.
    """
    if _cycle_order(base) is None or base.n > 8:
        raise BadParam("base must be a cycle on 3..8 vertices")
    n = base.n
    if n <= 4 and tuple(allowed) not in (("complete",), ("independent",)):
        raise BadParam("C3 and C4 expansions take only complete or independent modules")
    seed = find_induced_cycle(g, n)
    if seed is None:
        return None
    bit = [1 << v for v in seed]
    seed_mask = sum(bit)
    want = [bit[p - 1] | bit[(p + 1) % n] for p in range(n)]
    modules = [[] for _ in range(n)]
    for v in range(g.n):
        if seed_mask >> v & 1:
            modules[seed.index(v)].append(v)
            continue
        row = g.adj[v] & seed_mask
        pos = next((p for p in range(n) if row & ~bit[p] == want[p]), None)
        if pos is None:
            return None
        modules[pos].append(v)
    kinds = [_kind_label(g, m, allowed) for m in modules]
    if None in kinds:
        return None
    modules, kinds = _canonical_rotation(modules, kinds)
    try:
        return ExpansionStructure(g, base, tuple(map(tuple, modules)), tuple(kinds)).validate()
    except StructureViolation:
        return None


def dihedral_orders(n):
    """The 2n rotations and reflections of cycle positions 0..n-1, as
    position lists: the rotations first, then the reflected rotations."""
    for refl in (False, True):
        base = list(range(n)) if not refl else [0] + list(range(n - 1, 0, -1))
        for r in range(n):
            yield [base[(i + r) % n] for i in range(n)]


def _canonical_rotation(modules, kinds):
    """Modules and kinds in the cycle order that starts at the module holding
    the least id and steps towards its lesser-id neighbour module."""
    n = len(modules)
    first = min(range(n), key=lambda i: modules[i][0])
    step = 1 if modules[(first + 1) % n][0] < modules[first - 1][0] else -1
    perm = [(first + step * i) % n for i in range(n)]
    return [modules[p] for p in perm], [kinds[p] for p in perm]


# ---------------------------------------------------------------------------
# layered decomposition around an induced C5
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C5Decomposition:
    """Partition of a connected {P5,K4,Kite,Bull}-free graph around an
    induced 5-cycle: five sets A_0..A_4 extending the cycle into an
    independent expansion, a hub set B seeing the whole cycle, the
    second-layer split S / rest, and the third layer with its apex."""

    graph: Graph
    cycle: tuple
    A: tuple        # five sorted vertex tuples (A_i contains cycle[i])
    B: tuple
    S: tuple
    n2_rest: tuple
    V3: tuple
    xstar: object   # vertex or None

    @property
    def V1(self):
        return tuple(sorted(v for part in self.A for v in part) + list(self.n2_rest))

    @property
    def V2(self):
        return tuple(sorted(self.B + self.S))

    @property
    def is_unit(self):
        """True when the graph is exactly an independent expansion of C5."""
        return not self.B

    def validate(self):
        g = self.graph
        v1, v2, v3 = self.V1, self.V2, self.V3
        pieces = list(v1) + list(v2) + list(v3)
        if sorted(pieces) != list(range(g.n)):
            raise StructureViolation("blocks do not partition V")
        if not _is_independent(g, self.B):
            raise StructureViolation("B is not independent")
        if not _is_independent(g, self.S):
            raise StructureViolation("S is not independent")
        if not _complete_between(g, self.B, self.S):
            raise StructureViolation("[B,S] not complete")
        if not _complete_between(g, v1, self.B):
            raise StructureViolation("[V1,B] not complete")
        if not _empty_between(g, v1, self.S):
            raise StructureViolation("[V1,S] not empty")
        if not _empty_between(g, v1, v3):
            raise StructureViolation("[V1,V3] not empty")
        if not _empty_between(g, v3, self.B):
            raise StructureViolation("[V3,B] not empty")
        if v3:
            if self.xstar is None or self.xstar not in self.S:
                raise StructureViolation("missing apex vertex for V3")
            if not _complete_between(g, [self.xstar], v3):
                raise StructureViolation("[apex,V3] not complete")
        a_all = sorted(v for part in self.A for v in part)
        if not _empty_between(g, a_all, self.n2_rest):
            raise StructureViolation("cycle classes touch the second layer")
        if recognize_expansion(induced(g, a_all), make_named("C", 5),
                               allowed=("independent",)) is None:
            raise StructureViolation(
                "cycle classes are not an independent C5 expansion")
        core = induced(g, v1 + v3) if v1 or v3 else None
        if core is not None:
            _check_ic5_or_bipartite_components(core)
        return self


def _check_ic5_or_bipartite_components(g):
    """Each component must be bipartite or an independent expansion of C5."""
    from .graphs import components

    base = make_named("C", 5)
    for comp in components(g):
        sub = induced(g, comp)
        if is_bipartite(sub) is not None:
            continue
        if recognize_expansion(sub, base, allowed=("independent",)) is None:
            raise StructureViolation(
                "component neither bipartite nor an independent C5 expansion")


def decompose_p5k4kitebull(g):
    """Layered decomposition of a connected {P5,K4,Kite,Bull}-free graph
    containing an induced C5.

    Layers are distances from the (lexicographically least) induced C5.
    First-layer vertices land in A_i when they see exactly the two cycle
    vertices around position i, in B when they see all five; second-layer
    vertices with third-layer neighbors form S; layer four must be empty.
    The full invariant suite is re-validated before returning.
    """
    if not is_connected(g):
        raise Disconnected("decomposition requires a connected graph")
    cyc = find_induced_cycle(g, 5)
    if cyc is None:
        raise NoInducedC5("no induced C5")
    free, witness = is_family_free(g, family_p5k4kitebull())
    if not free:
        raise NotInClass("graph is not {P5,K4,Kite,Bull}-free", witness)
    layers = _bfs_layers(g, cyc)
    if len(layers) > 4:
        raise StructureViolation("vertices at distance >= 4 from the cycle")
    n1 = layers[1] if len(layers) > 1 else []
    n2 = layers[2] if len(layers) > 2 else []
    n3 = layers[3] if len(layers) > 3 else []
    A = [[cyc[i]] for i in range(5)]
    B = []
    cyc_pos = {v: i for i, v in enumerate(cyc)}
    for x in n1:
        hits = sorted(cyc_pos[u] for u in bits(g.adj[x]) if u in cyc_pos)
        if len(hits) == 5:
            B.append(x)
        elif len(hits) == 2 and (hits[1] - hits[0]) % 5 in (2, 3):
            a, b = hits
            i = (a + 1) % 5 if (b - a) % 5 == 2 else (b + 1) % 5
            A[i].append(x)
        else:
            raise StructureViolation(
                f"first-layer vertex {x} sees cycle positions {hits}")
    n3mask = mask_of(n3)
    S = [x for x in n2 if g.adj[x] & n3mask]
    n2_rest = [x for x in n2 if x not in set(S)]
    xstar = None
    if n3:
        for x in S:
            if g.adj[x] & n3mask == n3mask:
                xstar = x
                break
        if xstar is None:
            raise StructureViolation("no second-layer vertex sees all of V3")
    dec = C5Decomposition(
        graph=g,
        cycle=tuple(cyc),
        A=tuple(tuple(sorted(part)) for part in A),
        B=tuple(sorted(B)),
        S=tuple(sorted(S)),
        n2_rest=tuple(sorted(n2_rest)),
        V3=tuple(sorted(n3)),
        xstar=xstar,
    )
    return dec.validate()


def _bfs_layers(g, roots):
    dist = [-1] * g.n
    frontier = list(roots)
    for v in frontier:
        dist[v] = 0
    d = 0
    layers = [sorted(frontier)]
    while frontier:
        nxt = []
        for v in frontier:
            for u in bits(g.adj[v]):
                if dist[u] == -1:
                    dist[u] = d + 1
                    nxt.append(u)
        d += 1
        frontier = nxt
        if frontier:
            layers.append(sorted(frontier))
    return layers


def chi_p5k4kitebull(dec):
    """Chromatic number from the decomposition: 3 exactly when the graph is
    an independent C5 expansion (B empty), else 4."""
    return 3 if dec.is_unit else 4


# ---------------------------------------------------------------------------
# structure around an induced C6
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C6Decomposition:
    """Structure of a connected {P6,C5,claw}-free graph with an induced C6:
    six clique sets A_0..A_5 forming a complete expansion of C6, plus three
    clique sets B_0..B_2 (B_j attached to every A_i with i % 3 != j)."""

    graph: Graph
    cycle: tuple
    A: tuple   # six sorted vertex tuples
    B: tuple   # three sorted vertex tuples

    @property
    def is_kc6(self):
        return not any(self.B)

    def validate(self):
        g = self.graph
        pieces = [v for part in self.A for v in part]
        pieces += [v for part in self.B for v in part]
        if sorted(pieces) != list(range(g.n)):
            raise StructureViolation("blocks do not partition V")
        for i in range(6):
            if not _is_clique(g, self.A[i]):
                raise StructureViolation(f"A_{i} is not a clique")
            if not _complete_between(g, self.A[i], self.A[(i + 1) % 6]):
                raise StructureViolation(f"[A_{i},A_{i + 1}] not complete")
            for d in (2, 3):
                if not _empty_between(g, self.A[i], self.A[(i + d) % 6]):
                    raise StructureViolation(f"[A_{i},A_{i + d}] not empty")
        for j in range(3):
            if not _is_clique(g, self.B[j]):
                raise StructureViolation(f"B_{j} is not a clique")
            for jj in range(j + 1, 3):
                if not _empty_between(g, self.B[j], self.B[jj]):
                    raise StructureViolation(f"[B_{j},B_{jj}] not empty")
        for i in range(6):
            for j in range(3):
                if i % 3 == j:
                    if not _empty_between(g, self.A[i], self.B[j]):
                        raise StructureViolation(f"[A_{i},B_{j}] not empty")
                elif not _complete_between(g, self.A[i], self.B[j]):
                    raise StructureViolation(f"[A_{i},B_{j}] not complete")
        return self


def decompose_p6c5claw(g):
    """Classify a connected {P6,C5,claw}-free graph with an induced C6.

    Every vertex is within distance 1 of the cycle; first-layer vertices see
    either three consecutive cycle vertices (joining A of the middle one) or
    everything except an opposite pair (joining the B class of that pair).
    """
    if not is_connected(g):
        raise Disconnected("decomposition requires a connected graph")
    cyc = find_induced_cycle(g, 6)
    if cyc is None:
        raise NoInducedC6("no induced C6")
    free, witness = is_family_free(g, family_p6c5claw())
    if not free:
        raise NotInClass("graph is not {P6,C5,claw}-free", witness)
    layers = _bfs_layers(g, cyc)
    if len(layers) > 2:
        raise StructureViolation("vertices at distance >= 2 from the cycle")
    A = [[cyc[i]] for i in range(6)]
    B = [[], [], []]
    cyc_pos = {v: i for i, v in enumerate(cyc)}
    for x in (layers[1] if len(layers) > 1 else []):
        hits = {cyc_pos[u] for u in bits(g.adj[x]) if u in cyc_pos}
        placed = False
        if len(hits) == 3:
            for i in range(6):
                if hits == {(i - 1) % 6, i, (i + 1) % 6}:
                    A[i].append(x)
                    placed = True
                    break
        elif len(hits) == 4:
            missing = set(range(6)) - hits
            lo = min(missing)
            if missing == {lo, lo + 3}:
                B[lo % 3].append(x)
                placed = True
        if not placed:
            raise StructureViolation(
                f"first-layer vertex {x} sees cycle positions {sorted(hits)}")
    dec = C6Decomposition(
        graph=g,
        cycle=tuple(cyc),
        A=tuple(tuple(sorted(part)) for part in A),
        B=tuple(tuple(sorted(part)) for part in B),
    )
    return dec.validate()


# ---------------------------------------------------------------------------
# triangle-free / P5-free classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentTag:
    vertices: tuple
    kind: str        # "bipartite" | "ic5"
    certificate: object


def sumner_classify(g):
    """Per-component certificates for a {P5,K3}-free graph: a 2-partition,
    or the module structure of an independent C5 expansion."""
    from .graphs import components

    free, witness = is_family_free(g, family_sumner())
    if not free:
        raise NotInClass("graph is not {P5,K3}-free", witness)
    base = make_named("C", 5)
    tags = []
    for comp in components(g):
        sub = induced(g, comp)
        two = is_bipartite(sub)
        if two is not None:
            side0 = tuple(comp[i] for i in two[0])
            side1 = tuple(comp[i] for i in two[1])
            tags.append(ComponentTag(tuple(comp), "bipartite", (side0, side1)))
            continue
        es = recognize_expansion(sub, base, allowed=("independent",))
        if es is None:
            raise StructureViolation(
                "non-bipartite component is not an independent C5 expansion")
        modules = tuple(tuple(comp[i] for i in mod) for mod in es.modules)
        tags.append(ComponentTag(tuple(comp), "ic5", modules))
    return tags


# ---------------------------------------------------------------------------
# chromatic formulas
# ---------------------------------------------------------------------------

def chi_formula_kc5(sizes):
    """Chromatic number of a complete expansion of C5 with the given part
    sizes: the larger of the biggest adjacent-pair sum and half the order,
    rounded up."""
    m = tuple(sizes)
    if len(m) != 5 or any(x < 1 for x in m):
        raise BadParam("need five positive part sizes")
    omega = max(m[i] + m[(i + 1) % 5] for i in range(5))
    return max(omega, (sum(m) + 1) // 2)


# ---------------------------------------------------------------------------
# chordal part + complete-expansion pods ({P5,C4}-free graphs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pod:
    """A complete expansion of C5 hanging off a clique neighborhood."""

    vertices: tuple
    modules: tuple        # five sorted vertex tuples
    clique_nbhd: tuple    # N(pod), a clique inside the chordal part

    @property
    def sizes(self):
        return tuple(len(m) for m in self.modules)


@dataclass(frozen=True)
class P5C4Decomposition:
    graph: Graph
    chordal_part: tuple
    elimination_order: tuple
    pods: tuple

    def validate(self):
        g = self.graph
        pieces = list(self.chordal_part)
        for pod in self.pods:
            pieces += list(pod.vertices)
        if sorted(pieces) != list(range(g.n)):
            raise StructureViolation("pods + chordal part do not partition V")
        sub = induced(g, self.chordal_part)
        if is_chordal(sub) is None:
            raise StructureViolation("claimed chordal part is not chordal")
        core = set(self.chordal_part)
        for pod in self.pods:
            _validate_kc5_modules(g, pod.modules)
            nbhd = set()
            for v in pod.vertices:
                nbhd |= {u for u in bits(g.adj[v]) if u not in pod.vertices}
            if nbhd != set(pod.clique_nbhd):
                raise StructureViolation("pod neighborhood mismatch")
            if not nbhd <= core:
                raise StructureViolation("pod touches another pod")
            if not _is_clique(g, sorted(nbhd)):
                raise StructureViolation("pod neighborhood is not a clique")
            if not _complete_between(g, pod.vertices, sorted(nbhd)):
                raise StructureViolation("pod not fully joined to its neighborhood")
        return self


def _validate_kc5_modules(g, modules):
    for i in range(5):
        if not _is_clique(g, modules[i]):
            raise StructureViolation("pod module is not a clique")
        if not _complete_between(g, modules[i], modules[(i + 1) % 5]):
            raise StructureViolation("adjacent pod modules not joined")
        if not _empty_between(g, modules[i], modules[(i + 2) % 5]):
            raise StructureViolation("distant pod modules adjacent")


def decompose_p5c4(g):
    """Split a connected {P5,C4}-free graph into a chordal part and pods,
    each pod a complete expansion of C5 fully joined to a clique inside the
    chordal part.

    Pods are grown greedily: seed an induced C5 among unassigned vertices,
    absorb vertices whose adjacency matches one module's pattern until a
    fixpoint, validate, repeat.  Seeds are tried in lexicographic order, so
    the result is deterministic; postcondition validation guards the greedy
    choices.
    """
    if not is_connected(g):
        raise Disconnected("decomposition requires a connected graph")
    free, witness = is_family_free(g, family_p5c4())
    if not free:
        raise NotInClass("graph is not {P5,C4}-free", witness)
    remaining = list(range(g.n))
    pods = []
    while True:
        sub = induced(g, remaining)
        pod = None
        for seed in _induced_cycles(sub, 5):
            modules = _grow_kc5_pod(sub, seed)
            if modules is not None:
                pod = tuple(tuple(sorted(remaining[i] for i in mod)) for mod in modules)
                break
        if pod is None:
            break
        pod_vs = tuple(sorted(v for mod in pod for v in mod))
        pod_mask = mask_of(pod_vs)
        nbhd = set()
        for v in pod_vs:
            nbhd |= {u for u in bits(g.adj[v] & ~pod_mask)}
        pods.append(Pod(pod_vs, pod, tuple(sorted(nbhd))))
        remaining = [v for v in remaining if v not in set(pod_vs)]
    dec = P5C4Decomposition(
        graph=g,
        chordal_part=tuple(remaining),
        elimination_order=is_chordal(induced(g, remaining)) or (),
        pods=tuple(pods),
    )
    return dec.validate()


def _grow_kc5_pod(g, seed):
    """Extend an induced C5 to maximal modules matching the complete
    expansion pattern; None if the result is not a clean pod."""
    modules = [[v] for v in seed]
    assigned = set(seed)
    changed = True
    while changed:
        changed = False
        for x in range(g.n):
            if x in assigned:
                continue
            for i in range(5):
                inside = modules[(i - 1) % 5] + modules[i] + modules[(i + 1) % 5]
                outside = modules[(i + 2) % 5] + modules[(i + 3) % 5]
                if all(g.has_edge(x, u) for u in inside) and \
                        not any(g.has_edge(x, u) for u in outside):
                    modules[i].append(x)
                    assigned.add(x)
                    changed = True
                    break
    try:
        _validate_kc5_modules(g, [tuple(sorted(m)) for m in modules])
    except StructureViolation:
        return None
    return [sorted(m) for m in modules]
