"""Structural decompositions and chromatic formulas for the supported
forbidden-subgraph classes.

Every decomposer validates the full claim list of its target structure as a
postcondition and fails loudly on violation instead of trusting the class
check; the class check and the decomposition cross-verify each other.

Every structure seeded by an induced cycle (cycle expansions, the layered
partition around a C5, the clique blocks around a C6 and the {P5,C4} pods)
places vertices by the seed vertices they see with one routine, _place,
and checks its modules in cycle order with one routine, _check_modules.
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
from .graphs import Graph, bits, components, induced, is_connected, make_named, mask_of

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
        all_vs = sorted(v for m in self.modules for v in m)
        if all_vs != list(range(self.graph.n)):
            raise StructureViolation("modules do not partition V")
        _check_modules(self.graph, self.modules, self.kinds)
        return self


def _check_modules(g, modules, kinds):
    """Raise StructureViolation unless the modules, in cycle order, are
    non-empty, each of its kind, fully joined across cycle edges and fully
    non-adjacent otherwise."""
    n = len(modules)
    for i in range(n):
        for j in range(i + 1, n):
            if (j - i) % n in (1, n - 1):
                if not _complete_between(g, modules[i], modules[j]):
                    raise StructureViolation(f"[M{i},M{j}] not complete")
            elif not _empty_between(g, modules[i], modules[j]):
                raise StructureViolation(f"[M{i},M{j}] not empty")
    for i, kind in enumerate(kinds):
        if not modules[i] or not _KIND_TESTS[kind](g, modules[i]):
            raise StructureViolation(f"module {i} is empty or not {kind}")


def _kind_label(g, module, allowed):
    for kind in allowed:
        if _KIND_TESTS[kind](g, module):
            return kind
    return None


def recognize_expansion(g, base, allowed=("complete", "independent")):
    """Recognize g as an expansion of the cycle `base` whose modules all fall
    under the allowed kinds; None if no such partition exists.

    The least induced base-length cycle is the seed, and _place puts every
    vertex around it.  One seed suffices: C_n is prime for n >= 5, so a module
    meets an induced C_n in at most one vertex unless it holds the whole
    cycle, and complete, independent and split modules are chordal.  C3 and
    C4 are not prime and take only ("complete",) or ("independent",).  Each
    module is labelled with the first allowed kind it satisfies; the module
    order is canonicalized by least contained id and the structure validated
    before it is returned.
    """
    if not (3 <= base.n <= 8 and is_connected(base)
            and all(base.degree(v) == 2 for v in range(base.n))):
        raise BadParam("base must be a cycle on 3..8 vertices")
    n = base.n
    if n <= 4 and tuple(allowed) not in (("complete",), ("independent",)):
        raise BadParam("C3 and C4 expansions take only complete or independent modules")
    seed = find_induced_cycle(g, n)
    if seed is None:
        return None
    modules, rest = _place(g, seed)
    if rest:
        return None
    kinds = [_kind_label(g, m, allowed) for m in modules]
    if None in kinds:
        return None
    modules, kinds = _canonical_rotation(modules, kinds)
    try:
        return ExpansionStructure(g, base, tuple(map(tuple, modules)), tuple(kinds)).validate()
    except StructureViolation:
        return None


def _place(g, seed):
    """Modules around an induced cycle seed: each seed vertex anchors its own
    position, and every other vertex goes to the least position p whose two
    cycle neighbours are exactly the seed vertices it sees apart from
    seed[p].  Returns (modules, rest), rest the vertices that fit no
    position, all in ascending id order."""
    n = len(seed)
    bit = [1 << v for v in seed]
    seed_mask = sum(bit)
    want = [bit[p - 1] | bit[(p + 1) % n] for p in range(n)]
    modules = [[] for _ in range(n)]
    rest = []
    for v in range(g.n):
        if seed_mask >> v & 1:
            modules[seed.index(v)].append(v)
            continue
        row = g.adj[v] & seed_mask
        pos = next((p for p in range(n) if row & ~bit[p] == want[p]), None)
        (rest if pos is None else modules[pos]).append(v)
    return modules, rest


def dihedral_orders(n):
    """The 2n rotations and reflections of cycle positions 0..n-1, as
    position lists: the rotations first, then the reflected rotations."""
    for refl in (False, True):
        base = list(range(n)) if not refl else [0] + list(range(n - 1, 0, -1))
        for r in range(n):
            yield [base[(i + r) % n] for i in range(n)]


def _canonical_rotation(modules, kinds):
    """Modules and kinds in the dihedral order whose least ids read least
    (from the least id towards its lesser-id neighbour module)."""
    perm = min(dihedral_orders(len(modules)), key=lambda p: [modules[i][0] for i in p])
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
        _check_modules(g, self.A, ("independent",) * 5)
        if len(self.cycle) != 5 or any(c not in a for c, a in zip(self.cycle, self.A)):
            raise StructureViolation("A_i does not hold cycle[i]")
        _component_tags(induced(g, v1 + v3))   # raises unless bipartite or IC5
        return self


def decompose_p5k4kitebull(g):
    """Layered decomposition of a connected {P5,K4,Kite,Bull}-free graph
    containing an induced C5.

    _place puts the vertices around the least induced C5, as
    recognize_expansion does: A_i takes the vertices that see exactly the
    two cycle vertices around position i.  Of the vertices left, B takes
    those that see all five, the second layer those with a neighbour in A
    or B, and the third layer those with a neighbour in the second; S is the
    second-layer vertices with a third-layer neighbour, and the apex the
    least vertex of S that sees the whole third layer.  A vertex that fits
    no block fails the partition check of the full invariant suite, which
    is re-validated before returning.
    """
    if not is_connected(g):
        raise Disconnected("decomposition requires a connected graph")
    cyc = find_induced_cycle(g, 5)
    if cyc is None:
        raise NoInducedC5("no induced C5")
    free, witness = is_family_free(g, family_p5k4kitebull())
    if not free:
        raise NotInClass("graph is not {P5,K4,Kite,Bull}-free", witness)
    A, rest = _place(g, cyc)
    ring = mask_of(cyc)
    B = [v for v in rest if g.adj[v] & ring == ring]
    near = mask_of([v for part in A for v in part] + B)
    n2 = [v for v in rest if g.adj[v] & near and not near >> v & 1]
    n2mask = mask_of(n2)
    n3 = [v for v in rest if g.adj[v] & n2mask and not (near | n2mask) >> v & 1]
    n3mask = mask_of(n3)
    S = [x for x in n2 if g.adj[x] & n3mask]
    dec = C5Decomposition(
        graph=g,
        cycle=tuple(cyc),
        A=tuple(map(tuple, A)),
        B=tuple(B),
        S=tuple(S),
        n2_rest=tuple(x for x in n2 if x not in S),
        V3=tuple(n3),
        xstar=next((x for x in S if g.adj[x] & n3mask == n3mask), None),
    )
    return dec.validate()


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
        _check_modules(g, self.A, ("complete",) * 6)
        if len(self.cycle) != 6 or any(c not in a for c, a in zip(self.cycle, self.A)):
            raise StructureViolation("A_i does not hold cycle[i]")
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

    _place puts the vertices around the least induced C6, as
    recognize_expansion does: A_i takes the vertices that see the two cycle
    vertices around position i (and, in this class, position i itself).  Of
    the vertices left, B_j takes those that see every cycle vertex except
    positions j and j + 3.  A vertex that fits no block fails the partition
    check of validate().
    """
    if not is_connected(g):
        raise Disconnected("decomposition requires a connected graph")
    cyc = find_induced_cycle(g, 6)
    if cyc is None:
        raise NoInducedC6("no induced C6")
    free, witness = is_family_free(g, family_p6c5claw())
    if not free:
        raise NotInClass("graph is not {P6,C5,claw}-free", witness)
    A, rest = _place(g, cyc)
    ring = mask_of(cyc)
    B = [[v for v in rest if g.adj[v] & ring == ring & ~mask_of((cyc[j], cyc[j + 3]))]
         for j in range(3)]
    dec = C6Decomposition(
        graph=g,
        cycle=tuple(cyc),
        A=tuple(map(tuple, A)),
        B=tuple(map(tuple, B)),
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
    free, witness = is_family_free(g, family_sumner())
    if not free:
        raise NotInClass("graph is not {P5,K3}-free", witness)
    return _component_tags(g)


def _component_tags(g):
    """A ComponentTag per component: a 2-partition, else the modules of an
    independent C5 expansion, else StructureViolation."""
    base = make_named("C", 5)
    tags = []
    for comp in components(g):
        sub = induced(g, comp)
        two = is_bipartite(sub)
        if two is not None:
            sides = tuple(tuple(comp[i] for i in side) for side in two)
            tags.append(ComponentTag(tuple(comp), "bipartite", sides))
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
            _check_modules(g, pod.modules, ("complete",) * 5)
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


def decompose_p5c4(g):
    """Split a connected {P5,C4}-free graph into a chordal part and pods,
    each pod a complete expansion of C5 fully joined to a clique inside the
    chordal part.

    Each pass seeds the least induced C5 among the vertices left, places
    them around it as recognize_expansion does and takes the placed ones as
    a pod, its modules in seed order; the rest go to the next pass.  The
    class check runs first, and in a {P5,C4}-free graph this placement is
    exact.  A vertex with a neighbour on an induced C5 sees three
    consecutive cycle vertices or all five, as any other pattern gives an
    induced P5 or C4.  Two vertices placed at one position are adjacent, or
    they close a C4 through the two cycle vertices around it; vertices at
    adjacent positions are adjacent, or they end an induced P5 through the
    far side of the cycle; vertices two positions apart are non-adjacent,
    or they close a C4 with two cycle vertices.  So every placed vertex
    fits the complete expansion pattern of every other, and growing modules
    from the seed to a fixpoint would take exactly the placed vertices.
    """
    if not is_connected(g):
        raise Disconnected("decomposition requires a connected graph")
    free, witness = is_family_free(g, family_p5c4())
    if not free:
        raise NotInClass("graph is not {P5,C4}-free", witness)
    remaining = list(range(g.n))
    sub = g
    pods = []
    while (seed := find_induced_cycle(sub, 5)) is not None:
        modules, rest = _place(sub, seed)
        pod = tuple(tuple(remaining[i] for i in mod) for mod in modules)
        pod_vs = tuple(sorted(v for mod in pod for v in mod))
        touched = 0
        for v in pod_vs:
            touched |= g.adj[v]
        pods.append(Pod(pod_vs, pod, tuple(bits(touched & ~mask_of(pod_vs)))))
        remaining = [remaining[i] for i in rest]
        sub = induced(g, remaining)
    return P5C4Decomposition(g, tuple(remaining), tuple(pods)).validate()
