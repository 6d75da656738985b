import collections
import dataclasses
import itertools

import pytest

from indicated.detect import find_induced_cycle, is_family_free
from indicated.errors import (
    BadParam,
    BoundViolated,
    Disconnected,
    GraphGameError,
    NoInducedC5,
    NoInducedC6,
    NotApplicable,
    NotInClass,
    StructureViolation,
)
from indicated.game import chi_exact
from indicated.graphs import (
    ExpansionSpec,
    Graph,
    PartKind,
    bits,
    complete_expansion,
    expand,
    independent_expansion,
    induced,
    is_connected,
    join,
    make_named,
    mask_of,
    parse_graph6,
    union,
)
from indicated.strategies import strat_cycle_expansion
from indicated.structure import (
    C5Decomposition,
    C6Decomposition,
    ExpansionStructure,
    P5C4Decomposition,
    Pod,
    _canonical_rotation,
    _complete_between,
    _cycle_order,
    _empty_between,
    _is_clique,
    _kind_label,
    chi_formula_kc5,
    chi_p5k4kitebull,
    decompose_p5c4,
    decompose_p5k4kitebull,
    decompose_p6c5claw,
    dihedral_orders,
    family_p5c4,
    family_p5k4kitebull,
    family_p6c5claw,
    recognize_expansion,
    sumner_classify,
)

from builders import (
    build_c6_form_instance,
    build_layered_c5_instance,
    build_p5c4_instance,
    build_split_c5_instance,
    random_graph,
    relabelled,
)

C5 = make_named("C", 5)
C6 = make_named("C", 6)


# --- expansion recognition ---------------------------------------------------

def test_recognize_expansion_examples():
    g = complete_expansion(C5, (2, 1, 1, 1, 1))
    es = recognize_expansion(g, C5)
    assert es is not None and sorted(es.sizes) == [1, 1, 1, 1, 2]
    assert recognize_expansion(make_named("Petersen"), C5) is None
    es = recognize_expansion(C6, C6)
    assert es is not None and es.sizes == (1,) * 6


@pytest.mark.slow
def test_recognize_expansion_exhaustive_roundtrip():
    for base_n in range(4, 8):
        base = make_named("C", base_n)
        for sizes in itertools.product((1, 2, 3), repeat=base_n):
            for builder, allowed in ((complete_expansion, ("complete",)),
                                     (independent_expansion, ("independent",))):
                g = builder(base, sizes)
                es = recognize_expansion(g, base, allowed=allowed)
                assert es is not None, (base_n, sizes, allowed)
                assert sum(es.sizes) == sum(sizes)
                es.validate()
                if not (base_n == 4 and allowed == ("independent",)):
                    # module split is unique except for independent C4
                    # expansions (complete bipartite graphs)
                    assert sorted(es.sizes) == sorted(sizes)


def _per_bit_induced_cycles(g, n):
    """All induced n-cycles, canonically (min vertex first, lesser neighbor
    second), in lexicographic order: each extension is checked against
    every path vertex bit by bit."""
    adj = g.adj
    out = []

    def grow(path, pmask):
        i = len(path)
        if i == n:
            if adj[path[-1]] & 1 << path[0]:
                out.append(tuple(path))
            return
        v0 = path[0]
        for x in bits(adj[path[-1]]):
            if x <= v0 or pmask & (1 << x):
                continue
            bad = False
            for j in range(i - 1):
                needs = (i == n - 1 and j == 0)
                if bool(adj[x] & (1 << path[j])) != needs:
                    bad = True
                    break
            if bad:
                continue
            if i == n - 1 and path[1] > x:
                # canonical direction: second vertex below last
                continue
            path.append(x)
            grow(path, pmask | (1 << x))
            path.pop()

    for v0 in range(g.n):
        grow([v0], 1 << v0)
    return sorted(out)


def _seeded_canonical_rotation(modules, kinds, n):
    """The canonical module order as a min over all 2n dihedral orders."""
    perm = min(dihedral_orders(n), key=lambda p: tuple(modules[q][0] for q in p))
    return [modules[p] for p in perm], [kinds[p] for p in perm]


def _seeded_recognize_expansion(g, base, allowed=("complete", "independent")):
    """recognize_expansion as a search over every induced base-length seed
    cycle, with a backtracking assignment of the other vertices."""
    order = _cycle_order(base)
    if order is None or base.n > 8:
        raise BadParam("base must be a cycle on 3..8 vertices")
    n = base.n
    if g.n < n:
        return None
    only_complete = set(allowed) == {"complete"}
    only_independent = set(allowed) == {"independent"}

    for seed in _per_bit_induced_cycles(g, n):
        assignment = _seeded_assign_to_cycle(g, seed, n, only_complete, only_independent)
        if assignment is None:
            continue
        modules = [[] for _ in range(n)]
        for v, pos in enumerate(assignment):
            modules[pos].append(v)
        kinds = [None] * n
        ok = True
        for i in range(n):
            modules[i].sort()
            kinds[i] = _kind_label(g, modules[i], allowed)
            if kinds[i] is None:
                ok = False
                break
        if not ok:
            continue
        modules, kinds = _seeded_canonical_rotation(modules, kinds, n)
        structure = ExpansionStructure(g, base, tuple(tuple(m) for m in modules),
                                       tuple(kinds))
        try:
            structure.validate()
        except StructureViolation:
            continue
        return structure
    return None


def _seeded_assign_to_cycle(g, seed, n, only_complete, only_independent):
    """Map every vertex to a cycle position consistent with the seed, or
    None.  seed[i] anchors position i."""
    pos = [-1] * g.n
    for i, v in enumerate(seed):
        pos[v] = i
    rest = [v for v in range(g.n) if pos[v] == -1]

    def candidates(v):
        row = g.adj[v]
        cands = []
        for p in range(n):
            ok = True
            for q in range(n):
                has = bool(row & (1 << seed[q]))
                if q == p:
                    if only_complete and not has:
                        ok = False
                    if only_independent and has:
                        ok = False
                elif (q - p) % n in (1, n - 1):
                    ok = ok and has
                else:
                    ok = ok and not has
                if not ok:
                    break
            if ok:
                cands.append(p)
        return cands

    def consistent(v, p, placed):
        row = g.adj[v]
        for u in placed:
            q = pos[u]
            has = bool(row & (1 << u))
            if q == p:
                if only_complete and not has:
                    return False
                if only_independent and has:
                    return False
            elif (q - p) % n in (1, n - 1):
                if not has:
                    return False
            elif has:
                return False
        return True

    placed = []

    def assign(idx):
        if idx == len(rest):
            return True
        v = rest[idx]
        for p in candidates(v):
            if consistent(v, p, placed):
                pos[v] = p
                placed.append(v)
                if assign(idx + 1):
                    return True
                placed.pop()
                pos[v] = -1
        return False

    if assign(0):
        return pos
    return None


def _seeded_strat_cycle_expansion(g, k):
    """Winning plan for independent expansions of a cycle: one
    representative per module around the cycle, then everything else."""
    structure = None
    for n in range(3, g.n + 1):
        structure = _seeded_recognize_expansion(g, make_named("C", n),
                                                allowed=("independent",))
        if structure is not None:
            break
    if structure is None:
        raise NotApplicable("not an independent expansion of a cycle")
    n = structure.base.n
    chi = 2 if n % 2 == 0 else 3
    if k < chi:
        raise BoundViolated(f"need k >= {chi}, got {k}")
    reps = [mod[0] for mod in structure.modules]
    rest = sorted(v for mod in structure.modules for v in mod[1:])
    return reps + rest


def test_recognize_expansion_matches_seeded_search(rng):
    """The single-seed recogniser gives the structures of the search over
    every seed: single kinds on C3..C8, split modules on C5 and the default
    complete-or-independent pair on C5..C8.  strat_cycle_expansion gives the
    phases of its length-by-length loop (or NotApplicable where that loop
    ran into the C3..C8 limit of recognize_expansion and raised BadParam)."""
    graphs = []
    for _ in range(120):
        n = rng.randint(3, 8)
        build = rng.choice((complete_expansion, independent_expansion))
        graphs.append(relabelled(rng, build(make_named("C", n),
                                            [rng.randint(1, 3) for _ in range(n)])))
    for _ in range(60):
        n = rng.randint(5, 8)
        spec = ExpansionSpec(make_named("C", n), tuple(rng.randint(1, 3) for _ in range(n)),
                             tuple(rng.choice(list(PartKind)) for _ in range(n)))
        graphs.append(relabelled(rng, expand(spec)))
    graphs += [relabelled(rng, build_split_c5_instance(rng)) for _ in range(40)]
    graphs += [random_graph(rng, rng.randint(3, 9), p=rng.choice((0.2, 0.35, 0.5, 0.7)))
               for _ in range(120)]
    calls = [(n, (kind,)) for n in range(3, 9) for kind in ("complete", "independent")]
    calls += [(5, ("split",))] + [(n, ("complete", "independent")) for n in range(5, 9)]
    found = collections.Counter()
    for g in graphs:
        for n, allowed in calls:
            base = make_named("C", n)
            new = recognize_expansion(g, base, allowed=allowed)
            old = _seeded_recognize_expansion(g, base, allowed=allowed)
            assert (new and (new.modules, new.kinds)) == \
                (old and (old.modules, old.kinds)), (g.edges(), n, allowed)
            if new is not None:
                found[allowed] += 1
                found[allowed, n >= 5, new.modules[0] == tuple(range(len(new.modules[0])))] += 1
                found["mixed"] += len(set(new.kinds)) > 1
        try:
            old = tuple(_seeded_strat_cycle_expansion(g, 3))
        except (BadParam, NotApplicable) as exc:
            old = NotApplicable if g.n >= 9 else type(exc)
        try:
            new = strat_cycle_expansion(g, 3).vertices
        except NotApplicable:
            new = NotApplicable
        assert new == old, g.edges()
        found["strategy", new is NotApplicable] += 1
    # every kind set finds structures, single kinds also on C3/C4 and on
    # C5..C8 where the module holding vertex 0 is not a prefix of the ids;
    # mixed kinds occur, and both strategy outcomes occur
    for kind in ("complete", "independent"):
        assert found[(kind,)] >= 50, found
        assert found[(kind,), False, False] >= 10, found
        assert found[(kind,), True, False] >= 20, found
    assert found[("split",)] >= 50, found
    assert found[("complete", "independent")] >= 100, found
    assert found["mixed"] >= 50, found
    assert min(found["strategy", False], found["strategy", True]) >= 30, found


def test_canonical_rotation_matches_dihedral_min(rng):
    for _ in range(400):
        n = rng.randint(3, 8)
        vs = list(range(rng.randint(n, 3 * n)))
        rng.shuffle(vs)
        cuts = sorted(rng.sample(range(1, len(vs)), n - 1))
        modules = [sorted(vs[a:b]) for a, b in zip([0] + cuts, cuts + [len(vs)])]
        kinds = [rng.choice(("complete", "independent", "split")) for _ in range(n)]
        assert _canonical_rotation(modules, kinds) == \
            _seeded_canonical_rotation(modules, kinds, n), (modules, kinds)


def test_recognize_expansion_canonical_order():
    g = complete_expansion(C5, (1, 2, 1, 1, 1))
    es = recognize_expansion(g, C5)
    assert es.modules[0][0] == min(v for m in es.modules for v in m)


def test_recognize_expansion_bad_base():
    with pytest.raises(BadParam):
        recognize_expansion(C5, make_named("P", 4))
    with pytest.raises(BadParam):
        recognize_expansion(make_named("C", 9), make_named("C", 9))
    # C3 and C4 are not prime: their modules are not fixed by one seed cycle
    for n in (3, 4):
        base = make_named("C", n)
        for allowed in (("split",), ("complete", "independent"), ("independent", "complete"),
                        ("complete", "split")):
            with pytest.raises(BadParam):
                recognize_expansion(complete_expansion(base, (1,) * n), base, allowed=allowed)


def test_recognize_expansion_split_modules():
    import random

    rng = random.Random(5)
    for _ in range(15):
        g = build_split_c5_instance(rng)
        es = recognize_expansion(g, C5, allowed=("split",))
        assert es is not None
        parts = es.split_parts()
        assert all(p is not None for p in parts)


# --- layered C5 decomposition -------------------------------------------------

def test_decompose_layered_unit_expansion():
    g = independent_expansion(C5, (2, 1, 2, 1, 1))
    d = decompose_p5k4kitebull(g)
    assert d.is_unit and not d.B and not d.S and not d.V3
    assert len(d.V1) == g.n
    assert chi_p5k4kitebull(d) == 3


def test_decompose_layered_wheel():
    w5 = join(make_named("K", 1), C5)
    d = decompose_p5k4kitebull(w5)
    assert len(d.B) == 1 and not d.S and not d.V3
    assert all(len(a) == 1 for a in d.A)
    assert chi_p5k4kitebull(d) == 4
    assert chi_exact(w5) == 4


def test_decompose_layered_errors():
    with pytest.raises(NoInducedC5):
        decompose_p5k4kitebull(make_named("P", 5))
    with pytest.raises(Disconnected):
        decompose_p5k4kitebull(union(C5, C5))
    with pytest.raises(NotInClass):
        decompose_p5k4kitebull(join(make_named("K", 2), C5))  # contains K4


def test_decompose_layered_randomized_roundtrip(rng):
    accepted = 0
    attempts = 0
    while accepted < 30 and attempts < 500:
        attempts += 1
        g = build_layered_c5_instance(rng)
        if g is None:
            continue
        if not is_family_free(g, family_p5k4kitebull())[0]:
            continue
        d = decompose_p5k4kitebull(g)
        assert chi_p5k4kitebull(d) == chi_exact(g)
        accepted += 1
    assert accepted == 30


# --- C6 structure ---------------------------------------------------------------

def test_decompose_c6_examples():
    d = decompose_p6c5claw(C6)
    assert all(len(a) == 1 for a in d.A) and d.is_kc6
    g = complete_expansion(C6, (2, 1, 1, 1, 1, 1))
    d = decompose_p6c5claw(g)
    assert sorted(len(a) for a in d.A) == [1, 1, 1, 1, 1, 2] and d.is_kc6


def test_decompose_c6_with_b_vertex():
    edges = C6.edges() + [(6, 1), (6, 2), (6, 4), (6, 5)]
    g = Graph(7, edges)
    assert is_family_free(g, family_p6c5claw())[0]
    d = decompose_p6c5claw(g)
    assert 6 in d.B[0] and not d.is_kc6


def test_decompose_c6_randomized_roundtrip(rng):
    for _ in range(30):
        g, a, b = build_c6_form_instance(rng)
        assert is_family_free(g, family_p6c5claw())[0]
        d = decompose_p6c5claw(g)
        assert sorted(sum(([len(x)] for x in d.A), [])) == sorted(a)
        # house-freeness coincides with an empty B layer
        house_free = is_family_free(g, [make_named("p5_bar")])[0]
        assert house_free == (sum(b) == 0) == d.is_kc6


def test_decompose_c6_errors():
    with pytest.raises(NotInClass):
        decompose_p6c5claw(join(make_named("K", 1), C6))  # claw via hub
    with pytest.raises(NoInducedC6):
        decompose_p6c5claw(make_named("K", 4))


def _hitlist_decompose_p5k4kitebull(g):
    """The earlier decompose_p5k4kitebull, kept as the reference: distance
    layers from the cycle and per-vertex cycle hit lists."""
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


def _hitlist_decompose_p6c5claw(g):
    """The earlier decompose_p6c5claw, kept as the reference: distance
    layers from the cycle and per-vertex cycle hit sets."""
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


def _outcome(decompose, g):
    try:
        d = decompose(g)
    except GraphGameError as exc:
        return type(exc).__name__
    return {f: getattr(d, f) for f in d.__dataclass_fields__ if f != "graph"}


def test_decomposers_match_hitlist_placement(rng, all_le6, connected_le7):
    """Placement around the seed cycle gives the decomposition of distance
    layers and cycle hit lists, field by field, or the same error."""
    graphs = all_le6 + connected_le7
    for _ in range(600):
        g = build_layered_c5_instance(rng)
        if g is not None:
            graphs.append(relabelled(rng, g))
    graphs += [relabelled(rng, build_c6_form_instance(rng)[0]) for _ in range(300)]
    graphs += [random_graph(rng, rng.randint(6, 10)) for _ in range(200)]
    found = {"c5": collections.Counter(), "c6": collections.Counter()}
    for g in graphs:
        for name, new, old, deep in (
                ("c5", decompose_p5k4kitebull, _hitlist_decompose_p5k4kitebull,
                 lambda d: bool(d["V3"])),
                ("c6", decompose_p6c5claw, _hitlist_decompose_p6c5claw,
                 lambda d: any(d["B"]))):
            got = _outcome(new, g)
            assert got == _outcome(old, g), (name, g.edges())
            if isinstance(got, str):
                found[name][got] += 1
            else:
                # "deep": a third layer (C5) or a non-empty B class (C6)
                found[name]["ok"] += 1
                found[name]["deep"] += deep(got)
    c5, c6 = found["c5"], found["c6"]
    assert c5["ok"] >= 300 and c5["deep"] >= 50 and c5["NotInClass"] >= 150, c5
    assert c5["NoInducedC5"] >= 1000 and c5["Disconnected"] >= 50, c5
    assert c6["ok"] >= 250 and c6["deep"] >= 50 and c6["NotInClass"] >= 20, c6
    assert c6["NoInducedC6"] >= 1000 and c6["Disconnected"] >= 50, c6


# --- triangle-free classification ----------------------------------------------

def test_sumner_examples():
    tags = sumner_classify(C5)
    assert tags[0].kind == "ic5"
    assert all(len(m) == 1 for m in tags[0].certificate)
    tags = sumner_classify(union(make_named("P", 4), C5))
    assert [t.kind for t in tags] == ["bipartite", "ic5"]
    with pytest.raises(NotInClass):
        sumner_classify(make_named("C", 7))


# --- chromatic formulas -----------------------------------------------------------

def test_chi_formula_examples():
    assert chi_formula_kc5((1, 1, 1, 1, 1)) == 3
    assert chi_formula_kc5((2, 2, 2, 2, 2)) == 5
    assert chi_formula_kc5((3, 1, 1, 1, 1)) == 4
    with pytest.raises(BadParam):
        chi_formula_kc5((1, 1, 1, 1))
    with pytest.raises(BadParam):
        chi_formula_kc5((0, 1, 1, 1, 1))


def test_chi_formula_spot_check_vs_exact():
    for m in ((1, 1, 1, 1, 1), (2, 1, 2, 1, 1), (3, 2, 1, 2, 1), (2, 2, 2, 2, 2)):
        assert chi_formula_kc5(m) == chi_exact(complete_expansion(C5, m))


# --- chordal part + pods -------------------------------------------------------------

def test_decompose_p5c4_examples():
    g = Graph(5, make_named("K", 4).edges() + [(3, 4)])
    d = decompose_p5c4(g)
    assert not d.pods and len(d.chordal_part) == 5
    d = decompose_p5c4(C5)
    assert len(d.pods) == 1 and not d.chordal_part
    assert d.pods[0].clique_nbhd == ()
    w5 = join(make_named("K", 1), C5)
    d = decompose_p5c4(w5)
    assert len(d.pods) == 1 and d.pods[0].clique_nbhd == (0,)


def test_decompose_p5c4_bigger_pod():
    g = join(make_named("K", 2), complete_expansion(C5, (2, 1, 1, 1, 1)))
    d = decompose_p5c4(g)
    assert len(d.pods) == 1
    assert d.pods[0].sizes == (2, 1, 1, 1, 1) or sorted(d.pods[0].sizes) == [1, 1, 1, 1, 2]
    assert set(d.pods[0].clique_nbhd) == {0, 1}


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


def _greedy_decompose_p5c4(g):
    """decompose_p5c4 as a search over every induced C5 seed, growing
    modules from each to a fixpoint and falling through to the next seed
    when growth fails."""
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
    return P5C4Decomposition(g, tuple(remaining), tuple(pods)).validate()


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


def _validate_kc5_modules(g, modules):
    for i in range(5):
        if not _is_clique(g, modules[i]):
            raise StructureViolation("pod module is not a clique")
        if not _complete_between(g, modules[i], modules[(i + 1) % 5]):
            raise StructureViolation("adjacent pod modules not joined")
        if not _empty_between(g, modules[i], modules[(i + 2) % 5]):
            raise StructureViolation("distant pod modules adjacent")


def test_decompose_p5c4_matches_greedy_seed_search(rng, all_le6, connected_le7):
    """One seed and one placement pass per pod give the decomposition of
    the multi-seed fixpoint growth, or the same error."""
    graphs = all_le6 + connected_le7
    graphs += [relabelled(rng, build_p5c4_instance(rng)) for _ in range(300)]
    found = collections.Counter()
    for g in graphs:
        try:
            new = decompose_p5c4(g)
        except GraphGameError as exc:
            new = type(exc)
        try:
            old = _greedy_decompose_p5c4(g)
        except GraphGameError as exc:
            old = type(exc)
        if isinstance(new, type):
            assert new == old, g.edges()
            found[new.__name__] += 1
            continue
        assert new.chordal_part == old.chordal_part, g.edges()
        assert [(p.vertices, p.modules, p.clique_nbhd) for p in new.pods] == \
            [(p.vertices, p.modules, p.clique_nbhd) for p in old.pods], g.edges()
        found[min(len(new.pods), 2)] += 1
    assert found[2] >= 100 and found[1] >= 50 and found[0] >= 100, found
    assert found["NotInClass"] >= 100 and found["Disconnected"] >= 50, found


def test_decompose_p5c4_errors():
    with pytest.raises(NotInClass):
        decompose_p5c4(make_named("P", 5))
    with pytest.raises(NotInClass):
        decompose_p5c4(make_named("C", 4))


def test_structure_violation_on_forged_decomposition():
    w5 = join(make_named("K", 1), C5)
    d = decompose_p5k4kitebull(w5)
    forged = type(d)(graph=d.graph, cycle=d.cycle, A=d.A, B=(), S=d.B,
                     n2_rest=d.n2_rest, V3=d.V3, xstar=d.xstar)
    with pytest.raises(StructureViolation):
        forged.validate()


def _moved(modules, src, dst):
    """modules with the last vertex of modules[src] moved to modules[dst]."""
    out = [list(m) for m in modules]
    out[dst] = sorted(out[dst] + [out[src].pop()])
    return tuple(map(tuple, out))


def test_forged_cycle_classes_are_rejected():
    g = join(make_named("K", 1), independent_expansion(C5, (2, 1, 2, 1, 1)))
    d = decompose_p5k4kitebull(g)
    assert d.B == (0,)
    a = list(d.A)
    a[1], a[2] = a[2], a[1]
    with pytest.raises(StructureViolation):
        dataclasses.replace(d, A=tuple(a)).validate()
    p4 = make_named("P", 4)
    empty = C5Decomposition(graph=p4, cycle=(), A=((),) * 5, B=(), S=(),
                            n2_rest=(0, 1, 2, 3), V3=(), xstar=None)
    with pytest.raises(StructureViolation):
        empty.validate()


def test_modules_rotated_or_reflected_against_the_cycle_are_rejected():
    """A_i must hold cycle[i]: rotating or reflecting A keeps its cyclic
    order, so the module check alone accepts it."""
    d = decompose_p5k4kitebull(join(make_named("K", 1),
                                    independent_expansion(C5, (2, 1, 2, 1, 1))))
    c6 = decompose_p6c5claw(complete_expansion(C6, (2, 1, 1, 1, 1, 1)))
    three_b = decompose_p6c5claw(parse_graph6("IzCKJmYz?"))
    assert all(three_b.B)
    forgeries = [(d, d.A[1:] + d.A[:1]), (d, d.A[::-1])]
    forgeries += [(c6, c6.A[r:] + c6.A[:r]) for r in range(1, 6)]
    forgeries += [(three_b, three_b.A[3:] + three_b.A[:3])]
    for dec, forged in forgeries:
        dec.validate()
        with pytest.raises(StructureViolation):
            dataclasses.replace(dec, A=forged).validate()


def test_forged_module_move_is_rejected():
    d = decompose_p5c4(complete_expansion(C5, (2, 2, 1, 1, 1)))
    (pod,) = d.pods
    big = pod.sizes.index(2)
    for dst in (big - 1, (big + 1) % 5):
        forged = dataclasses.replace(pod, modules=_moved(pod.modules, big, dst))
        with pytest.raises(StructureViolation):
            dataclasses.replace(d, pods=(forged,)).validate()
    d = decompose_p6c5claw(complete_expansion(C6, (2, 1, 1, 1, 1, 1)))
    big = [len(a) for a in d.A].index(2)
    for dst in (big - 1, (big + 1) % 6):
        with pytest.raises(StructureViolation):
            dataclasses.replace(d, A=_moved(d.A, big, dst)).validate()
