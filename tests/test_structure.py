import collections
import itertools

import pytest

from indicated.detect import is_family_free
from indicated.errors import (
    BadParam,
    BoundViolated,
    Disconnected,
    NoInducedC5,
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
    join,
    make_named,
    union,
)
from indicated.strategies import PhasedStrategy, StaticPhase, strat_cycle_expansion
from indicated.structure import (
    ExpansionStructure,
    _canonical_rotation,
    _cycle_order,
    _induced_cycles,
    _kind_label,
    chi_formula_kc5,
    chi_p5k4kitebull,
    decompose_p5c4,
    decompose_p5k4kitebull,
    decompose_p6c5claw,
    dihedral_orders,
    family_p5k4kitebull,
    family_p6c5claw,
    recognize_expansion,
    sumner_classify,
)

from builders import (
    build_c6_form_instance,
    build_layered_c5_instance,
    build_split_c5_instance,
    random_graph,
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
    """The cycle search as it was before mask narrowing: each extension is
    checked against every path vertex bit by bit."""
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


def test_induced_cycles_match_per_bit_search(rng):
    found = dict.fromkeys(range(3, 9), 0)
    graphs = [random_graph(rng, rng.randint(0, 10), p=rng.choice((0.2, 0.35, 0.5, 0.7)))
              for _ in range(300)]
    graphs += [C5, C6, make_named("Petersen"), complete_expansion(C5, (2, 1, 2, 1, 1)),
               independent_expansion(make_named("C", 7), (2, 1, 1, 2, 1, 1, 1)),
               independent_expansion(make_named("C", 8), (1, 2, 1, 1, 1, 1, 2, 1))]
    for g in graphs:
        for n in range(3, 9):
            cycles = _induced_cycles(g, n)
            assert cycles == _per_bit_induced_cycles(g, n), (g.edges(), n)
            found[n] += len(cycles)
    assert min(found.values()) >= 4, found


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

    for seed in _induced_cycles(g, n):
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
    return PhasedStrategy("cycle-expansion", [StaticPhase(reps), StaticPhase(rest)])


def _relabelled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


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
        graphs.append(_relabelled(rng, build(make_named("C", n),
                                             [rng.randint(1, 3) for _ in range(n)])))
    for _ in range(60):
        n = rng.randint(5, 8)
        spec = ExpansionSpec(make_named("C", n), tuple(rng.randint(1, 3) for _ in range(n)),
                             tuple(rng.choice(list(PartKind)) for _ in range(n)))
        graphs.append(_relabelled(rng, expand(spec)))
    graphs += [_relabelled(rng, build_split_c5_instance(rng)) for _ in range(40)]
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
            old = [p.vertices for p in _seeded_strat_cycle_expansion(g, 3).phases]
        except (BadParam, NotApplicable) as exc:
            old = NotApplicable if g.n >= 9 else type(exc)
        try:
            new = [p.vertices for p in strat_cycle_expansion(g, 3).phases]
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
    from indicated.errors import NoInducedC6

    with pytest.raises(NoInducedC6):
        decompose_p6c5claw(make_named("K", 4))


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
