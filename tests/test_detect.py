from itertools import permutations

import pytest

import indicated.detect as detect
from indicated.detect import (
    MAX_PATTERN,
    _plan,
    brute_force_induced,
    find_induced,
    find_induced_cycle,
    is_bipartite,
    is_chordal,
    is_family_free,
    is_split,
)
from indicated.errors import PatternTooLarge
from indicated.game import omega_exact
from indicated.graphs import (
    Graph,
    complete_expansion,
    independent_expansion,
    join,
    make_named,
)
from indicated.structure import (
    family_figure1,
    family_p5c4,
    family_p5k4kitebull,
    family_p6c5_house_claw,
    family_p6c5claw,
    family_split_c5,
    family_sumner,
)

from builders import build_layered_c5_instance, random_graph, relabelled

FAMILY_PATTERNS = (family_p5k4kitebull() + family_p6c5claw() + family_p6c5_house_claw()
                   + family_p5c4() + family_sumner() + family_split_c5()
                   + family_figure1())


def _twin_rich_hosts(rng, count, max_n):
    """Complete and independent expansions of random graphs on at most 6
    vertices, modules of 1-3 vertices, ids shuffled, n <= max_n."""
    hosts = []
    while len(hosts) < count:
        base = random_graph(rng, rng.randint(1, 6), p=rng.choice((0.3, 0.5, 0.7)))
        sizes = [rng.randint(1, 3) for _ in range(base.n)]
        if sum(sizes) > max_n:
            continue
        expand = rng.choice((complete_expansion, independent_expansion))
        hosts.append(relabelled(rng, expand(base, sizes)))
    return hosts


def test_find_induced_examples():
    c5 = make_named("C", 5)
    assert find_induced(c5, make_named("P", 4)) is not None
    assert find_induced(make_named("K", 4), make_named("claw")) is None
    emb = find_induced(make_named("Petersen"), c5)
    assert emb is not None and emb.verify()


def test_find_induced_is_lexicographically_least():
    host = make_named("C", 6)
    emb = find_induced(host, make_named("P", 3))
    assert emb.map == (0, 1, 2)
    # repeated runs are identical
    assert find_induced(host, make_named("P", 3)).map == emb.map


def test_find_induced_pattern_too_large():
    with pytest.raises(PatternTooLarge):
        find_induced(Graph(12), Graph(11))


def test_family_free_examples():
    ok, _ = is_family_free(independent_expansion(make_named("C", 5), (2, 2, 1, 1, 1)),
                           [make_named("P", 5), make_named("K", 3)])
    assert ok
    w5 = join(make_named("K", 1), make_named("C", 5))
    ok, _ = is_family_free(w5, family_p5k4kitebull())
    assert ok
    ok, witness = is_family_free(make_named("P", 6), [make_named("P", 5)])
    assert not ok and witness.verify()


def test_find_induced_cycle_examples():
    g = complete_expansion(make_named("C", 5), (2, 1, 1, 1, 1))
    cyc = find_induced_cycle(g, 5)
    assert cyc is not None and len(cyc) == 5
    for i in range(5):
        assert g.has_edge(cyc[i], cyc[(i + 1) % 5])
    assert find_induced_cycle(make_named("K", 4), 4) is None
    assert find_induced_cycle(make_named("C", 6), 6) == [0, 1, 2, 3, 4, 5]


def test_detectors_share_the_host_tables(monkeypatch):
    """A family scan, a cycle search and a plain pattern search on one host
    find its twin classes once: the host's tables are built once per graph."""
    twins, calls = detect.twin_classes, []
    detect._host_tables.cache_clear()
    monkeypatch.setattr(detect, "twin_classes", lambda g: calls.append(g) or twins(g))
    g = complete_expansion(make_named("C", 6), (2, 1, 2, 1, 1, 1))
    assert is_family_free(g, family_p5k4kitebull())[0] is False
    assert find_induced_cycle(g, 5) is None
    assert find_induced(g, make_named("C", 6)) is not None
    assert calls == [g]


def test_bipartite_certificates():
    sides = is_bipartite(make_named("C", 6))
    assert sides is not None and sorted(len(s) for s in sides) == [3, 3]
    assert is_bipartite(make_named("C", 5)) is None
    assert is_bipartite(Graph(0)) == ([], [])


def test_chordal_certificates():
    assert is_chordal(make_named("C", 5)) is None
    k3_pendant = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert is_chordal(k3_pendant) is not None
    assert is_chordal(Graph(0)) == ()
    assert is_chordal(make_named("K", 5)) is not None


def test_chordal_greedy_coloring_uses_omega(rng):
    """Coloring greedily along the reverse elimination order hits the clique
    number exactly."""
    from builders import random_connected_graph

    checked = 0
    while checked < 40:
        g = random_connected_graph(rng, rng.randint(2, 8), p=0.45)
        peo = is_chordal(g)
        if peo is None:
            continue
        colors = {}
        for v in reversed(peo):
            taken = {colors[u] for u in g.neighbors(v) if u in colors}
            c = 1
            while c in taken:
                c += 1
            colors[v] = c
        assert max(colors.values()) == omega_exact(g)
        checked += 1


def test_split_certificates():
    k3_pendant = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    cert = is_split(k3_pendant)
    assert cert is not None
    clique, indep = cert
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            assert k3_pendant.has_edge(u, v)
    for i, u in enumerate(indep):
        for v in indep[i + 1:]:
            assert not k3_pendant.has_edge(u, v)
    assert is_split(make_named("C", 4)) is None
    assert is_split(make_named("C", 5)) is None
    assert is_split(make_named("P", 4)) is not None
    assert is_split(Graph(0)) == ([], [])


def test_split_clique_side_is_maximum(rng):
    """The certificate's clique side has clique-number size, and no
    independent-side vertex sees all of it."""
    from itertools import combinations

    checked = 0
    while checked < 60:
        g = random_graph(rng, rng.randint(1, 7))
        cert = is_split(g)
        if cert is None:
            continue
        clique, indep = cert
        assert len(clique) in (omega_exact(g), omega_exact(g) - 1)
        cmask = 0
        for v in clique:
            cmask |= 1 << v
        for v in indep:
            assert g.adj[v] & cmask != cmask
        # no split partition has a bigger clique side
        for size in range(len(clique) + 1, g.n + 1):
            for cand in combinations(range(g.n), size):
                cm = sum(1 << v for v in cand)
                if any((g.adj[v] & cm).bit_count() != size - 1 for v in cand):
                    continue
                rest = [v for v in range(g.n) if not (cm >> v) & 1]
                rm = sum(1 << v for v in rest)
                assert any(g.adj[v] & rm for v in rest)
        checked += 1


def _is_split_partition(g, clique):
    cmask = sum(1 << v for v in clique)
    rmask = g.full_mask() & ~cmask
    return all((g.adj[v] & cmask).bit_count() == len(clique) - 1 for v in clique) and \
        all(g.adj[v] & rmask == 0 for v in range(g.n) if rmask >> v & 1)


def test_split_certificate_matches_brute_force(all_le6, connected_le7):
    """The degree-sum identity holds exactly when some clique side splits
    the graph, and then the certificate is a split partition."""
    from itertools import combinations

    split = 0
    for g in all_le6 + connected_le7:
        cert = is_split(g)
        exists = any(_is_split_partition(g, cl) for size in range(g.n + 1)
                     for cl in combinations(range(g.n), size))
        assert (cert is not None) == exists, g.edges()
        if cert is not None:
            clique, indep = cert
            assert sorted(clique + indep) == list(range(g.n)), g.edges()
            assert _is_split_partition(g, clique), g.edges()
            split += 1
    assert split >= 250, split


def test_detector_agrees_with_brute_force(rng):
    patterns = family_figure1() + [make_named("P", 5), make_named("C", 5),
                                   make_named("claw")]
    for _ in range(120):
        host = random_graph(rng, rng.randint(1, 8), p=rng.choice((0.3, 0.5, 0.7)))
        for pat in patterns:
            assert (find_induced(host, pat) is not None) == \
                brute_force_induced(host, pat)


def test_find_induced_witness_is_lex_minimum(rng):
    """The returned embedding is the lexicographic minimum over all induced
    embeddings (brute-force enumerated), on random and twin-rich hosts."""
    patterns = [make_named("P", 3), make_named("P", 4), make_named("C", 4),
                make_named("claw"), make_named("Bull")]
    hosts = [random_graph(rng, rng.randint(3, 7)) for _ in range(40)]
    for host in hosts + _twin_rich_hosts(rng, 40, 7):
        for pat in patterns:
            best = None
            for image in permutations(range(host.n), pat.n):
                if all(pat.has_edge(a, b) == host.has_edge(image[a], image[b])
                       for a in range(pat.n) for b in range(a + 1, pat.n)):
                    if best is None or image < best:
                        best = image
            emb = find_induced(host, pat)
            assert (emb.map if emb else None) == best


def _per_bit_search(host, pattern):
    """Reference: the original search, which tests each candidate against
    every placed pattern vertex bit by bit.  Returns the map or None."""
    p, h = pattern, host
    if p.n > h.n:
        return None
    if p.n == 0:
        return ()
    pdeg = [p.degree(v) for v in range(p.n)]
    cands = [[v for v in range(h.n) if h.degree(v) >= pdeg[u]] for u in range(p.n)]
    image = [0] * p.n
    used = 0

    def place(u):
        nonlocal used
        prow = p.adj[u]
        for v in cands[u]:
            bit = 1 << v
            if used & bit:
                continue
            ok = True
            for w in range(u):
                if bool(prow & (1 << w)) != bool(h.adj[v] & (1 << image[w])):
                    ok = False
                    break
            if not ok:
                continue
            image[u] = v
            if u + 1 == p.n:
                return True
            used |= bit
            if place(u + 1):
                return True
            used &= ~bit
        return False

    if place(0):
        return tuple(image)
    return None


def test_find_induced_witness_matches_per_bit_search(rng):
    """The domain search returns the very map of the per-bit search."""
    patterns = list(FAMILY_PATTERNS) + [Graph(0)]
    for n in range(11):
        larger = [Graph(n + 1)] if n < MAX_PATTERN else []
        for _ in range(12):
            host = random_graph(rng, n, p=rng.choice((0.3, 0.5, 0.7)))
            for pat in patterns + larger:
                emb = find_induced(host, pat)
                assert (emb.map if emb else None) == _per_bit_search(host, pat)
    petersen = make_named("Petersen")
    emb = find_induced(petersen, petersen)
    assert emb.map == _per_bit_search(petersen, petersen) == tuple(range(10))


def _orbits(pattern):
    """u's orbit under the automorphisms fixing 0..u-1, for each u, from
    every automorphism (brute force over permutations)."""
    k = pattern.n
    autos = [s for s in permutations(range(k))
             if all(pattern.adj[s[v]] == sum(1 << s[w] for w in pattern.neighbors(v))
                    for v in range(k))]
    return [{s[u] for s in autos if s[:u] == tuple(range(u))} for u in range(k)]


def _plan_orbits(pattern):
    """The orbit the search plan flags for each u, u included."""
    return [{u} | {x for x, _, orbit in row if orbit}
            for u, row in enumerate(_plan(pattern.adj))]


def test_plan_orbits_match_brute_force():
    """Each plan flags exactly u's orbit under the automorphisms fixing
    0..u-1: a flag on a non-orbit vertex would cut the least witness."""
    patterns = (list(FAMILY_PATTERNS) + [make_named("C", n) for n in range(3, 9)]
                + [make_named("P", n) for n in range(1, 8)] + [Graph(n) for n in range(8)])
    for pat in patterns:
        assert _plan_orbits(pat) == _orbits(pat), pat.edges()
    sizes = [len(orbit) for orbit in _plan_orbits(make_named("Petersen"))]
    assert sizes == [10, 3, 2, 2, 1, 1, 1, 1, 1, 1]
    for pat in make_named("K", 10), Graph(10):
        assert [len(orbit) for orbit in _plan_orbits(pat)] == list(range(10, 0, -1))


def test_find_induced_witness_on_twin_rich_hosts(rng):
    """Hosts full of twins, where the twin rule prunes most, still give the
    map of the per-bit search for every family pattern: an elder mask that
    took in a non-twin would skip the least witness."""
    hosts = _twin_rich_hosts(rng, 80, 12)
    layered = 0
    while layered < 20:
        g = build_layered_c5_instance(rng, max_n=12)
        if g is not None:
            hosts.append(g)
            layered += 1
    for host in hosts:
        witnesses = [find_induced(host, pat) for pat in FAMILY_PATTERNS]
        for pat, emb in zip(FAMILY_PATTERNS, witnesses):
            assert (emb.map if emb else None) == _per_bit_search(host, pat), \
                (host.edges(), pat.edges())
        first = next((e for e in witnesses if e is not None), None)
        assert is_family_free(host, FAMILY_PATTERNS) == (first is None, first)
