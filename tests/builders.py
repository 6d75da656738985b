"""Deterministic random-instance builders used by structure and acceptance
tests: graphs assembled block-by-block in the characterization shapes,
plus plain random graphs."""

from indicated.graphs import Graph, complete_expansion, is_connected, make_named


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def relabelled(rng, g):
    """g with its vertices randomly permuted."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_connected_graph(rng, n, p=0.5):
    while True:
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g


def _random_bipartite_edges(vertices, rng, p=0.6):
    out = []
    if len(vertices) >= 2:
        side = {v: rng.randint(0, 1) for v in vertices}
        for i, u in enumerate(vertices):
            for v in vertices[i + 1:]:
                if side[u] != side[v] and rng.random() < p:
                    out.append((u, v))
    return out


def build_layered_c5_instance(rng, max_block=3, max_n=16):
    """One random instance of the layered shape around an induced C5:
    an independent expansion core A_0..A_4, an optional hub set B joined to
    the core, optional second-layer blocks, and an optional third layer
    reached through S (its first vertex sees all of the third layer).

    Returns the Graph, or None when the draw is oversized or disconnected.
    The caller still has to run the forbidden-subgraph check: random
    second/third-layer wiring can fall out of the class, so instances are
    filtered by rejection.
    """
    a = [rng.randint(1, max_block) for _ in range(5)]
    pure = rng.random() < 0.25
    b = 0 if pure else rng.randint(1, max_block)
    n2rest_sizes, v3_sizes, s = [], [], 0
    if not pure:
        for _ in range(rng.randint(0, 2)):
            n2rest_sizes.append(rng.randint(1, max_block))
        s = rng.randint(0, 2)
        if s:
            for _ in range(rng.randint(1, 2)):
                v3_sizes.append(rng.randint(1, max_block))
    ids, nid = {}, 0

    def take(tag, count):
        nonlocal nid
        ids[tag] = list(range(nid, nid + count))
        nid += count

    for i in range(5):
        take(f"A{i}", a[i])
    take("R", sum(n2rest_sizes))
    take("B", b)
    take("S", s)
    take("V3", sum(v3_sizes))
    if nid > max_n:
        return None
    edges = []
    for i in range(5):
        edges += [(u, v) for u in ids[f"A{i}"] for v in ids[f"A{(i + 1) % 5}"]]
    first_block = [v for i in range(5) for v in ids[f"A{i}"]] + ids["R"]
    edges += [(u, v) for u in first_block for v in ids["B"]]
    edges += [(u, v) for u in ids["B"] for v in ids["S"]]
    pos = 0
    for size in n2rest_sizes:
        edges += _random_bipartite_edges(ids["R"][pos:pos + size], rng)
        pos += size
    pos = 0
    for size in v3_sizes:
        edges += _random_bipartite_edges(ids["V3"][pos:pos + size], rng)
        pos += size
    if s:
        edges += [(ids["S"][0], v) for v in ids["V3"]]
        for x in ids["S"][1:]:
            if rng.random() < 0.7:
                edges += [(x, v) for v in ids["V3"]]
            else:
                targets = [v for v in ids["V3"] if rng.random() < 0.5]
                edges += [(x, v) for v in (targets or [ids["V3"][0]])]
    g = Graph(nid, edges)
    return g if is_connected(g) else None


def build_c6_form_instance(rng, max_block=2, pure_bias=0.3):
    """One instance of the C6 shape: six cliques A_0..A_5 expanded around
    the cycle plus three cliques B_0..B_2, B_j joined to every A_i with
    i % 3 != j.  The structure is fully determined by the nine sizes, so
    randomization is just a seeded size draw.

    Returns (graph, a_sizes, b_sizes)."""
    a = [rng.randint(1, max_block) for _ in range(6)]
    if rng.random() < pure_bias:
        b = [0, 0, 0]
    else:
        b = [rng.randint(0, max_block) for _ in range(3)]
    ids, nid = {}, 0
    for i in range(6):
        ids[f"A{i}"] = list(range(nid, nid + a[i]))
        nid += a[i]
    for j in range(3):
        ids[f"B{j}"] = list(range(nid, nid + b[j]))
        nid += b[j]
    edges = []
    for vs in ids.values():
        edges += [(vs[x], vs[y]) for x in range(len(vs)) for y in range(x + 1, len(vs))]
    for i in range(6):
        edges += [(u, v) for u in ids[f"A{i}"] for v in ids[f"A{(i + 1) % 6}"]]
        for j in range(3):
            if i % 3 != j:
                edges += [(u, v) for u in ids[f"A{i}"] for v in ids[f"B{j}"]]
    return Graph(nid, edges), tuple(a), tuple(b)


def build_split_c5_instance(rng, max_clique=2, max_ind=2):
    """An expansion of C5 into split modules: per module a clique part of
    size 1..max_clique and an independent part of size 0..max_ind, each
    independent vertex attached to a proper subset of its clique part."""
    cl = [rng.randint(1, max_clique) for _ in range(5)]
    ind = [rng.randint(0, max_ind) for _ in range(5)]
    ids, nid = {}, 0
    for i in range(5):
        ids[f"C{i}"] = list(range(nid, nid + cl[i]))
        nid += cl[i]
        ids[f"U{i}"] = list(range(nid, nid + ind[i]))
        nid += ind[i]
    edges = []
    for i in range(5):
        cs = ids[f"C{i}"]
        edges += [(cs[x], cs[y]) for x in range(len(cs)) for y in range(x + 1, len(cs))]
        for u in ids[f"U{i}"]:
            # proper subset keeps the clique part a maximum clique
            subset = [v for v in cs if rng.random() < 0.5]
            if len(subset) == len(cs):
                subset = subset[:-1]
            edges += [(u, v) for v in subset]
        mod_i = ids[f"C{i}"] + ids[f"U{i}"]
        mod_next = ids[f"C{(i + 1) % 5}"] + ids[f"U{(i + 1) % 5}"]
        edges += [(u, v) for u in mod_i for v in mod_next]
    return Graph(nid, edges)


def build_p5c4_instance(rng, max_chordal=6, max_module=3):
    """A chordal part grown one vertex at a time, each new vertex joined to
    part of a recorded clique, plus one to three complete C5 expansions
    (module sizes 1..max_module), each fully joined to part of a recorded
    clique.  Chordal wiring can hold an induced P5, so instances may fall
    out of the {P5,C4}-free class."""
    cliques = [[0]]
    edges = []
    nid = 1

    def part_of(clique):
        return [u for u in clique if rng.random() < 0.7] or [rng.choice(clique)]

    for _ in range(rng.randint(0, max_chordal - 1)):
        nbrs = part_of(rng.choice(cliques))
        edges += [(u, nid) for u in nbrs]
        cliques.append(nbrs + [nid])
        nid += 1
    for _ in range(rng.randint(1, 3)):
        nbhd = part_of(rng.choice(cliques))
        pod = complete_expansion(make_named("C", 5),
                                 [rng.randint(1, max_module) for _ in range(5)])
        edges += [(u + nid, v + nid) for u, v in pod.edges()]
        edges += [(u, v + nid) for u in nbhd for v in range(pod.n)]
        nid += pod.n
    return Graph(nid, edges)
