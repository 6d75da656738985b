import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indicated.errors import BadParam, BadVertexSet, MalformedGraph6, UnknownName
from indicated.graphs import (
    DegeneracyResult,
    ExpansionSpec,
    Graph,
    PartKind,
    bits,
    complement,
    complete_expansion,
    components,
    degeneracy,
    expand,
    independent_expansion,
    induced,
    join,
    make_named,
    parse_graph6,
    to_dot,
    union,
    write_graph6,
)

from builders import random_graph


def test_named_degree_sequences():
    assert make_named("Kite").degree_sequence() == (1, 2, 3, 3, 3)
    assert make_named("Bull").degree_sequence() == (1, 1, 2, 3, 3)
    assert make_named("Dart").degree_sequence() == (1, 2, 2, 3, 4)
    assert make_named("p5_bar").degree_sequence() == (2, 2, 2, 3, 3)
    assert make_named("claw").degree_sequence() == (1, 1, 1, 3)


def test_named_families():
    c5 = make_named("C", 5)
    assert c5.n == 5 and c5.num_edges == 5
    assert all(c5.degree(v) == 2 for v in range(5))
    assert make_named("P", 1).n == 1
    assert make_named("K", 4).num_edges == 6
    pet = make_named("Petersen")
    assert pet.n == 10 and pet.num_edges == 15
    assert all(pet.degree(v) == 3 for v in range(10))


def test_named_complements():
    assert make_named("P2uP3").num_edges == 3
    assert make_named("P2uP3_bar").num_edges == 7
    assert make_named("p5_bar").num_edges == 6


def test_named_errors():
    with pytest.raises(UnknownName):
        make_named("nosuchgraph")
    with pytest.raises(BadParam):
        make_named("C", 2)
    with pytest.raises(BadParam):
        make_named("P")


def test_graph_validation():
    with pytest.raises(BadParam):
        Graph(3, [(0, 0)])
    with pytest.raises(BadParam):
        Graph(2, [(0, 5)])
    g = Graph(3, [(0, 1), (0, 1)])
    assert g.num_edges == 1


def test_expand_unit_and_counts():
    c5 = make_named("C", 5)
    assert complete_expansion(c5, (1, 1, 1, 1, 1)) == c5
    g = independent_expansion(c5, (2, 1, 1, 1, 1))
    assert (g.n, g.num_edges) == (6, 7)
    g = complete_expansion(make_named("C", 6), (2, 2, 1, 1, 1, 1))
    assert (g.n, g.num_edges) == (8, 13)


def test_expand_edge_count_formula_exhaustive():
    """|E| = sum of C(m_i,2) over complete parts + m_i*m_j over base edges,
    for every base C4..C7 and every size/kind combination with m_i <= 3."""
    for base_n in range(4, 8):
        base = make_named("C", base_n)
        for sizes in itertools.product((1, 2, 3), repeat=base_n):
            for kind in (PartKind.COMPLETE, PartKind.INDEPENDENT):
                spec = ExpansionSpec(base, sizes, (kind,) * base_n)
                g = expand(spec)
                internal = sum(m * (m - 1) // 2 for m in sizes) \
                    if kind is PartKind.COMPLETE else 0
                cross = sum(sizes[i] * sizes[j] for i, j in base.edges())
                assert g.num_edges == internal + cross
                assert g.n == sum(sizes)


def test_expansion_spec_validation():
    base = make_named("C", 5)
    with pytest.raises(BadParam):
        ExpansionSpec(base, (1, 1, 1, 1), (PartKind.COMPLETE,) * 4)
    with pytest.raises(BadParam):
        ExpansionSpec(base, (1, 1, 0, 1, 1), (PartKind.COMPLETE,) * 5)


def test_part_vertices_layout():
    spec = ExpansionSpec(make_named("C", 5), (2, 1, 3, 1, 1),
                         (PartKind.COMPLETE,) * 5)
    parts = spec.part_vertices()
    assert parts[0] == (0, 1) and parts[2] == (3, 4, 5)
    assert sorted(v for p in parts for v in p) == list(range(8))


def test_join_union_complement_induced():
    c5 = make_named("C", 5)
    w5 = join(make_named("K", 1), c5)
    assert (w5.n, w5.num_edges) == (6, 10)
    u = union(c5, c5)
    assert (u.n, u.num_edges) == (10, 10)
    assert len(components(u)) == 2
    assert complement(make_named("P", 5)).num_edges == 6
    sub = induced(w5, [0, 1, 2])
    assert sub.n == 3
    with pytest.raises(BadVertexSet):
        induced(c5, [0, 9])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.randoms(use_true_random=False))
def test_complement_involution(n, rand):
    g = random_graph(rand, n)
    assert complement(complement(g)) == g


def test_degeneracy_examples():
    assert degeneracy(make_named("C", 5)).col == 3
    assert degeneracy(make_named("K", 4)).col == 4
    assert degeneracy(make_named("Petersen")).col == 4
    assert degeneracy(Graph(0)) == DegeneracyResult((), 0)
    assert degeneracy(Graph(3)).col == 1


def test_degeneracy_order_is_permutation(rng):
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 9))
        res = degeneracy(g)
        assert sorted(res.order) == list(range(g.n))
        if g.n:
            assert res.col >= 1 + min(g.degree(v) for v in range(g.n))


def test_chi_le_col(rng):
    from indicated.game import chi_exact

    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8))
        assert chi_exact(g) <= degeneracy(g).col


def test_graph6_examples():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert parse_graph6("@") == Graph(1)
    c5 = make_named("C", 5)
    assert parse_graph6(write_graph6(c5)) == c5
    assert parse_graph6(">>graph6<<A_") == Graph(2, [(0, 1)])


def test_graph6_roundtrip_corpus(connected_le7):
    for g in connected_le7:
        assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.randoms(use_true_random=False))
def test_graph6_roundtrip_random(n, rand):
    g = random_graph(rand, n)
    line = write_graph6(g)
    assert write_graph6(parse_graph6(line)) == line


def test_graph6_errors():
    with pytest.raises(MalformedGraph6):
        parse_graph6("")
    with pytest.raises(MalformedGraph6):
        parse_graph6("D?")          # truncated
    with pytest.raises(MalformedGraph6):
        parse_graph6("D?{{")        # trailing bytes
    with pytest.raises(MalformedGraph6):
        parse_graph6("~??")         # multi-byte size
    with pytest.raises(MalformedGraph6) as exc:
        parse_graph6("B" + chr(40))  # data byte below 63
    assert exc.value.offset == 1
    with pytest.raises(MalformedGraph6):
        parse_graph6("A~")           # nonzero padding
    with pytest.raises(MalformedGraph6) as exc:
        parse_graph6("Déc")          # non-ASCII, not the graph D?c
    assert exc.value.offset == 1
    # offsets count from the start of the line, header and blanks included
    for line, offset in ((">>graph6<<B(", 11), ("  B(", 3), ("  é\n", 2)):
        with pytest.raises(MalformedGraph6) as exc:
            parse_graph6(line)
        assert exc.value.offset == offset
        assert str(exc.value).endswith(f"(byte offset {offset})")


def test_graph_immutable_and_hashable():
    g = make_named("C", 5)
    with pytest.raises(AttributeError):
        g.n = 7
    assert len({g, make_named("C", 5)}) == 1


def test_graph_pickle_roundtrip(all_le6, connected_le7):
    """Graphs survive pickling, so a process pool can be handed graphs."""
    named = [make_named(f, n) for f in "PCKW" for n in range(3, 8)]
    named += [make_named(name) for name in ("Kite", "Bull", "Dart", "claw", "P5_bar",
                                            "P2uP3", "P2uP3_bar", "Petersen",
                                            "diamond", "paw")]
    for g in named + list(all_le6) + list(connected_le7) + [Graph(0)]:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(g, protocol))
            assert type(back) is Graph and back == g and back.adj == g.adj
    with pytest.raises(AttributeError):
        back.n = 3


def test_to_dot():
    text = to_dot(make_named("P", 3), coloring={0: 1})
    assert "0 -- 1" in text and "1 -- 2" in text and 'color="1"' in text


def test_complement_involution_large_sample(rng):
    for _ in range(1000):
        g = random_graph(rng, rng.randint(0, 8))
        assert complement(complement(g)) == g


def test_expand_edge_count_mixed_kinds(rng):
    for _ in range(200):
        base_n = rng.randint(4, 7)
        base = make_named("C", base_n)
        sizes = tuple(rng.randint(1, 3) for _ in range(base_n))
        kinds = tuple(rng.choice((PartKind.COMPLETE, PartKind.INDEPENDENT))
                      for _ in range(base_n))
        g = expand(ExpansionSpec(base, sizes, kinds))
        internal = sum(m * (m - 1) // 2
                       for m, k in zip(sizes, kinds) if k is PartKind.COMPLETE)
        cross = sum(sizes[i] * sizes[j] for i, j in base.edges())
        assert g.num_edges == internal + cross


def test_bits_matches_shift_loop(rng):
    def shift_loop(mask):
        out = []
        v = 0
        while mask:
            if mask & 1:
                out.append(v)
            mask >>= 1
            v += 1
        return out

    masks = [0] + [1 << i for i in range(130)]
    masks += [rng.getrandbits(w) for w in (8, 14, 63, 64, 65, 200) for _ in range(50)]
    masks += [(1 << 64) - 1, (1 << 64) | 1, (1 << 200) - 1]
    for mask in masks:
        assert bits(mask) == shift_loop(mask)
