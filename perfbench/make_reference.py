"""Regenerate ``data/<workload>.json``: the input pools and the reference
answers and solver counts of the code in ``src/``.

Run from the repository root, on the code whose answers are the reference:

    python3 perfbench/make_reference.py [workload ...]

The pools are drawn from fixed seeds, so rerunning it on unchanged code
rewrites identical files.  It takes about two minutes on one core, mostly
the full strategy-certify grid.
"""

import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from indicated import game, graphs  # noqa: E402
from indicated.structure import chi_formula_kc5  # noqa: E402

from spans import SolverCounts, counting_solvers  # noqa: E402
from workloads import CORPUS, DATA, WORKLOADS, max_degree, plain_api  # noqa: E402


def expansion(kind, sizes, **fields):
    return dict(fields, kind=kind, sizes=list(sizes))


def tuple_id(sizes):
    return ",".join(map(str, sizes))


def random_edges(rng, vertices, p):
    return [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]
            if rng.random() < p]


def random_graph(rng, n, p):
    return graphs.Graph(n, random_edges(rng, list(range(n)), p))


def bipartite_edges(rng, vertices, p=0.6):
    side = {v: rng.randint(0, 1) for v in vertices}
    return [(u, v) for u, v in random_edges(rng, vertices, p) if side[u] != side[v]]


def layered_c5(rng, max_block=3, max_n=16):
    """The layered shape of criterion 08 around an induced C5: an independent
    expansion A_0..A_4, an optional hub set B joined to the first layer,
    optional bipartite second-layer blocks, and a third layer reached
    through S.  None when the draw is oversized or disconnected.  Random
    wiring can leave the class, which the decomposition then reports."""
    a = [rng.randint(1, max_block) for _ in range(5)]
    pure = rng.random() < 0.25
    b = 0 if pure else rng.randint(1, max_block)
    rest = [] if pure else [rng.randint(1, max_block) for _ in range(rng.randint(0, 2))]
    s = 0 if pure else rng.randint(0, 2)
    third = [rng.randint(1, max_block) for _ in range(rng.randint(1, 2))] if s else []
    sizes = a + [sum(rest), b, s, sum(third)]
    if sum(sizes) > max_n:
        return None
    blocks, start = [], 0
    for size in sizes:
        blocks.append(list(range(start, start + size)))
        start += size
    cyc, r_block, b_block, s_block, v3 = blocks[:5], blocks[5], blocks[6], blocks[7], blocks[8]
    edges = [(u, v) for i in range(5) for u in cyc[i] for v in cyc[(i + 1) % 5]]
    first = [v for block in cyc for v in block] + r_block
    edges += [(u, v) for u in first for v in b_block]
    edges += [(u, v) for u in b_block for v in s_block]
    for part_sizes, vertices in ((rest, r_block), (third, v3)):
        pos = 0
        for size in part_sizes:
            edges += bipartite_edges(rng, vertices[pos:pos + size])
            pos += size
    if s:
        edges += [(s_block[0], v) for v in v3]
        for x in s_block[1:]:
            targets = v3 if rng.random() < 0.7 else [v for v in v3 if rng.random() < 0.5]
            edges += [(x, v) for v in (targets or v3[:1])]
    g = graphs.Graph(start, edges)
    return g if graphs.is_connected(g) else None


def c6_form(rng, max_block=2, pure_bias=0.3):
    """The C6 shape of criterion 09: cliques A_0..A_5 around the cycle and
    cliques B_0..B_2, B_j joined to every A_i with i % 3 != j."""
    a = [rng.randint(1, max_block) for _ in range(6)]
    b = [0, 0, 0] if rng.random() < pure_bias else [rng.randint(0, max_block) for _ in range(3)]
    blocks, start = [], 0
    for size in a + b:
        blocks.append(list(range(start, start + size)))
        start += size
    edges = [(u, v) for block in blocks for i, u in enumerate(block) for v in block[i + 1:]]
    for i in range(6):
        edges += [(u, v) for u in blocks[i] for v in blocks[(i + 1) % 6]]
        for j in range(3):
            if i % 3 != j:
                edges += [(u, v) for u in blocks[i] for v in blocks[6 + j]]
    return graphs.Graph(start, edges)


def pool_deep_solve():
    pool = [expansion("independent", [2] * 7, id="IC7:2,2,2,2,2,2,2", kmax=6)]
    g = graphs.complete_expansion(graphs.make_named("C", 5), [3, 3, 2, 2, 2])
    pool.append(expansion("complete", [3, 3, 2, 2, 2], id="KC5:3,3,2,2,2",
                          kmax=min(g.n, max_degree(g) + 1)))
    rng = random.Random(0xDEE9)
    for n, p in ((12, 0.6), (13, 0.7)):
        for i in range(32):
            g = random_graph(rng, n, p)
            pool.append({"id": f"random{n}-{i:02d}", "n": n,
                         "graph6": graphs.write_graph6(g),
                         "kmax": min(n, max_degree(g) + 1)})
    return pool


def pool_strategy_certify():
    pool = []

    def add(grid, kind, sizes, k, strategy):
        pool.append(expansion(kind, sizes, id=f"{grid}:{kind[0]}c{len(sizes)}:"
                              f"{tuple_id(sizes)}@{k}", grid=grid, k=k,
                              strategy=strategy))

    for m in itertools.product((1, 2), repeat=5):
        chi = chi_formula_kc5(m)
        for k in range(chi, min(chi + 2, 8) + 1):
            add("03", "complete", m, k, "strat_kc5")
    for m in itertools.product((1, 2, 3), repeat=5):
        add("03", "complete", m, chi_formula_kc5(m), "strat_kc5")
    for m in itertools.product((1, 2), repeat=6):
        omega = max(m[i] + m[(i + 1) % 6] for i in range(6))
        for k in (omega, omega + 1, omega + 2):
            add("04", "complete", m, k, "strat_kc6")
    for n in (4, 5, 6, 7):
        chi = 2 if n % 2 == 0 else 3
        for m in itertools.product((1, 2), repeat=n):
            for k in range(chi, min(chi + 3, 6) + 1):
                add("05", "independent", m, k, "strat_cycle_expansion")
    return pool


def pool_classify():
    pool = []
    rng = random.Random(0xC1A5)
    while sum(e["pool"] == "layered-c5" for e in pool) < 120:
        g = layered_c5(rng)
        if g is not None:
            pool.append({"id": f"layered-c5-{len(pool):03d}", "pool": "layered-c5",
                         "graph6": graphs.write_graph6(g)})
    for i in range(60):
        pool.append({"id": f"c6-form-{i:03d}", "pool": "c6-form",
                     "graph6": graphs.write_graph6(c6_form(rng))})
    for i in range(100):
        n = rng.randint(8, 16)
        g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
        pool.append({"id": f"random-{i:03d}", "pool": "random",
                     "graph6": graphs.write_graph6(g)})
    for m in itertools.product((1, 2, 3), repeat=5):
        pool.append(expansion("complete", m, id=f"KC5:{tuple_id(m)}", pool="kc5"))
    for n in (4, 5, 6, 7):
        for m in itertools.product((1, 2), repeat=n):
            pool.append(expansion("independent", m, id=f"IC{n}:{tuple_id(m)}", pool="ic"))
    return pool


POOLS = {
    "deep-solve": pool_deep_solve,
    "strategy-certify": pool_strategy_certify,
    "classify": pool_classify,
}


def reference(name):
    workload = WORKLOADS[name]
    api = plain_api()
    workload.prepare(api)
    if name == "corpus-sandwich":
        lines = (ROOT / CORPUS).read_text().split()
        pool = [{"id": line} for line in lines]
    else:
        pool = POOLS[name]()
    if name == "classify":
        for entry in pool:
            g = workload.make_item(api, entry).graph
            entry.update(n=g.n, m=g.num_edges)
    sink = [None]
    with counting_solvers(game, lambda: sink[0]):
        for entry in pool:
            sink[0] = SolverCounts()
            item = workload.make_item(api, entry)
            result = workload.run(api, item)
            entry["answer"] = workload.answer(item, result)
            problem = workload.check(item, result)
            if problem:
                raise SystemExit(f"independent check failed: {problem}")
            entry["counts"] = sink[0].triple()
            if name == "deep-solve":
                entry["counts_per_k"] = sink[0].each
    path = DATA / f"{name}.json"
    with open(path, "w") as fh:
        json.dump({"workload": name, "items": pool}, fh, separators=(",", ":"),
                  sort_keys=True)
        fh.write("\n")
    print(f"{path.relative_to(ROOT)}: {len(pool)} entries")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        reference(name)
