"""The four benchmark workloads.

A workload turns the workload seed into its input set (the items of one
pass), runs one item through the public API of ``indicated`` and judges the
result: the answer must equal the seed code's answer stored in
``data/<workload>.json``, and an independent check must hold as well.

Items reach the package only through an ``Api`` namespace.  The untraced
namespace holds the package functions themselves; the traced one wraps each
in a span named after its layer (see ``spans.py``).
"""

import json
import random
from pathlib import Path
from types import SimpleNamespace

from indicated import detect, game, graphs, reports, strategies, structure
from indicated.errors import GraphGameError

DATA = Path(__file__).resolve().parent / "data"
CORPUS = Path("tests") / "data" / "connected_le7.g6"

# layer -> the public functions items call in it
LAYERS = {
    "graphs.parse_graph6": [graphs.parse_graph6],
    "graphs.build": [graphs.make_named, graphs.complete_expansion,
                     graphs.independent_expansion],
    "game.oracles": [game.omega_exact, game.chi_exact],
    "game.solver": [game.chi_i],
    "game.match": [game.play_match],
    "game.match.ben_build": [game.OptimalBen],
    "strategies.build": [strategies.strat_kc5, strategies.strat_kc6,
                         strategies.strat_cycle_expansion],
    "detect.is_family_free": [detect.is_family_free],
    "detect.find_induced": [detect.find_induced],
    "detect.certificates": [detect.is_bipartite, detect.is_chordal, detect.is_split],
    "structure.decompose": [structure.decompose_p5k4kitebull,
                            structure.decompose_p6c5claw],
    "structure.recognize_expansion": [structure.recognize_expansion],
    "reports.serialize": [reports.make_report, reports.serialize_report],
}


def plain_api():
    api = {fn.__name__: fn for fns in LAYERS.values() for fn in fns}
    return SimpleNamespace(strategy=lambda s: s, ben=lambda b: b, **api)


def traced_api(tracer):
    from spans import BenProxy, StrategyProxy

    api = {fn.__name__: tracer.wrap(layer, fn)
           for layer, fns in LAYERS.items() for fn in fns}
    return SimpleNamespace(strategy=lambda s: StrategyProxy(tracer, s),
                           ben=lambda b: BenProxy(tracer, b), **api)


def load_data(name):
    with open(DATA / f"{name}.json") as fh:
        return json.load(fh)


def stratified(rng, entries, key):
    """One seeded pick from each stratum of entries, strata in key order."""
    strata = {}
    for entry in entries:
        strata.setdefault(key(entry), []).append(entry)
    return [rng.choice(strata[k]) for k in sorted(strata)]


def by_cost(rng, entries, cost, picks):
    """One seeded pick from each of `picks` equal-count bins of entries
    ranked by cost, so every seed gets the same spread of cheap and costly
    items."""
    ranked = sorted(entries, key=lambda e: (cost(e), e["id"]))
    n = len(ranked)
    return [rng.choice(ranked[b * n // picks:(b + 1) * n // picks]) for b in range(picks)]


def build_graph(api, spec):
    """Graph of a data entry: a graph6 line or an expansion of a cycle."""
    if "graph6" in spec:
        return api.parse_graph6(spec["graph6"])
    builder = (api.complete_expansion if spec["kind"] == "complete"
               else api.independent_expansion)
    return builder(api.make_named("C", len(spec["sizes"])), spec["sizes"])


def max_degree(g):
    return max((g.degree(v) for v in range(g.n)), default=0)


class Item(SimpleNamespace):
    """One unit of work: ``id``, its inputs, and ``ref``, the stored entry
    with the seed code's ``answer`` and solver ``counts``."""


class Workload:
    """An input pool, a seeded selection from it, and the work per item.

    Pool entries are dicts with an ``id``, the inputs, and the stored
    ``answer`` and ``counts`` (nodes, memo entries, memo hits) of the seed
    code.
    """

    name = ""

    def entries(self, root):
        """The whole input pool with its reference data."""
        return load_data(self.name)["items"]

    def select(self, entries, rng):
        """The seeded input set of one pass, in pass order."""
        raise NotImplementedError

    def prepare(self, api):
        """Constant inputs built once at set-up."""

    def make_item(self, api, entry):
        raise NotImplementedError

    def items(self, root, seed, api):
        self.prepare(api)
        chosen = self.select(self.entries(root), random.Random(seed))
        return [self.make_item(api, e) for e in chosen]

    def run(self, api, item):
        """The timed work of one item; returns what ``judge`` needs."""
        raise NotImplementedError

    def answer(self, item, result):
        """The JSON form of the answer compared with the stored one."""
        raise NotImplementedError

    def check(self, item, result):
        """Independent check of a result; returns a problem or None."""
        return None

    def finish_pass(self, api, results):
        """Timed work done once per pass over all item results."""

    def judge(self, item, result):
        """None if the result is right, else a description of what is wrong."""
        if "answer" not in item.ref:
            return f"{item.id}: no reference answer"
        got = self.answer(item, result)
        if got != item.ref["answer"]:
            return f"{item.id}: answer {got!r} != reference {item.ref['answer']!r}"
        return self.check(item, result)


class CorpusSandwich(Workload):
    """The ``check <corpus> sandwich`` record path over the vendored corpus."""

    name = "corpus-sandwich"

    def entries(self, root):
        refs = {e["id"]: e for e in load_data(self.name)["items"]}
        lines = (root / CORPUS).read_text().split()
        return [dict(refs.get(line, {}), id=line) for line in lines]

    def select(self, entries, rng):
        rng.shuffle(entries)
        return entries

    def make_item(self, api, entry):
        return Item(id=entry["id"], line=entry["id"], ref=entry)

    def run(self, api, item):
        g = api.parse_graph6(item.line)
        omega = api.omega_exact(g)
        chi = api.chi_exact(g)
        dmax = max_degree(g)
        res = api.chi_i(g, max(dmax + 1, 1))
        return {"graph6": item.line, "omega": omega, "chi": chi,
                "chi_i": res.chi_i, "max_degree": dmax,
                "ok": omega <= chi <= res.chi_i <= dmax + 1}

    def answer(self, item, result):
        return [result["omega"], result["chi"], result["chi_i"]]

    def check(self, item, result):
        if not result["ok"]:
            return f"{item.id}: omega <= chi <= chi_i <= max degree + 1 fails"
        return None

    def finish_pass(self, api, results):
        records = [r for r in results if isinstance(r, dict)]
        report = api.make_report("enumerate_check", records,
                                 extra={"invariant": "sandwich"})
        api.serialize_report(report)
        summary = report["summary"]
        if summary["violations"] or summary["errors"]:
            raise AssertionError(f"sandwich report summary {summary}")


class DeepSolve(Workload):
    """``analyze --exact``-style chi_i tables at the solve limit."""

    name = "deep-solve"
    # seeded picks from the 32 random graphs of each size: enough tables
    # that the tail rule lands above the median
    RANDOM_PER_SIZE = 12

    def select(self, entries, rng):
        chosen = [e for e in entries if "graph6" not in e]
        for n in sorted({e["n"] for e in entries if "graph6" in e}):
            chosen += by_cost(rng, [e for e in entries if e.get("n") == n],
                              lambda e: e["counts"][0], self.RANDOM_PER_SIZE)
        rng.shuffle(chosen)
        return chosen

    def make_item(self, api, entry):
        return Item(id=entry["id"], graph=build_graph(api, entry),
                    kmax=entry["kmax"], ref=entry)

    def run(self, api, item):
        return api.chi_i(item.graph, item.kmax)

    def answer(self, item, result):
        return {"chi_i": result.chi_i,
                "winnable": [result.winnable[k] for k in range(1, item.kmax + 1)]}

    def check(self, item, result):
        first = min(k for k, won in result.winnable.items() if won)
        if first != result.chi_i:
            return f"{item.id}: chi_i {result.chi_i} is not the least winnable k {first}"
        return None


def is_c7_slice(entry):
    return entry["grid"] == "05" and len(entry["sizes"]) == 7


class StrategyCertify(Workload):
    """Class strategies against the optimal adversary (twins mode) over the
    grids of acceptance criteria 03, 04 and 05."""

    name = "strategy-certify"

    def select(self, entries, rng):
        # every game outside the C7 slice, and one C7 game per (k, number of
        # size-2 modules): the whole slice takes ~45 s and its game cost
        # follows these two numbers
        chosen = [e for e in entries if not is_c7_slice(e)]
        chosen += stratified(rng, [e for e in entries if is_c7_slice(e)],
                             lambda e: (e["k"], e["sizes"].count(2)))
        rng.shuffle(chosen)
        return chosen

    def prepare(self, api):
        self.graphs = {}

    def make_item(self, api, entry):
        key = (entry["kind"], tuple(entry["sizes"]))
        if key not in self.graphs:
            self.graphs[key] = build_graph(api, entry)
        return Item(id=entry["id"], graph=self.graphs[key], k=entry["k"],
                    factory=entry["strategy"], ref=entry)

    def run(self, api, item):
        g, k = item.graph, item.k
        strategy = api.strategy(getattr(api, item.factory)(g, k))
        ben = api.ben(api.OptimalBen(g, k))
        return api.play_match(g, k, strategy, ben)

    def answer(self, item, result):
        return result.outcome

    def check(self, item, result):
        if not result.ann_won or len(result.moves) != item.graph.n:
            return f"{item.id}: a proven-winnable game was not won"
        return None


class Classify(Workload):
    """The ``analyze`` class tags, the two decompositions and expansion
    recognition, with no game solving."""

    name = "classify"
    PER_POOL = {"layered-c5": 75, "c6-form": 38, "random": 60, "kc5": 45, "ic": 45}

    def select(self, entries, rng):
        chosen = []
        for pool, count in sorted(self.PER_POOL.items()):
            chosen += by_cost(rng, [e for e in entries if e["pool"] == pool],
                              lambda e: (e["n"], e["m"]), count)
        rng.shuffle(chosen)
        return chosen

    def prepare(self, api):
        self.families = [
            ("p5k4kitebull_free", structure.family_p5k4kitebull()),
            ("p6c5claw_free", structure.family_p6c5claw()),
            ("p5c4_free", structure.family_p5c4()),
            ("p5k3_free", structure.family_sumner()),
            ("split_c5_family_free", structure.family_split_c5()),
        ]
        self.cycles = {n: api.make_named("C", n) for n in range(3, 9)}

    def make_item(self, api, entry):
        expansion = (entry["kind"], len(entry["sizes"])) if "sizes" in entry else None
        return Item(id=entry["id"], graph=build_graph(api, entry), ref=entry,
                    expansion=expansion)

    def run(self, api, item):
        g = item.graph
        tags = {name: api.is_family_free(g, family)[0] for name, family in self.families}
        tags["bipartite"] = api.is_bipartite(g) is not None
        tags["chordal"] = api.is_chordal(g) is not None
        tags["split"] = api.is_split(g) is not None
        tags["has_induced_c5"] = api.find_induced(g, self.cycles[5]) is not None
        tags["has_induced_c6"] = api.find_induced(g, self.cycles[6]) is not None
        out = {"tags": tags, "omega": api.omega_exact(g), "chi": api.chi_exact(g),
               "decompositions": {}}
        for tag, name, decompose in (
                ("has_induced_c5", "p5k4kitebull", api.decompose_p5k4kitebull),
                ("has_induced_c6", "p6c5claw", api.decompose_p6c5claw)):
            if tags[tag]:
                try:
                    out["decompositions"][name] = decompose(g)
                except GraphGameError as exc:
                    out["decompositions"][name] = exc
        out["expansion"] = None
        if item.expansion:
            kind, n = item.expansion
            out["expansion"] = api.recognize_expansion(
                g, self.cycles[n], allowed=(kind,))
        return out

    def answer(self, item, result):
        expansion = result["expansion"]
        return {
            "tags": result["tags"], "omega": result["omega"], "chi": result["chi"],
            "decompositions": {name: type(d).__name__ if isinstance(d, Exception) else "ok"
                               for name, d in result["decompositions"].items()},
            "expansion": list(expansion.sizes) if expansion is not None else None,
        }

    def check(self, item, result):
        if result["omega"] > result["chi"]:
            return f"{item.id}: omega > chi"
        found = [d for d in result["decompositions"].values()
                 if not isinstance(d, Exception)]
        if result["expansion"] is not None:
            found.append(result["expansion"])
        for structure_ in found:
            try:
                structure_.validate()
            except GraphGameError as exc:
                return f"{item.id}: {type(structure_).__name__}.validate(): {exc}"
        return None


WORKLOADS = {w.name: w for w in (CorpusSandwich(), StrategyCertify(),
                                 DeepSolve(), Classify())}
