"""Command-line front end: single-graph analysis, batch class verification,
match playback and invariant runs over graph6 corpora.

Exit codes: 0 clean, 1 violations or lost games, 2 usage or input errors.
"""

import argparse
import re
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor

from . import reports
from .detect import (
    brute_force_induced,
    find_induced,
    is_bipartite,
    is_chordal,
    is_family_free,
    is_split,
)
from .errors import BadParam, GraphGameError, NotApplicable
from .game import (
    DEFAULT_SOLVE_LIMIT,
    chi_exact,
    chi_i,
    alpha_exact,
    omega_exact,
    play_match,
)
from .graphs import (
    complete_expansion,
    degeneracy,
    independent_expansion,
    make_named,
    parse_graph6,
    to_dot,
    write_graph6,
)
from .structure import (
    chi_formula_kc5,
    chi_p5k4kitebull,
    decompose_p5c4,
    decompose_p5k4kitebull,
    decompose_p6c5claw,
    family_figure1,
    family_p5c4,
    family_p5k4kitebull,
    family_p6c5claw,
    family_split_c5,
    family_sumner,
    recognize_expansion,
    sumner_classify,
)
from .strategies import STRATEGY_REGISTRY, strat_solver_backed

_NAMED_RE = re.compile(r"^([PCKW])(\d+)$", re.IGNORECASE)
_EXPANSION_RE = re.compile(r"^(K|I)C(\d+):([\d,]+)$", re.IGNORECASE)


def parse_graph_spec(text):
    """Named constructor ("C5", "Petersen", "KC5:2,1,1,1,1") or graph6."""
    text = text.strip()
    m = _NAMED_RE.match(text)
    if m:
        return make_named(m.group(1), int(m.group(2)))
    m = _EXPANSION_RE.match(text)
    if m:
        base = make_named("C", int(m.group(2)))
        sizes = tuple(int(x) for x in m.group(3).split(","))
        builder = complete_expansion if m.group(1).upper() == "K" else independent_expansion
        return builder(base, sizes)
    try:
        return make_named(text)
    except GraphGameError:
        pass
    return parse_graph6(text)


def _strategy_registry():
    reg = dict(STRATEGY_REGISTRY)

    def bipartite_solver(g, k):
        if is_bipartite(g) is None:
            raise NotApplicable("graph is not bipartite")
        return strat_solver_backed(g, k)

    reg["bipartite-solver"] = bipartite_solver
    return reg


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

_DECOMPOSERS = {
    "p5k4kitebull": lambda g: _c5dec_record(decompose_p5k4kitebull(g)),
    "p6c5claw": lambda g: _c6dec_record(decompose_p6c5claw(g)),
    "p5c4": lambda g: _p5c4_record(decompose_p5c4(g)),
    "sumner": lambda g: [{"vertices": list(t.vertices), "kind": t.kind}
                         for t in sumner_classify(g)],
    "expansion-c5": lambda g: _expansion_record(g, 5),
    "expansion-c6": lambda g: _expansion_record(g, 6),
}


def _c5dec_record(d):
    return {
        "cycle": list(d.cycle),
        "A": [list(a) for a in d.A],
        "B": list(d.B),
        "S": list(d.S),
        "second_layer_rest": list(d.n2_rest),
        "V3": list(d.V3),
        "apex": d.xstar,
        "unit_expansion": d.is_unit,
        "chi": chi_p5k4kitebull(d),
    }


def _c6dec_record(d):
    return {
        "cycle": list(d.cycle),
        "A": [list(a) for a in d.A],
        "B": [list(b) for b in d.B],
        "complete_expansion": d.is_kc6,
    }


def _p5c4_record(d):
    return {
        "chordal_part": list(d.chordal_part),
        "pods": [{"modules": [list(m) for m in p.modules],
                  "clique_neighborhood": list(p.clique_nbhd)} for p in d.pods],
    }


def _expansion_record(g, n):
    for allowed in (("complete",), ("independent",), ("split",)):
        es = recognize_expansion(g, make_named("C", n), allowed=allowed)
        if es is not None:
            return {"base": f"C{n}", "kinds": list(es.kinds),
                    "modules": [list(m) for m in es.modules]}
    return None


def cmd_analyze(args):
    try:
        g = parse_graph_spec(args.input)
    except GraphGameError as exc:
        return _error_report("analyze", str(exc)), 2
    if args.format == "dot":
        return to_dot(g), 0
    rec = {
        "graph6": write_graph6(g),
        "n": g.n,
        "m": g.num_edges,
        "max_degree": max((g.degree(v) for v in range(g.n)), default=0),
        "col": degeneracy(g).col,
    }
    skipped = []
    for name, oracle in (("omega", omega_exact), ("alpha", alpha_exact),
                         ("chi", chi_exact)):
        try:
            rec[name] = oracle(g)
        except GraphGameError as exc:
            skipped.append(f"{name}: {type(exc).__name__}: {exc}")
    rec["classes"] = _class_memberships(g)
    if args.decompose:
        try:
            rec["decomposition"] = {args.decompose: _DECOMPOSERS[args.decompose](g)}
            rec["ok"] = rec["decomposition"][args.decompose] is not None
        except GraphGameError as exc:
            rec["decomposition"] = {args.decompose: None}
            rec["decompose_error"] = str(exc)
            rec["ok"] = False
    if args.exact:
        kmax = args.kmax or min(g.n, rec["max_degree"] + 1) or 1
        try:
            res = chi_i(g, kmax, solve_limit=args.limit, node_budget=args.budget)
            rec["chi_i"] = res.chi_i
            rec["winnable"] = {str(k): v for k, v in res.winnable.items()}
        except GraphGameError as exc:
            skipped.append(f"chi_i: {type(exc).__name__}: {exc}")
    if skipped:
        rec["error"] = "; ".join(skipped)
    return reports.make_report("analyze", [rec]), 2 if skipped else None


def _class_memberships(g):
    out = {}
    for name, fam in (
        ("p5k4kitebull_free", family_p5k4kitebull()),
        ("p6c5claw_free", family_p6c5claw()),
        ("p5c4_free", family_p5c4()),
        ("p5k3_free", family_sumner()),
        ("split_c5_family_free", family_split_c5()),
    ):
        out[name] = is_family_free(g, fam)[0]
    out["bipartite"] = is_bipartite(g) is not None
    out["chordal"] = is_chordal(g) is not None
    out["split"] = is_split(g) is not None
    out["has_induced_c5"] = find_induced(g, make_named("C", 5)) is not None
    out["has_induced_c6"] = find_induced(g, make_named("C", 6)) is not None
    return out


# ---------------------------------------------------------------------------
# verify-class
# ---------------------------------------------------------------------------

_KTERM_RE = re.compile(r"^(chi|col|\d+)(?:\+(\d+))?$")


def parse_krange(spec):
    """Palette range like "chi", "chi..chi+2", "2..5", "col..col+1";
    returns a function graph -> list of k."""
    parts = spec.split("..")
    if len(parts) > 2 or not all(_KTERM_RE.match(p) for p in parts):
        raise ValueError(f"bad krange: {spec!r}")

    def term(p, g, cache):
        m = _KTERM_RE.match(p)
        base, plus = m.group(1), int(m.group(2) or 0)
        if base == "chi":
            if "chi" not in cache:
                cache["chi"] = chi_exact(g)
            return cache["chi"] + plus
        if base == "col":
            if "col" not in cache:
                cache["col"] = degeneracy(g).col
            return cache["col"] + plus
        return int(base) + plus

    def krange(g):
        cache = {}
        lo = term(parts[0], g, cache)
        hi = term(parts[-1], g, cache)
        return list(range(lo, hi + 1))

    return krange


def _verify_one(payload):
    line, class_name, krange_spec, limit, budget = payload
    registry = _strategy_registry()
    factory = registry[class_name]
    recs = []
    try:
        g = parse_graph6(line)
        for k in parse_krange(krange_spec)(g):
            rec = {"graph6": line, "k": k, "strategy": class_name}
            try:
                strat = factory(g, k)
                match = play_match(g, k, strat, solve_limit=limit,
                                   node_budget=budget)
                rec.update(reports.match_record(match))
            except Exception as exc:
                rec["error"] = _error_text(exc)
            recs.append(rec)
    except Exception as exc:
        recs.append({"graph6": line, "error": _error_text(exc)})
    return recs


def cmd_verify_class(args):
    registry = _strategy_registry()
    if args.strategy_class not in registry:
        return _error_report("verify_class",
                             f"unknown class {args.strategy_class!r}; known: "
                             f"{sorted(registry)}"), 2
    try:
        parse_krange(args.krange)
    except ValueError as exc:
        return _error_report("verify_class", str(exc)), 2
    try:
        lines = _read_corpus(args.corpus)
    except OSError as exc:
        return _error_report("verify_class", str(exc)), 2
    payloads = [(ln, args.strategy_class, args.krange, args.limit, args.budget)
                for ln in lines]
    records = []
    for recs in _map_jobs(_verify_one, payloads, args.jobs):
        records.extend(recs)
    return reports.make_report("verify_class", records,
                               extra={"class": args.strategy_class}), None


# ---------------------------------------------------------------------------
# play
# ---------------------------------------------------------------------------

class _ScriptedSelector:
    """Fixed presentation order ("scripted:0,2,...") for reproducing
    walk-throughs: the first uncolored vertex of the order."""

    name = "scripted"

    def __init__(self, order):
        self.order = order

    def next_vertex(self, state):
        for v in self.order:
            if not state.colors[v]:
                return v
        raise GraphGameError("scripted selector ran out of vertices")


def _int_list(text, what):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise BadParam(f"{what} {text!r} is not a comma-separated list of "
                       f"integers") from None


def cmd_play(args):
    registry = _strategy_registry()
    try:
        g = parse_graph_spec(args.input)
        name, sep, order = args.strategy.partition(":")
        if name == "scripted" and sep:
            order = _int_list(order, "scripted order")
            if bad := [v for v in order if not 0 <= v < g.n]:
                raise BadParam(f"scripted order names vertex {bad[0]} "
                               f"outside 0..{g.n - 1}")
            strat = _ScriptedSelector(order)
        else:
            factory = registry[args.strategy]
            strat = factory(g, args.k)
        ben = "optimal"
        if args.ben == "script":
            ben = _int_list(args.script, "--script") if args.script else []
        match = play_match(g, args.k, strat, ben, solve_limit=args.limit,
                           node_budget=args.budget)
    except KeyError:
        return _error_report("play", f"unknown strategy {args.strategy!r}"), 2
    except GraphGameError as exc:
        return _error_report("play", f"{type(exc).__name__}: {exc}"), 2
    rec = reports.match_record(match, graph6=write_graph6(g), strategy=args.strategy)
    report = reports.make_report("play", [rec])
    return report, None


# ---------------------------------------------------------------------------
# enumerate-check
# ---------------------------------------------------------------------------

def _check_sandwich(line, kmax, limit, budget):
    g = parse_graph6(line)
    omega = omega_exact(g)
    chi = chi_exact(g)
    dmax = max((g.degree(v) for v in range(g.n)), default=0)
    res = chi_i(g, max(dmax + 1, 1), solve_limit=limit, node_budget=budget)
    ok = omega <= chi <= res.chi_i <= dmax + 1
    return {"graph6": line, "omega": omega, "chi": chi, "chi_i": res.chi_i,
            "max_degree": dmax, "ok": ok}


def _check_chordal_equality(line, kmax, limit, budget):
    g = parse_graph6(line)
    if is_chordal(g) is None:
        return {"graph6": line, "skipped": "not chordal", "ok": True}
    omega = omega_exact(g)
    chi = chi_exact(g)
    top = kmax or max(g.n, chi)
    res = chi_i(g, max(top, chi), solve_limit=limit, node_budget=budget)
    ok = res.chi_i == chi == omega and all(
        res.winnable[k] for k in range(chi, max(top, chi) + 1))
    return {"graph6": line, "omega": omega, "chi": chi, "chi_i": res.chi_i, "ok": ok}


def _check_formula_kc5(line, kmax, limit, budget):
    g = parse_graph6(line)
    es = recognize_expansion(g, make_named("C", 5), allowed=("complete",))
    if es is None:
        return {"graph6": line, "error": "not a complete expansion of C5"}
    want = chi_formula_kc5(es.sizes)
    got = chi_exact(g)
    return {"graph6": line, "sizes": list(es.sizes), "formula": want,
            "chi": got, "ok": want == got}


def _check_detector_oracle(line, kmax, limit, budget):
    g = parse_graph6(line)
    disagreements = []
    for pat in family_figure1():
        fast = find_induced(g, pat) is not None
        slow = brute_force_induced(g, pat)
        if fast != slow:
            disagreements.append(write_graph6(pat))
    return {"graph6": line, "ok": not disagreements,
            "disagreements": disagreements}


_INVARIANTS = {
    "sandwich": _check_sandwich,
    "chordal-equality": _check_chordal_equality,
    "formula-kc5": _check_formula_kc5,
    "detector-oracle": _check_detector_oracle,
}


def _check_one(payload):
    line, invariant, kmax, limit, budget = payload
    try:
        return _INVARIANTS[invariant](line, kmax, limit, budget)
    except Exception as exc:
        return {"graph6": line, "error": _error_text(exc)}


def cmd_enumerate_check(args):
    if args.invariant not in _INVARIANTS:
        return _error_report("enumerate_check",
                             f"unknown invariant {args.invariant!r}; known: "
                             f"{sorted(_INVARIANTS)}"), 2
    try:
        lines = _read_corpus(args.corpus)
    except OSError as exc:
        return _error_report("enumerate_check", str(exc)), 2
    payloads = [(ln, args.invariant, args.kmax, args.limit, args.budget)
                for ln in lines]
    records = list(_map_jobs(_check_one, payloads, args.jobs))
    return reports.make_report("enumerate_check", records,
                               extra={"invariant": args.invariant}), None


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _read_corpus(path):
    if path == "-":
        return [ln.strip() for ln in sys.stdin if ln.strip()]
    with open(path) as fh:
        return [ln.strip() for ln in fh if ln.strip()]


def _error_text(exc):
    """Error-row text, so one bad record does not stop a corpus run; a
    fault outside the package's own errors also prints its traceback."""
    if not isinstance(exc, GraphGameError):
        traceback.print_exception(type(exc), exc, exc.__traceback__)
    return f"{type(exc).__name__}: {exc}"


def _map_jobs(fn, payloads, jobs):
    if jobs and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(fn, payloads)
    else:
        yield from map(fn, payloads)


def _error_report(kind, message):
    return {
        "schema_version": reports.SCHEMA_VERSION,
        "kind": kind,
        "error": message,
        "records": [],
        "summary": {"instances": 0, "failures": 0, "violations": 0, "errors": 1},
    }


def _emit(report, fmt, out=None):
    out = out if out is not None else sys.stdout
    if isinstance(report, str):
        out.write(report)
        return
    if fmt == "text":
        _emit_text(report, out)
    else:
        out.write(reports.serialize_report(report))


def _emit_text(report, out):
    if "error" in report:
        out.write(f"error: {report['error']}\n")
        return
    for rec in report["records"]:
        keys = [k for k in ("graph6", "k", "strategy", "outcome", "chi", "omega",
                            "alpha", "col", "chi_i", "ok", "error") if k in rec]
        out.write("  ".join(f"{k}={rec[k]}" for k in keys) + "\n")
        if "winnable" in rec:
            table = "  ".join(f"k={k}:{'T' if v else 'F'}"
                              for k, v in sorted(rec["winnable"].items(),
                                                 key=lambda kv: int(kv[0])))
            out.write(f"  winnable: {table}\n")
        if "moves" in rec:
            out.write("  moves: " + " ".join(f"{v}:{c}" for v, c in rec["moves"]) + "\n")
    s = report["summary"]
    out.write(f"summary: {s['instances']} instances, {s['failures']} failures, "
              f"{s['violations']} violations, {s['errors']} errors\n")


def build_parser():
    p = argparse.ArgumentParser(
        prog="indicated",
        description="Exact engine and strategy catalog for the indicated "
                    "coloring game.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json", "dot"), default="json")
        sp.add_argument("--budget", type=int, default=None,
                        help="solver node budget (hard error when exceeded)")
        sp.add_argument("--limit", type=int, default=DEFAULT_SOLVE_LIMIT,
                        help="solver size limit")
        sp.add_argument("--jobs", type=int, default=1,
                        help="parallel corpus workers")

    sp = sub.add_parser("analyze", help="invariants and class tags for one graph")
    sp.add_argument("input", help="graph6 line or named constructor (C5, "
                                  "Petersen, KC5:2,1,1,1,1, ...)")
    sp.add_argument("--exact", action="store_true",
                    help="solve the game: chi_i and the per-k table")
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--decompose", choices=sorted(_DECOMPOSERS), default=None)
    common(sp)

    sp = sub.add_parser("verify-class", help="run a class strategy vs the "
                                             "optimal adversary over a corpus")
    sp.add_argument("corpus", help="graph6 file, or - for stdin")
    sp.add_argument("strategy_class", metavar="class")
    sp.add_argument("--krange", default="chi..chi",
                    help="e.g. chi..chi+2, 2..5, col (default chi..chi)")
    common(sp)

    sp = sub.add_parser("play", help="play one match and print the transcript")
    sp.add_argument("input")
    sp.add_argument("k", type=int)
    sp.add_argument("strategy")
    sp.add_argument("--ben", choices=("optimal", "script"), default="optimal")
    sp.add_argument("--script", default="",
                    help="comma-separated colors for the scripted adversary")
    common(sp)

    sp = sub.add_parser("check", help="run a named invariant over a corpus")
    sp.add_argument("corpus")
    sp.add_argument("invariant", choices=sorted(_INVARIANTS))
    sp.add_argument("--kmax", type=int, default=None)
    common(sp)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    handler = {
        "analyze": cmd_analyze,
        "verify-class": cmd_verify_class,
        "play": cmd_play,
        "check": cmd_enumerate_check,
    }[args.command]
    report, forced_code = handler(args)
    _emit(report, args.format)
    if forced_code is not None:
        return forced_code
    return reports.exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
