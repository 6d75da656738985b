"""Command-line front end: single-graph analysis, batch class verification,
match playback and invariant runs over graph6 corpora.

Exit codes: 0 clean, 1 violations or lost games, 2 usage or input errors.
"""

import argparse
import re
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial

from . import reports
from .detect import (
    brute_force_induced,
    find_induced,
    find_induced_cycle,
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
from .strategies import STRATEGY_REGISTRY, Order, strat_solver_backed

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
        sizes = tuple(_int_list(m.group(3), "expansion sizes"))
        builder = complete_expansion if m.group(1).upper() == "K" else independent_expansion
        return builder(base, sizes)
    try:
        return make_named(text)
    except GraphGameError:
        pass
    return parse_graph6(text)


def _bipartite_solver(g, k, *, solve_limit):
    if is_bipartite(g) is None:
        raise NotApplicable("graph is not bipartite")
    return strat_solver_backed(g, k, solve_limit=solve_limit)


_STRATEGIES = {**STRATEGY_REGISTRY, "bipartite-solver": _bipartite_solver}


def _build_strategy(name, g, k, limit):
    """The named strategy for (g, k); the solver-backed ones solve up to the
    --limit size."""
    if name in ("solver", "bipartite-solver"):
        return _STRATEGIES[name](g, k, solve_limit=limit)
    return _STRATEGIES[name](g, k)


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
        if args.format == "dot":
            return to_dot(g), 0
        graph6 = write_graph6(g)
    except GraphGameError as exc:
        return _error_report("analyze", _error_text(exc)), 2
    rec = {
        "graph6": graph6,
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
        kmax = args.kmax
        if kmax is None:
            kmax = min(g.n, rec["max_degree"] + 1) or 1
        try:
            res = chi_i(g, kmax, solve_limit=_limit(args), node_budget=args.budget)
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
    out["has_induced_c5"] = find_induced_cycle(g, 5) is not None
    out["has_induced_c6"] = find_induced_cycle(g, 6) is not None
    return out


# ---------------------------------------------------------------------------
# verify-class
# ---------------------------------------------------------------------------

_KTERM_RE = re.compile(r"^(chi|col|\d+)(?:\+(\d+))?$")


def parse_krange(spec):
    """Palette range like "chi", "chi..chi+2", "2..5", "col..col+1";
    returns a function graph -> list of k.  A numeric bound must be at
    least 1 and a numeric range must not be empty."""
    matches = [_KTERM_RE.match(p) for p in spec.split("..")]
    if len(matches) > 2 or not all(matches):
        raise ValueError(f"bad krange: {spec!r}")
    terms = [(m.group(1), int(m.group(2) or 0)) for m in matches]
    if any(b.isdigit() and int(b) + plus < 1 for b, plus in terms):
        raise ValueError(f"bad krange: {spec!r} has a bound below 1; "
                         f"palette sizes start at 1")

    def krange(g):
        value = {b: chi_exact(g) if b == "chi" else
                 degeneracy(g).col if b == "col" else int(b)
                 for b in {b for b, _ in terms}}
        (lo, lo_plus), (hi, hi_plus) = terms[0], terms[-1]
        return list(range(value[lo] + lo_plus, value[hi] + hi_plus + 1))

    if all(b.isdigit() for b, _ in terms) and not krange(None):
        raise ValueError(f"bad krange: {spec!r} is empty")
    return krange


def _verify_one(class_name, krange_spec, limit, budget, line):
    recs = []
    try:
        g = parse_graph6(line)
        ks = parse_krange(krange_spec)(g)
        if not ks:
            raise BadParam(f"krange {krange_spec!r} is empty on this graph")
        for k in ks:
            rec = {"graph6": line, "k": k, "strategy": class_name}
            try:
                strat = _build_strategy(class_name, g, k, limit)
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
    if args.strategy_class not in _STRATEGIES:
        return _error_report("verify_class",
                             f"unknown class {args.strategy_class!r}; known: "
                             f"{sorted(_STRATEGIES)}"), 2
    try:
        parse_krange(args.krange)
    except ValueError as exc:
        return _error_report("verify_class", str(exc)), 2
    verify = partial(_verify_one, args.strategy_class, args.krange, _limit(args),
                     args.budget)
    return _run_corpus("verify_class", args, verify, {"class": args.strategy_class})


# ---------------------------------------------------------------------------
# play
# ---------------------------------------------------------------------------

def _int_list(text, what):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise BadParam(f"{what} {text!r} is not a comma-separated list of "
                       f"integers") from None


def cmd_play(args):
    limit = _limit(args)
    try:
        g = parse_graph_spec(args.input)
        graph6 = write_graph6(g)
        name, sep, order = args.strategy.partition(":")
        if name == "scripted" and sep:
            order = _int_list(order, "scripted order")
            if bad := [v for v in order if not 0 <= v < g.n]:
                raise BadParam(f"scripted order names vertex {bad[0]} "
                               f"outside 0..{g.n - 1}")
            strat = Order(order)
        else:
            strat = _build_strategy(args.strategy, g, args.k, limit)
        ben = "optimal"
        if args.ben == "script":
            ben = _int_list(args.script, "--script") if args.script else []
        match = play_match(g, args.k, strat, ben, solve_limit=limit,
                           node_budget=args.budget)
    except KeyError:
        return _error_report("play", f"unknown strategy {args.strategy!r}"), 2
    except GraphGameError as exc:
        return _error_report("play", _error_text(exc)), 2
    rec = reports.match_record(match, graph6=graph6, strategy=args.strategy)
    report = reports.make_report("play", [rec])
    return report, None


# ---------------------------------------------------------------------------
# enumerate-check
# ---------------------------------------------------------------------------

def _check_sandwich(g, limit, budget):
    omega = omega_exact(g)
    chi = chi_exact(g)
    dmax = max((g.degree(v) for v in range(g.n)), default=0)
    res = chi_i(g, max(dmax + 1, 1), solve_limit=limit, node_budget=budget)
    ok = omega <= chi <= res.chi_i <= dmax + 1
    return {"omega": omega, "chi": chi, "chi_i": res.chi_i, "max_degree": dmax,
            "ok": ok}


def _check_chordal_equality(g, kmax, limit, budget):
    if is_chordal(g) is None:
        return {"skipped": "not chordal", "ok": True}
    omega = omega_exact(g)
    chi = chi_exact(g)
    top = max(g.n, chi) if kmax is None else max(kmax, chi)
    res = chi_i(g, top, solve_limit=limit, node_budget=budget)
    ok = res.chi_i == chi == omega and all(
        res.winnable[k] for k in range(chi, top + 1))
    return {"omega": omega, "chi": chi, "chi_i": res.chi_i, "ok": ok}


def _check_formula_kc5(g):
    es = recognize_expansion(g, make_named("C", 5), allowed=("complete",))
    if es is None:
        return {"error": "not a complete expansion of C5"}
    want = chi_formula_kc5(es.sizes)
    got = chi_exact(g)
    return {"sizes": list(es.sizes), "formula": want, "chi": got, "ok": want == got}


def _check_detector_oracle(g):
    disagreements = []
    for pat in family_figure1():
        emb = find_induced(g, pat)
        bad_witness = emb is not None and not emb.verify()
        if bad_witness or (emb is not None) != brute_force_induced(g, pat):
            disagreements.append(write_graph6(pat))
    return {"ok": not disagreements, "disagreements": disagreements}


# name -> (check, the flags it reads)
_INVARIANTS = {
    "sandwich": (_check_sandwich, ("limit", "budget")),
    "chordal-equality": (_check_chordal_equality, ("kmax", "limit", "budget")),
    "formula-kc5": (_check_formula_kc5, ()),
    "detector-oracle": (_check_detector_oracle, ()),
}


def _check_one(check, flags, line):
    try:
        return [{"graph6": line, **check(parse_graph6(line), **flags)}]
    except Exception as exc:
        return [{"graph6": line, "error": _error_text(exc)}]


def cmd_enumerate_check(args):
    check, reads = _INVARIANTS[args.invariant]
    for name in ("kmax", "limit", "budget"):
        if getattr(args, name) is not None and name not in reads:
            return _error_report("enumerate_check", f"invariant {args.invariant!r} "
                                 f"does not read --{name}"), 2
    flags = {name: getattr(args, name) for name in reads}
    if "limit" in flags:
        flags["limit"] = _limit(args)
    return _run_corpus("enumerate_check", args, partial(_check_one, check, flags),
                       {"invariant": args.invariant})


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


def _run_corpus(kind, args, per_line, extra):
    """One report over the corpus: per_line maps each graph6 line to its
    records, in a pool of --jobs processes when that is above 1, and the
    records keep input order.  The pool takes the lines in about 4 chunks
    per process, as a round trip per line costs more than it shares out."""
    try:
        lines = _read_corpus(args.corpus)
    except OSError as exc:
        return _error_report(kind, str(exc)), 2
    with ProcessPoolExecutor(args.jobs) if args.jobs > 1 else nullcontext() as pool:
        mapped = (pool.map(per_line, lines, chunksize=len(lines) // (4 * args.jobs) + 1)
                  if pool else map(per_line, lines))
        records = [rec for recs in mapped for rec in recs]
    return reports.make_report(kind, records, extra=extra), None


def _limit(args):
    """The given --limit, else the default solve limit."""
    return DEFAULT_SOLVE_LIMIT if args.limit is None else args.limit


def _error_report(kind, message):
    report = reports.make_report(kind, [])
    report["error"] = message
    report["summary"]["errors"] = 1
    return report


def _emit(report, fmt):
    if isinstance(report, str):
        sys.stdout.write(report)
    elif fmt == "text":
        _emit_text(report, sys.stdout)
    else:
        sys.stdout.write(reports.serialize_report(report))


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

    def common(sp, formats=("text", "json"), jobs=False):
        sp.add_argument("--format", choices=formats, default="json")
        sp.add_argument("--budget", type=int, default=None,
                        help="solver node budget (hard error when exceeded)")
        sp.add_argument("--limit", type=int, default=None,
                        help=f"solver size limit (default {DEFAULT_SOLVE_LIMIT})")
        if jobs:
            sp.add_argument("--jobs", type=int, default=1,
                            help="parallel corpus workers")

    sp = sub.add_parser("analyze", help="invariants and class tags for one graph")
    sp.add_argument("input", help="graph6 line or named constructor (C5, "
                                  "Petersen, KC5:2,1,1,1,1, ...)")
    sp.add_argument("--exact", action="store_true",
                    help="solve the game: chi_i and the per-k table")
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--decompose", choices=sorted(_DECOMPOSERS), default=None)
    common(sp, formats=("text", "json", "dot"))

    sp = sub.add_parser("verify-class", help="run a class strategy vs the "
                                             "optimal adversary over a corpus")
    sp.add_argument("corpus", help="graph6 file, or - for stdin")
    sp.add_argument("strategy_class", metavar="class")
    sp.add_argument("--krange", default="chi..chi",
                    help="e.g. chi..chi+2, 2..5, col (default chi..chi)")
    common(sp, jobs=True)

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
    common(sp, jobs=True)
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
