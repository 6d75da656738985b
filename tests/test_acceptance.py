"""Acceptance criteria, one test per criterion.

Every criterion is exact (no tolerances): strategy theorems are checked by
exhaustive play against the optimal adversary at desk scale, formulas
against the branch-and-bound oracles.  Each test prints one summary line
(visible with pytest -s or in the captured-output section).
"""

import itertools
import math
import random
import time

import pytest

from indicated.detect import brute_force_induced, find_induced, is_bipartite, is_chordal, is_family_free
from indicated.game import (
    ann_wins,
    ann_wins_reference,
    chi_exact,
    chi_i,
    omega_exact,
    play_match,
)
from indicated.graphs import (
    complete_expansion,
    independent_expansion,
    join,
    make_named,
    union,
)
from indicated.strategies import (
    strat_cycle_expansion,
    strat_kc5,
    strat_kc6,
    strat_p5k4kitebull,
)
from indicated.structure import (
    chi_formula_kc5,
    chi_p5k4kitebull,
    decompose_p5k4kitebull,
    decompose_p6c5claw,
    family_figure1,
    family_p5k4kitebull,
    family_p6c5claw,
    recognize_expansion,
)

from builders import (
    build_c6_form_instance,
    build_layered_c5_instance,
    random_graph,
)
from test_game import _ClassesKeySolver

pytestmark = pytest.mark.acceptance

C5 = make_named("C", 5)
C6 = make_named("C", 6)


def _line(num, name, detail):
    print(f"[criterion {num:02d}] PASS  {name}: {detail}")


def test_criterion_01_chi_formula_all_243():
    t0 = time.time()
    for m in itertools.product((1, 2, 3), repeat=5):
        g = complete_expansion(C5, m)
        omega = max(m[i] + m[(i + 1) % 5] for i in range(5))
        want = max(omega, math.ceil(sum(m) / 2))
        assert chi_formula_kc5(m) == want
        assert chi_exact(g) == want, m
    elapsed = time.time() - t0
    assert elapsed < 60
    _line(1, "chi formula on complete C5 expansions",
          f"243/243 tuples exact in {elapsed:.1f}s")


def test_criterion_02_balanced_special_case():
    for m in (1, 2, 3):
        g = complete_expansion(C5, (m,) * 5)
        assert chi_exact(g) == math.ceil(5 * m / 2)
    _line(2, "balanced expansion chromatic number",
          "ceil(5m/2) for m in {1,2,3}")


def test_criterion_03_kc5_strategy(monkeypatch):
    from indicated.strategies import CounterLedger, _KC5LedgerStrategy

    t0 = time.time()
    games = ledger_games = 0
    star_checks = []
    check_star = CounterLedger.check_star

    def spy(ledger, state):
        m0, *rest = ledger.modules
        star_checks.append(all(state.colors[v] for v in m0)
                           and not any(state.colors[v] for m in rest for v in m))
        return check_star(ledger, state)

    monkeypatch.setattr(CounterLedger, "check_star", spy)

    def run(g, m, k):
        nonlocal ledger_games
        strat = strat_kc5(g, k)
        star_checks.clear()
        res = play_match(g, k, strat, solve_limit=16)
        assert res.ann_won, (m, k)
        if isinstance(strat, _KC5LedgerStrategy):
            # the baseline identities ran exactly once: m0 done, the rest
            # untouched
            assert star_checks == [True], (m, k, star_checks)
            ledger_games += 1
        else:
            assert not star_checks, (m, k)

    for m in itertools.product((1, 2), repeat=5):
        g = complete_expansion(C5, m)
        chi = chi_formula_kc5(m)
        for k in range(chi, min(chi + 2, 8) + 1):
            run(g, m, k)
            games += 1
    sampled = 0
    for m in itertools.product((1, 2, 3), repeat=5):
        g = complete_expansion(C5, m)
        run(g, m, chi_formula_kc5(m))
        sampled += 1
    elapsed = time.time() - t0
    assert sampled >= 10 and ledger_games > 0
    assert elapsed < 600
    _line(3, "complete-C5-expansion strategy vs optimal adversary",
          f"{games} grid games + {sampled} full-size cases at k=chi "
          f"({ledger_games} ledger-paced), {elapsed:.1f}s")


def test_criterion_04_kc6_strategy():
    t0 = time.time()
    games = 0
    for m in itertools.product((1, 2), repeat=6):
        g = complete_expansion(C6, m)
        omega = max(m[i] + m[(i + 1) % 6] for i in range(6))
        assert chi_exact(g) == omega
        for k in (omega, omega + 1, omega + 2):
            res = play_match(g, k, strat_kc6(g, k), solve_limit=16)
            assert res.ann_won, (m, k)
            games += 1
    _line(4, "complete-C6-expansion strategy vs optimal adversary",
          f"{games}/192 games won in {time.time() - t0:.1f}s")


def test_criterion_05_cycle_expansion_strategy():
    t0 = time.time()
    games = 0
    for n in (4, 5, 6, 7):
        base = make_named("C", n)
        chi = 2 if n % 2 == 0 else 3
        for m in itertools.product((1, 2), repeat=n):
            g = independent_expansion(base, m)
            for k in range(chi, min(chi + 3, 6) + 1):
                res = play_match(g, k, strat_cycle_expansion(g, k), solve_limit=16)
                assert res.ann_won, (n, m, k)
                games += 1
    _line(5, "independent-cycle-expansion strategy vs optimal adversary",
          f"{games} games won in {time.time() - t0:.1f}s")


def test_criterion_06_bipartite_solver_certified(connected_le7):
    t0 = time.time()
    checked = 0
    for g in connected_le7:
        if is_bipartite(g) is None:
            continue
        table = {k: ann_wins(g, k, want_line=False).ann_wins for k in range(2, 6)}
        assert all(table.values()), g.edges()
        if g.n >= 2:
            assert not ann_wins(g, 1, want_line=False).ann_wins
        checked += 1
    _line(6, "bipartite graphs solver-certified",
          f"{checked} connected bipartite graphs, chi_i = 2 and winnable "
          f"for k=2..5, {time.time() - t0:.1f}s")


def test_criterion_07_sandwich_and_chordal(connected_le7):
    t0 = time.time()
    chordal_count = 0
    non_monotone = []
    for g in connected_le7:
        omega = omega_exact(g)
        chi = chi_exact(g)
        dmax = max(g.degree(v) for v in range(g.n))
        res = chi_i(g, dmax + 1)
        assert omega <= chi <= res.chi_i <= dmax + 1, g.edges()
        # non-monotone tables are reported, never repaired: whether one can
        # exist is open, so this stays an observation, not an assertion
        wins = [res.winnable[k] for k in range(res.chi_i, dmax + 2)]
        if not all(wins):
            non_monotone.append(g)
        if is_chordal(g) is not None:
            assert res.chi_i == chi == omega, g.edges()
            for k in range(chi, 8):
                assert ann_wins(g, k, want_line=False).ann_wins, (g.edges(), k)
            chordal_count += 1
    elapsed = time.time() - t0
    assert elapsed < 1800
    _line(7, "sandwich + chordal equality over all connected graphs n<=7",
          f"{len(connected_le7)} graphs ({chordal_count} chordal), 0 "
          f"exceptions, {len(non_monotone)} non-monotone tables, {elapsed:.1f}s")


def test_criterion_08_layered_c5_strategy():
    t0 = time.time()
    rng = random.Random(0xA55)
    family = family_p5k4kitebull()
    accepted = attempts = with_third_layer = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 5000, "rejection sampling stalled"
        g = build_layered_c5_instance(rng)
        if g is None:
            continue
        if not is_family_free(g, family)[0]:
            continue
        dec = decompose_p5k4kitebull(g)          # validates every invariant
        chi = chi_p5k4kitebull(dec)
        assert chi == chi_exact(g), g.edges()
        for k in (chi, chi + 1):
            res = play_match(g, k, strat_p5k4kitebull(g, k), solve_limit=17)
            assert res.ann_won, (g.edges(), k)
        if dec.V3:
            with_third_layer += 1
        accepted += 1
    _line(8, "layered-C5 class: build, decompose, chi rule, strategy",
          f"{accepted} verified instances ({with_third_layer} with a third "
          f"layer) from {attempts} draws, {time.time() - t0:.1f}s")


def test_criterion_09_c6_form_decomposition():
    t0 = time.time()
    rng = random.Random(0xC6)
    pure = 0
    house = make_named("p5_bar")
    for _ in range(100):
        g, a, b = build_c6_form_instance(rng)
        assert is_family_free(g, family_p6c5claw())[0], (a, b)
        dec = decompose_p6c5claw(g)              # validates every invariant
        house_free = is_family_free(g, [house])[0]
        assert house_free == (sum(b) == 0) == dec.is_kc6, (a, b)
        if dec.is_kc6:
            assert recognize_expansion(g, C6, allowed=("complete",)) is not None
            omega = chi_exact(g)
            res = play_match(g, omega, strat_kc6(g, omega), solve_limit=17)
            assert res.ann_won, (a, b)
            pure += 1
    assert pure >= 20
    _line(9, "C6-form decomposition + pure-expansion strategy",
          f"100 instances, {pure} house-free ones won at k=chi, "
          f"{time.time() - t0:.1f}s")


def test_criterion_10_composition_laws():
    t0 = time.time()
    rng = random.Random(0x10)
    pairs = 0
    while pairs < 20:
        n1 = rng.randint(1, 5)
        n2 = rng.randint(1, min(5, 10 - n1))
        g1 = random_graph(rng, n1, p=rng.choice((0.3, 0.5, 0.7)))
        g2 = random_graph(rng, n2, p=rng.choice((0.3, 0.5, 0.7)))
        c1 = chi_i(g1).chi_i
        c2 = chi_i(g2).chi_i
        assert chi_i(union(g1, g2)).chi_i == max(c1, c2)
        assert chi_i(join(g1, g2)).chi_i == c1 + c2
        pairs += 1
    _line(10, "union and join composition laws",
          f"{pairs} random pairs, exact equality, {time.time() - t0:.1f}s")


def test_criterion_11_detector_oracle():
    t0 = time.time()
    rng = random.Random(0x11)
    patterns = family_figure1()
    disagreements = 0
    for _ in range(1000):
        host = random_graph(rng, rng.randint(1, 8), p=rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)))
        for pat in patterns:
            if (find_induced(host, pat) is not None) != brute_force_induced(host, pat):
                disagreements += 1
    assert disagreements == 0
    _line(11, "detector vs brute-force oracle",
          f"1000 hosts x {len(patterns)} patterns, 0 disagreements, "
          f"{time.time() - t0:.1f}s")


def test_criterion_12_solver_self_consistency(all_le6):
    t0 = time.time()
    for g in all_le6:
        for k in range(1, 5):
            ref = ann_wins_reference(g, k)
            assert _ClassesKeySolver(g, k).value(()) == ref
            assert ann_wins(g, k, want_line=False).ann_wins == ref
    _line(12, "canonicalized solvers vs reference solver",
          f"{len(all_le6)} graphs x k=1..4, bit-identical tables "
          f"(class-multiset and twin-profile keys), {time.time() - t0:.1f}s")
