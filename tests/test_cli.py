import hashlib
import io
import json
import sys

import pytest

from indicated import cli
from indicated.cli import main, parse_graph_spec, parse_krange
from indicated.graphs import complete_expansion, make_named, write_graph6
from indicated.reports import make_report, parse_report, serialize_report


def run_cli(argv, stdin=""):
    out = io.StringIO()
    old_out, old_in = sys.stdout, sys.stdin
    sys.stdout, sys.stdin = out, io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stdin = old_out, old_in
    return code, out.getvalue()


def test_parse_graph_spec():
    assert parse_graph_spec("C5") == make_named("C", 5)
    assert parse_graph_spec("Petersen") == make_named("Petersen")
    assert parse_graph_spec("KC5:2,1,1,1,1") == \
        complete_expansion(make_named("C", 5), (2, 1, 1, 1, 1))
    assert parse_graph_spec(write_graph6(make_named("C", 5))) == make_named("C", 5)


def test_parse_krange():
    g = make_named("C", 5)
    assert parse_krange("2..5")(g) == [2, 3, 4, 5]
    assert parse_krange("chi..chi+2")(g) == [3, 4, 5]
    assert parse_krange("chi")(g) == [3]
    assert parse_krange("col")(g) == [3]
    with pytest.raises(ValueError):
        parse_krange("nope..3")
    assert parse_krange("3..3")(g) == [3]
    assert parse_krange("0+1")(g) == [1]
    for spec in ("0", "0..1", "chi..0"):
        with pytest.raises(ValueError, match="palette sizes start at 1"):
            parse_krange(spec)
    code, out = run_cli(["verify-class", "-", "solver", "--krange", "0"],
                        stdin=write_graph6(make_named("C", 5)))
    assert code == 2 and parse_report(out)["records"] == []


@pytest.mark.parametrize("spec", ["5..3", "4+2..5", "3..2"])
def test_verify_class_reversed_numeric_krange_is_usage_error(spec):
    code, out = run_cli(["verify-class", "-", "cycle", "--krange", spec],
                        stdin=write_graph6(make_named("C", 5)))
    assert code == 2
    rep = parse_report(out)
    assert rep["error"] == f"bad krange: {spec!r} is empty"
    assert rep["records"] == []


def test_verify_class_empty_krange_on_a_graph_is_an_error_row():
    """chi..2 is empty on C5 (chi = 3) but not on C4: the empty graph gets
    an error row instead of verifying nothing."""
    c5, c4 = write_graph6(make_named("C", 5)), write_graph6(make_named("C", 4))
    code, out = run_cli(["verify-class", "-", "cycle", "--krange", "chi..2"],
                        stdin=f"{c5}\n{c4}\n")
    rep = parse_report(out)
    assert rep["records"][0] == {
        "graph6": c5, "error": "BadParam: krange 'chi..2' is empty on this graph"}
    assert [(r["graph6"], r["k"], r["outcome"]) for r in rep["records"][1:]] == \
        [(c4, 2, "ANN_WINS")]
    assert rep["summary"]["errors"] == 1 and rep["summary"]["instances"] == 2


def test_analyze_exact():
    code, out = run_cli(["analyze", "C5", "--exact"])
    assert code == 0
    rep = parse_report(out)
    rec = rep["records"][0]
    assert rec["chi"] == 3 and rec["omega"] == 2 and rec["col"] == 3
    assert rec["chi_i"] == 3
    assert rec["winnable"] == {"1": False, "2": False, "3": True}
    assert rec["classes"]["has_induced_c5"]


def test_analyze_k4_exact():
    code, out = run_cli(["analyze", "K4", "--exact"])
    rep = parse_report(out)
    rec = rep["records"][0]
    assert rec["chi_i"] == 4
    assert rec["winnable"]["4"] is True
    assert code == 0


def test_analyze_decompose_wheel():
    code, out = run_cli(["analyze", "W5", "--decompose", "p5k4kitebull"])
    assert code == 0
    rec = parse_report(out)["records"][0]
    dec = rec["decomposition"]["p5k4kitebull"]
    assert len(dec["B"]) == 1 and dec["chi"] == 4


def test_analyze_malformed_input_exits_2():
    code, out = run_cli(["analyze", "thisisnotagraph~~~"])
    assert code == 2
    assert "error" in parse_report(out)
    for sizes in ("1,,1,1,1", "1,1,1,1,1,"):  # an empty expansion size
        code, out = run_cli(["analyze", f"KC5:{sizes}"])
        assert code == 2
        assert parse_report(out)["error"] == \
            f"BadParam: expansion sizes {sizes!r} is not a comma-separated list of integers"


def test_analyze_kmax_zero_is_not_the_default():
    code, out = run_cli(["analyze", "C5", "--exact", "--kmax", "0"])
    assert code == 2
    rep = parse_report(out)
    assert rep["records"][0]["error"] == "chi_i: BadParam: kmax must be >= 1"
    assert "winnable" not in rep["records"][0]


def test_analyze_over_limit_keeps_partial_results():
    code, out = run_cli(["analyze", "P25"])
    assert code == 2
    (rec,) = parse_report(out)["records"]
    assert (rec["omega"], rec["alpha"], rec["col"]) == (2, 13, 2)
    assert rec["classes"]["bipartite"] is True
    assert "chi" not in rec
    assert rec["error"] == "chi: TooLarge: n=25 exceeds chromatic limit 20"
    code, out = run_cli(["analyze", "K16", "--exact"])
    assert code == 2
    (rec,) = parse_report(out)["records"]
    assert rec["chi"] == 16 and "chi_i" not in rec
    assert rec["error"].startswith("chi_i: TooLarge:")


@pytest.mark.parametrize("argv", [
    ["analyze", "P63"],
    ["play", "P63", "2", "degeneracy", "--limit", "70"],
])
def test_graph6_writer_limit_exits_2(argv):
    code, out = run_cli(argv)
    assert code == 2
    assert parse_report(out)["error"].startswith("BadParam:")


def test_analyze_dot_output():
    code, out = run_cli(["analyze", "P3", "--format", "dot"])
    assert code == 0 and "0 -- 1" in out
    code, out = run_cli(["analyze", "P63", "--format", "dot"])
    assert code == 0 and "61 -- 62" in out


def test_flags_a_command_would_ignore_are_rejected():
    """DOT output is analyze's alone and --jobs the corpus commands'."""
    assert run_cli(["play", "C5", "3", "cycle", "--format", "dot"]) == (2, "")
    assert run_cli(["analyze", "C5", "--jobs", "2"]) == (2, "")


def test_analyze_dot_prints_straight_after_parsing(monkeypatch):
    """DOT output runs no oracle, class tag, decomposition or game solve,
    and its text is unchanged; an input over the chi limit exits 0, since
    DOT never shows chi."""
    def refuse(*args, **kwargs):
        raise AssertionError("analysis ran for DOT output")

    for name in ("chi_i", "chi_exact", "omega_exact", "alpha_exact",
                 "degeneracy", "_class_memberships"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli, "_DECOMPOSERS", {k: refuse for k in cli._DECOMPOSERS})
    code, out = run_cli(["analyze", "P3", "--format", "dot", "--exact"])
    assert code == 0
    assert out == "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"
    code, out = run_cli(["analyze", "IC7:2,2,2,2,2,2,2", "--format", "dot", "--exact",
                         "--kmax", "6", "--decompose", "expansion-c5"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "6741b901d9fefe1795351b6f04d5f945017d436ae88fea6f1c1a071b44424d51"
    code, out = run_cli(["analyze", "P25", "--format", "dot"])
    assert code == 0 and out.count(" -- ") == 24


def test_play_transcript():
    code, out = run_cli(["play", "C5", "3", "cycle"])
    assert code == 0
    rec = parse_report(out)["records"][0]
    assert rec["outcome"] == "ANN_WINS" and rec["plies"] == 5


def test_play_scripted_ben_loss():
    # bad selector scenario: solver strategy needs a winnable position
    code, out = run_cli(["play", "C5", "2", "solver"])
    assert code == 2
    code, out = run_cli(["play", "K3", "3", "solver"])
    assert code == 0
    assert parse_report(out)["records"][0]["outcome"] == "ANN_WINS"


def test_solver_strategies_take_the_limit():
    """--limit reaches the solver-backed strategies, not only the adversary."""
    too_large = "TooLarge: n=15 exceeds solve limit 14"
    code, out = run_cli(["play", "P15", "2", "solver"])
    assert code == 2 and parse_report(out)["error"] == too_large
    code, out = run_cli(["play", "P15", "2", "solver", "--limit", "16"])
    assert code == 0 and parse_report(out)["records"][0]["outcome"] == "ANN_WINS"
    p15 = write_graph6(make_named("P", 15))
    for name in ("solver", "bipartite-solver"):
        for limit, want in (([], {"error": too_large}),
                            (["--limit", "16"], {"outcome": "ANN_WINS"})):
            _, out = run_cli(["verify-class", "-", name, "--krange", "2"] + limit,
                             stdin=p15)
            (rec,) = parse_report(out)["records"]
            assert want.items() <= rec.items(), rec


def test_play_scripted_order_too_short_exits_2():
    code, out = run_cli(["play", "C5", "3", "scripted:0"])
    assert code == 2
    assert parse_report(out)["error"] == \
        "StrategyInvariantViolation: order ran out of uncolored vertices"


def test_play_unknown_strategy():
    code, _ = run_cli(["play", "C5", "3", "nope"])
    assert code == 2


def test_verify_class_from_stdin():
    lines = "\n".join(write_graph6(complete_expansion(make_named("C", 5), m))
                      for m in ((1, 1, 1, 1, 1), (2, 1, 1, 1, 1)))
    code, out = run_cli(["verify-class", "-", "kc5", "--krange", "chi..chi+1"],
                        stdin=lines)
    assert code == 0
    rep = parse_report(out)
    assert rep["summary"]["instances"] == 4
    assert rep["summary"]["failures"] == 0
    assert all(r["outcome"] == "ANN_WINS" for r in rep["records"])


def test_verify_class_records_errors_not_fatal():
    lines = write_graph6(make_named("Petersen"))
    code, out = run_cli(["verify-class", "-", "kc5"], stdin=lines)
    rep = parse_report(out)
    assert rep["summary"]["errors"] == 1
    assert code == 0


def test_verify_class_empty_corpus(tmp_path):
    corpus = tmp_path / "empty.g6"
    corpus.write_text("")
    code, out = run_cli(["verify-class", str(corpus), "kc5"])
    assert code == 0
    assert parse_report(out)["summary"]["instances"] == 0


def test_verify_class_missing_file():
    code, _ = run_cli(["verify-class", "/nonexistent/x.g6", "kc5"])
    assert code == 2


@pytest.mark.parametrize("stdin", ["", write_graph6(make_named("C", 5))])
def test_verify_class_bad_krange_is_usage_error(stdin):
    code, out = run_cli(["verify-class", "-", "kc5", "--krange", "1..x"],
                        stdin=stdin)
    assert code == 2
    rep = parse_report(out)
    assert "bad krange" in rep["error"]
    assert rep["records"] == []


def test_check_invariants_small(tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text("\n".join([
        write_graph6(make_named("C", 5)),
        write_graph6(make_named("K", 4)),
        write_graph6(make_named("P", 4)),
    ]) + "\n")
    code, out = run_cli(["check", str(corpus), "sandwich"])
    assert code == 0
    assert all(r["ok"] for r in parse_report(out)["records"])
    code, out = run_cli(["check", str(corpus), "chordal-equality", "--kmax", "5"])
    assert code == 0
    code, out = run_cli(["check", str(corpus), "detector-oracle"])
    assert code == 0


def test_detector_oracle_verifies_each_witness(monkeypatch):
    """A witness that is no induced embedding is a disagreement, even when
    find_induced and the brute force agree that one exists."""
    from dataclasses import replace

    real = cli.find_induced

    def rotated_witness(g, pat):
        emb = real(g, pat)
        return emb and replace(emb, map=emb.map[1:] + emb.map[:1])

    bull = write_graph6(make_named("Bull"))
    code, out = run_cli(["check", "-", "detector-oracle"], stdin=bull)
    assert code == 0 and parse_report(out)["records"][0]["ok"]
    monkeypatch.setattr(cli, "find_induced", rotated_witness)
    code, out = run_cli(["check", "-", "detector-oracle"], stdin=bull)
    record = parse_report(out)["records"][0]
    assert code != 0 and not record["ok"]
    assert record["disagreements"] == [bull]


@pytest.mark.parametrize("invariant", ["sandwich", "formula-kc5", "detector-oracle"])
def test_check_refuses_kmax_its_invariant_does_not_read(invariant):
    code, out = run_cli(["check", "-", invariant, "--kmax", "3"],
                        stdin=write_graph6(make_named("C", 5)))
    assert code == 2
    rep = parse_report(out)
    assert rep["error"] == f"invariant {invariant!r} does not read --kmax"
    assert rep["records"] == []


@pytest.mark.parametrize("invariant, flag", [
    ("formula-kc5", "--limit"), ("formula-kc5", "--budget"),
    ("detector-oracle", "--limit"), ("detector-oracle", "--budget"),
])
def test_check_refuses_limit_and_budget_its_invariant_does_not_read(invariant, flag):
    code, out = run_cli(["check", "-", invariant, flag, "3"], stdin="Dhc\n")
    assert code == 2
    rep = parse_report(out)
    assert rep["error"] == f"invariant {invariant!r} does not read {flag}"
    assert rep["records"] == []


def test_check_non_ascii_graph6_is_error_row():
    """A non-ASCII character makes a malformed record, not a '?' that reads
    "Déc" as the graph D?c."""
    code, out = run_cli(["check", "-", "sandwich"], stdin="Déc\n")
    rep = parse_report(out)
    assert rep["records"] == [{"graph6": "Déc", "error":
                               "MalformedGraph6: non-ASCII character 'é' (byte offset 1)"}]
    assert rep["summary"]["errors"] == 1
    assert code == 0


def test_check_record_fault_is_error_row(tmp_path, monkeypatch):
    """An unexpected exception in one record becomes an error row, as a
    package error does, and the rest of the corpus still runs."""
    import indicated.cli as cli

    lines = [write_graph6(make_named("C", 5)), write_graph6(make_named("K", 4)),
             write_graph6(make_named("P", 4))]
    corpus = tmp_path / "c.g6"
    corpus.write_text("\n".join(lines) + "\n")
    sandwich, reads = cli._INVARIANTS["sandwich"]

    def faulty(g, **flags):
        if write_graph6(g) == lines[1]:
            raise RuntimeError("boom")
        return sandwich(g, **flags)

    monkeypatch.setitem(cli._INVARIANTS, "sandwich", (faulty, reads))
    code, out = run_cli(["check", str(corpus), "sandwich", "--jobs", "1"])
    rep = parse_report(out)
    recs = rep["records"]
    assert [r["graph6"] for r in recs] == lines
    assert recs[0]["ok"] and recs[2]["ok"]
    assert recs[1] == {"graph6": lines[1], "error": "RuntimeError: boom"}
    assert rep["summary"]["errors"] == 1
    # the exit code of any error row, as in test_verify_class_records_errors_not_fatal
    assert code == 0


def test_verify_class_record_fault_is_error_row(monkeypatch):
    import indicated.cli as cli

    def faulty(g, k, *args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "play_match", faulty)
    line = write_graph6(make_named("C", 5))
    code, out = run_cli(["verify-class", "-", "kc5"], stdin=line)
    rep = parse_report(out)
    assert rep["records"] == [{"graph6": line, "k": 3, "strategy": "kc5",
                               "error": "RuntimeError: boom"}]
    assert code == 0


def test_check_formula_kc5():
    lines = "\n".join(write_graph6(complete_expansion(make_named("C", 5), m))
                      for m in ((1, 1, 1, 1, 1), (2, 2, 1, 1, 2)))
    code, out = run_cli(["check", "-", "formula-kc5"], stdin=lines)
    assert code == 0
    assert all(r["ok"] for r in parse_report(out)["records"])


def test_reports_roundtrip_and_determinism():
    rep = make_report("analyze", [{"graph6": "Dhc", "ok": True}])
    text = serialize_report(rep)
    assert parse_report(text) == rep
    assert serialize_report(parse_report(text)) == text
    rep = make_report("check", [{"moves": [[0, 1], [2, 3]], "b": None, "a": 1.5,
                                 "name": "K\u2083 \"x\"", "empty": {}, "none": []},
                                {"error": "E: \n"}], extra={"invariant": "sandwich"})
    assert serialize_report(rep) == json.dumps(rep, sort_keys=True, indent=2) + "\n"


def test_cli_determinism():
    a = run_cli(["analyze", "C5", "--exact"])
    b = run_cli(["analyze", "C5", "--exact"])
    assert a == b


def test_jobs_parallel_matches_serial(tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text("\n".join(
        write_graph6(complete_expansion(make_named("C", 5), m))
        for m in ((1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (1, 2, 1, 2, 1))) + "\n")
    code1, out1 = run_cli(["verify-class", str(corpus), "kc5"])
    code2, out2 = run_cli(["verify-class", str(corpus), "kc5", "--jobs", "2"])
    assert (code1, out1) == (code2, out2)


def test_exit_code_on_violation(tmp_path):
    rep = make_report("enumerate_check", [{"graph6": "x", "ok": False}])
    from indicated.reports import exit_code

    assert exit_code(rep) == 1


def test_verify_class_kc5_grid():
    import itertools

    lines = "\n".join(write_graph6(complete_expansion(make_named("C", 5), m))
                      for m in itertools.product((1, 2), repeat=5))
    code, out = run_cli(["verify-class", "-", "kc5", "--krange", "chi..chi+2",
                         "--limit", "16"], stdin=lines)
    assert code == 0
    rep = parse_report(out)
    assert rep["summary"]["instances"] == 96
    assert rep["summary"]["failures"] == 0 and rep["summary"]["errors"] == 0


def test_verify_class_bipartite_solver(tmp_path, connected_le7):
    from indicated.detect import is_bipartite

    corpus = tmp_path / "bip.g6"
    corpus.write_text("\n".join(write_graph6(g) for g in connected_le7
                                if is_bipartite(g) is not None) + "\n")
    code, out = run_cli(["verify-class", str(corpus), "bipartite-solver",
                         "--krange", "2..2"])
    assert code == 0
    rep = parse_report(out)
    assert rep["summary"]["failures"] == 0 and rep["summary"]["errors"] == 0
    assert rep["summary"]["instances"] == 72


def test_check_formula_kc5_all_243():
    import itertools

    lines = "\n".join(write_graph6(complete_expansion(make_named("C", 5), m))
                      for m in itertools.product((1, 2, 3), repeat=5))
    code, out = run_cli(["check", "-", "formula-kc5"], stdin=lines)
    assert code == 0
    rep = parse_report(out)
    assert rep["summary"]["instances"] == 243
    assert rep["summary"]["violations"] == 0 and rep["summary"]["errors"] == 0


def test_play_scripted_selector_loses_c4():
    code, out = run_cli(["play", "C4", "2", "scripted:0,2"])
    rec = parse_report(out)["records"][0]
    assert rec["outcome"] == "BEN_WINS" and rec["plies"] == 2
    assert rec["blocked"] in (1, 3)
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["C5", "3", "scripted:a,1"],
    ["C5", "3", "scripted:"],
    ["C5", "3", "scripted:0,9"],
    ["C5", "3", "scripted:0,5"],
    ["C5", "3", "scripted:-1"],
    ["C4", "2", "solver", "--ben", "script", "--script", "1,x"],
    ["KC5:1,,1,1,1", "3", "kc5"],
    ["KC5:1,1,1,1,1,", "3", "kc5"],
])
def test_play_malformed_arguments_exit_2(argv):
    code, out = run_cli(["play"] + argv)
    assert code == 2
    assert parse_report(out)["error"].startswith("BadParam:")


@pytest.mark.slow
def test_check_sandwich_full_corpus():
    from conftest import DATA

    code, out = run_cli(["check", str(DATA / "connected_le7.g6"), "sandwich"])
    assert code == 0
    rep = parse_report(out)
    assert rep["summary"]["instances"] == 996
    assert rep["summary"]["violations"] == 0 and rep["summary"]["errors"] == 0


@pytest.mark.slow
def test_check_chordal_equality_full_corpus():
    from conftest import DATA

    code, out = run_cli(["check", str(DATA / "connected_le7.g6"),
                         "chordal-equality", "--kmax", "7"])
    assert code == 0
    rep = parse_report(out)
    assert rep["summary"]["violations"] == 0 and rep["summary"]["errors"] == 0


@pytest.mark.parametrize("argv,digest", [
    (["check", "connected_le7.g6", "sandwich"],
     "66037cbd8d073e448543d3162f5625e437c063916787aa367e467c6cacf40aee"),
    (["analyze", "KC5:3,3,2,2,2", "--exact"],
     "b42bd5bc7f4af5b2434b3469011519b09c24ef98e629ce0d893c4eb711c34514"),
    (["analyze", "Petersen", "--exact"],
     "afa76d0eaf79a2ed66cf5a631bf9080381494f990a8203bd3340d9865f4865da"),
    (["analyze", "N@@?ewoBPcHGVTCg@iO", "--decompose", "p5c4"],
     "f684a3bd2de9ca8b614c739170d32a89a642c29eb61a50fa854a7660c7fdb3a7"),
    (["analyze", "KXFG?F~~o@_@", "--decompose", "p5k4kitebull"],
     "68f47cdee371cb224da980867e09243ab403d413159d32a6b3d699dab6b16f26"),
    (["analyze", "IzCKJmYz?", "--decompose", "p6c5claw"],
     "716338e66e898a23b65f3f06cf9a57eb8b0343327ad80ce7fdc0a64a106b34bc"),
    (["verify-class", "connected_le7.g6", "kc5", "--krange", "chi..chi+1"],
     "aa318cc1170f64e5508e15a5754a65429644f36ddc59f6a7ba98702838b25f25"),
    (["verify-class", "connected_le7.g6", "kc6", "--krange", "chi..chi+1"],
     "64d788d0cdf8d139b29fbd83ee8d9387bc77fbd71bd197bbe0754de963c7ee62"),
    (["verify-class", "connected_le7.g6", "p5c4", "--krange", "chi..chi+1"],
     "daf713d5472a7bc028bff81bdf58a0ed12fbcd80a37d1c5f16dca67e8dbe34ef"),
    (["verify-class", "connected_le7.g6", "p5k4kitebull", "--krange", "chi..chi+1"],
     "bc86c8b7d331a5eed4a504f99a66e322138b6eb6102342968781dfe496f80bab"),
    (["verify-class", "connected_le7.g6", "split-c5-clique", "--krange", "chi..chi+1"],
     "605befc0deae53ac1786b71d2b5d5397728d1276f0081ebee5a36601b79558a9"),
    (["verify-class", "connected_le7.g6", "split-c5", "--krange", "chi..chi+1"],
     "08d02dc94c19b4a42632e758f3ceaae52a558f0ef80df4cdc58e551efd361e34"),
    (["verify-class", "connected_le7.g6", "p6c5", "--krange", "chi..chi+1"],
     "bfb8bf563d2698189dee3e373ad76a279344413c1bf4e1268189a012464d6894"),
], ids=["sandwich", "kc5-exact", "petersen-exact", "p5c4-two-pods",
        "p5k4kitebull-apex", "p6c5claw-three-b", "verify-kc5", "verify-kc6",
        "verify-p5c4", "verify-p5k4kitebull", "verify-split-c5-clique",
        "verify-split-c5", "verify-p6c5"])
def test_golden_report_hashes(argv, digest):
    """A change to the search or to a strategy keeps every canonical report
    byte-identical: the verify-class rows pin each class plan's moves."""
    from conftest import DATA

    argv = [str(DATA / a) if a.endswith(".g6") else a for a in argv]
    code, out = run_cli(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_analyze_more_decomposers():
    code, out = run_cli(["analyze", "IC5:2,1,1,1,1", "--decompose", "sumner"])
    assert code == 0
    rec = parse_report(out)["records"][0]
    assert rec["decomposition"]["sumner"][0]["kind"] == "ic5"
    code, out = run_cli(["analyze", "KC6:2,1,1,1,1,1", "--decompose", "p6c5claw"])
    assert code == 0
    assert parse_report(out)["records"][0]["decomposition"]["p6c5claw"]["complete_expansion"]
    code, out = run_cli(["analyze", "W5", "--decompose", "p5c4"])
    assert code == 0
    rec = parse_report(out)["records"][0]
    assert len(rec["decomposition"]["p5c4"]["pods"]) == 1
    code, out = run_cli(["analyze", "KC5:2,1,2,1,1", "--decompose", "expansion-c5"])
    assert code == 0
    assert parse_report(out)["records"][0]["decomposition"]["expansion-c5"] is not None
    # out-of-class request is a recorded violation, not a crash
    code, out = run_cli(["analyze", "Petersen", "--decompose", "p5k4kitebull"])
    assert code == 1
    assert parse_report(out)["records"][0]["ok"] is False
