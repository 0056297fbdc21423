import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import conjquot
from conjquot import tracer
from conjquot.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def records(out):
    return [json.loads(ln) for ln in out.splitlines() if ln.strip()]


def test_scheme_parse(capsys):
    code, out = run(capsys, "scheme", "parse", "<1 u 1<9>>_1", "--format", "records")
    assert code == 0
    (rec,) = records(out)
    assert rec["ovals"] == 11 and rec["type"] == "1"


def test_scheme_parse_error_exit(capsys):
    assert main(["scheme", "parse", "<1"]) == 2


def test_scheme_parse_too_deep_exit(capsys):
    depth = 129
    code = "<" + "1<" * (depth - 1) + "1" + ">" * depth
    assert main(["scheme", "parse", code]) == 2
    err = capsys.readouterr().err
    assert "nest deeper than 128" in err and "Traceback" not in err


def test_scheme_parse_too_many_ovals_exit(capsys):
    assert main(["scheme", "parse", "<32387>"]) == 2
    err = capsys.readouterr().err
    assert "more than 32386 ovals" in err and "Traceback" not in err


def test_stdout_write_error_exit(monkeypatch, capsys):
    class Full:
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["scheme", "parse", "<1>"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: [Errno 28] No space left on device"]
    assert "Traceback" not in err


def test_scheme_validate_failure_exit(capsys):
    code, out = run(capsys, "scheme", "validate", "<12>", "--degree", "6", "--format", "records")
    assert code == 2
    assert any(r["check"] == "harnack" for r in records(out))


def test_domains_invariants(capsys):
    code, out = run(
        capsys, "domains", "invariants", "<10>_2", "--degree", "6", "--side", "+",
        "--format", "records",
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["chi_W_tracked"] == 10
    assert rec["double_plane"]["b2minus_Y"] == 0


def test_domains_invariants_over_harnack_exit(capsys):
    # Twelve ovals exceed the sextic Harnack bound of 11: no curve has them.
    assert main(["domains", "invariants", "<12>", "--degree", "6", "--side", "+"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "12 ovals exceed the Harnack bound 11" in captured.err
    assert "Traceback" not in captured.err


def test_domains_regions_records(capsys):
    code, out = run(
        capsys, "domains", "invariants", "<1>", "--regions", "--format", "records"
    )
    assert code == 0
    recs = records(out)
    assert {r["owner"] for r in recs} == {"outer", "0"}


def test_moves_enumerate(capsys):
    code, out = run(capsys, "moves", "enumerate", "<10>_2", "--format", "records")
    assert code == 0
    recs = records(out)
    deletes = [r for r in recs if r["rewrite"]["kind"] == "delete_empty"]
    assert deletes[0]["classification"] == "M0^-1"
    assert deletes[0]["result"] == "<9>"


def test_moves_trace_with_log_transform(tmp_path, capsys):
    seq = tmp_path / "moves.jsonl"
    seq.write_text(
        json.dumps({"kind": "fuse_parent_child", "parent": "0", "child": "0.0"})
        + "\n"
        + json.dumps({"kind": "delete_empty", "oval": "0"})
        + "\n"
    )
    code, out = run(
        capsys, "moves", "trace", "<1<1>>", str(seq), "--side", "-", "--format", "records"
    )
    assert code == 0
    recs = records(out)
    assert recs[0]["classification"] == "M1"
    assert recs[-1].get("event") == "log_transform"


def test_moves_apply_bad_lines_exit(tmp_path, capsys):
    for line in ("5", '{"kind": "fuse_parent_child", "parent": "0", "child": "0.5"}'):
        seq = tmp_path / "moves.jsonl"
        seq.write_text(line + "\n")
        assert main(["moves", "apply", "<1<1>>", str(seq)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["apply", "trace"])
@pytest.mark.parametrize(
    "line, message",
    [
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ("[1]", "bad rewrite record [1]: "),
        ('{"kind": "delete_empty", "oval": "0.0"}', "no oval at path 0.0"),
    ],
)
def test_moves_bad_line_names_its_line_exit(tmp_path, capsys, command, line, message):
    # the blank second line counts, so the bad line is line 3 of the file
    seq = tmp_path / "moves.jsonl"
    seq.write_text('{"kind": "delete_empty", "oval": "0.0"}\n\n' + line + "\n")
    assert main(["moves", command, "<1<1>>", str(seq)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: moves line 3: {message}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "rewrite",
    [
        {"kind": "delete_empty", "oval": "outer"},
        {"kind": "split_sibling", "oval": "outer", "keep": []},
        {"kind": "split_nest", "oval": "outer", "enclosed": []},
        {"kind": "split_nest", "oval": "0", "enclosed": ["outer"]},
        {"kind": "fuse_siblings", "first": "outer", "second": "0"},
        {"kind": "fuse_siblings", "first": "0", "second": "outer"},
        {"kind": "fuse_parent_child", "parent": "0", "child": "outer"},
    ],
)
def test_moves_apply_outer_as_an_oval_exit(tmp_path, capsys, rewrite):
    # "outer" names the outer region: only add_empty's region may be it
    seq = tmp_path / "moves.jsonl"
    seq.write_text(json.dumps(rewrite) + "\n")
    assert main(["moves", "apply", "<1 u 1>", str(seq)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("keep", [[True], [1.0], [0, 0]])
def test_moves_apply_keep_no_encoder_writes_exit(tmp_path, capsys, keep):
    # keep lists distinct int indices: a bool or a float equal to one is not one
    seq = tmp_path / "moves.jsonl"
    seq.write_text(json.dumps({"kind": "split_sibling", "oval": "0", "keep": keep}) + "\n")
    assert main(["moves", "apply", "<1<2>>", str(seq)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["apply", "trace"])
def test_moves_nesting_past_the_depth_cap_exit(tmp_path, capsys, command):
    # the d-th split_nest grows a child under the oval d deep
    seq = tmp_path / "moves.jsonl"
    seq.write_text(
        "".join(
            json.dumps({"kind": "split_nest", "oval": ".".join("0" * d), "enclosed": []})
            + "\n"
            for d in range(1, 131)
        )
    )
    assert main(["moves", command, "<1>", str(seq)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "move 128 nests deeper than 128" in captured.err
    assert "Traceback" not in captured.err


def test_search_derive(capsys):
    code, out = run(
        capsys, "search", "derive", "<10>_2", "<9>_2", "--side", "+",
        "--relation", "succ", "--format", "records",
    )
    assert code == 0
    recs = records(out)
    assert len(recs) == 1 and recs[0]["classification"] in ("M0^-1", "M1")


def test_search_derive_not_found(capsys):
    code, out = run(
        capsys, "search", "derive", "<1>", "<2>", "--side", "+",
        "--max-steps", "3", "--format", "records",
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["found"] is False and "not found" in rec["note"]


def test_search_derive_target_past_the_oval_bound_is_not_searched(capsys):
    # Every searched state has at most MAX_SEARCH_OVALS = 11 ovals, so the
    # answer needs no walk over the whole graph below that bound.
    start = time.perf_counter()
    code, out = run(
        capsys, "search", "derive", "<1>", "<12>", "--side", "+", "--relation", "rhd",
        "--format", "records",
    )
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert records(out) == [{"found": False, "note": "not found <= 64 steps"}]


@pytest.mark.parametrize(
    "argv",
    [
        ["moves", "enumerate", "<12>"],
        ["moves", "apply", "<12>", "MOVES"],
        ["moves", "trace", "<12>", "MOVES"],
        ["search", "derive", "<12>", "<0>"],
    ],
)
def test_start_state_past_the_harnack_bound_exit(tmp_path, capsys, argv):
    # No sextic has 12 ovals, so no move starts from <12>.
    seq = tmp_path / "moves.jsonl"
    seq.write_text(json.dumps({"kind": "delete_empty", "oval": "0"}) + "\n")
    assert main([str(seq) if a == "MOVES" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == "error: 12 ovals exceed the Harnack bound 11 of degree 6\n"


def test_search_derive_across_sides_is_not_searched(capsys):
    # No move changes the tracked side, so no path leads from + to -.
    start = time.perf_counter()
    code, out = run(
        capsys, "search", "derive", "<1>", "<2>", "--side", "+", "--target-side", "-",
        "--relation", "rhd", "--format", "records",
    )
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert records(out) == [{"found": False, "note": "not found <= 64 steps"}]


def test_search_derive_negative_max_steps_exit(capsys):
    assert main(["search", "derive", "<10>", "<9>", "--max-steps", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_steps must be >= 0, got -1\n"


def test_facts_propagate(tmp_path, capsys):
    seeds = tmp_path / "seeds.jsonl"
    seeds.write_text(
        json.dumps({"scheme": "<10>_2", "side": "+", "predicate": "ArnoldStandard"})
        + "\n"
        + json.dumps({"edge": "axiom", "from": "<9>_2+", "to": "<1<8>>_1-"})
        + "\n"
    )
    code, out = run(capsys, "facts", "propagate", str(seeds), "--format", "records")
    assert code == 0
    recs = records(out)
    marked = {(r["scheme"], r["side"]) for r in recs}
    assert ("<1<8>>_1", "-") in marked


@pytest.mark.parametrize(
    "line",
    [
        {"side": "+"},
        {"scheme": "<1>"},
        [1, 2],
        {"scheme": 5, "side": "+"},
        {"scheme": "<1>", "side": "x"},
        {"edge": "axiom", "from": "<9>_2+"},
        {"edge": "axiom", "to": "<1<8>>_1-"},
        {"scheme": "<1>", "side": "+", "predicate": 5},
        {"scheme": "<1>", "side": "+", "provenance": 5},
    ],
)
def test_facts_propagate_bad_seed_line_exit(tmp_path, capsys, line):
    seeds = tmp_path / "seeds.jsonl"
    seeds.write_text(json.dumps({"scheme": "<10>_2", "side": "+"}) + "\n" + json.dumps(line) + "\n")
    assert main(["facts", "propagate", str(seeds)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed line 2:") and "Traceback" not in err


def test_facts_propagate_decodes_seeds_at_the_catalog_degree(tmp_path, capsys):
    catalog = tmp_path / "quartics.tsv"
    catalog.write_text("".join(f"{code}\t4\t2\tt\n" for code in ("<1>", "<2>", "<1<1>>")))
    seeds = tmp_path / "seeds.jsonl"
    seeds.write_text(json.dumps({"scheme": "<1>_2", "side": "+"}) + "\n")
    argv = ["facts", "propagate", str(seeds), "--catalog", str(catalog), "--format", "records"]
    code, out = run(capsys, *argv)
    assert code == 0, capsys.readouterr().err
    assert ("<1>_2", "+") in {(r["scheme"], r["side"]) for r in records(out)}


@pytest.mark.parametrize("rows", ["", "<1>\t4\t2\tt\n<1>\t6\t2\tt\n"])
def test_facts_propagate_catalog_without_one_degree_exit(tmp_path, capsys, rows):
    catalog, seeds = tmp_path / "catalog.tsv", tmp_path / "seeds.jsonl"
    catalog.write_text(rows)
    seeds.write_text(json.dumps({"scheme": "<1>_2", "side": "+"}) + "\n")
    assert main(["facts", "propagate", str(seeds), "--catalog", str(catalog)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: the universe must have a single degree\n"


@pytest.mark.parametrize(
    "edge",
    [
        # 13 ovals, past the sextic Harnack bound; then 30 ovals.
        {"edge": "axiom", "from": "<9>_2+", "to": "<1<11>>_1-"},
        {"edge": "axiom", "from": "<30>_2+", "to": "<1<8>>_1-"},
    ],
)
def test_facts_propagate_axiom_edge_outside_the_universe_exit(tmp_path, capsys, edge):
    seeds = tmp_path / "seeds.jsonl"
    seeds.write_text(
        json.dumps({"scheme": "<10>_2", "side": "+"}) + "\n" + json.dumps(edge) + "\n"
    )
    assert main(["facts", "propagate", str(seeds)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("error: axiom edge ") and "not in the degree-6 universe" in line


def test_facts_propagate_non_json_seed_line_exit(tmp_path, capsys):
    seeds = tmp_path / "seeds.jsonl"
    seeds.write_text(json.dumps({"scheme": "<10>_2", "side": "+"}) + "\nnot json\n")
    assert main(["facts", "propagate", str(seeds)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed line 2: Expecting value: line 1 column 1 (char 0)\n"


def test_sweep_sextics(capsys):
    code, out = run(capsys, "sweep", "sextics", "--format", "records")
    assert code == 0
    recs = records(out)
    summary = recs[-1]
    assert summary["minus_side"] == sorted(
        ["<1 u 1<9>>_1", "<1 u 1<8>>_2", "<1<9>>_2", "<1<8>>_2"]
    )
    assert summary["plus_side"] == []


@pytest.mark.parametrize("missing", ["<9 u 1<1>>_1", "<1<8>>_1"])
def test_sweep_sextics_missing_required_row_exit(tmp_path, capsys, missing):
    # A seed row and the axiom edge's target.
    catalog = conjquot.default_catalog()
    rows = [f"{e.code}\t6\t{e.curve_type.value}\tt" for e in catalog if e.typed_code != missing]
    assert len(rows) == len(catalog) - 1
    path = tmp_path / "catalog.tsv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["sweep", "sextics", "--catalog", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: catalog is missing the required entry {missing}\n"


def test_sweep_sextics_non_sextic_catalog_exit(tmp_path, capsys):
    # The packaged rows relabelled as degree 8: the sweep's seeds, Betti
    # numbers and words are those of sextics, so it refuses them.
    rows = [f"{e.code}\t8\t{e.curve_type.value}\tt" for e in conjquot.default_catalog()]
    path = tmp_path / "catalog.tsv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["sweep", "sextics", "--catalog", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the sextic sweep needs a catalog of degree-6 rows only\n"


@pytest.mark.parametrize("command", ["sweep", "facts"])
@pytest.mark.parametrize("degree", ["\uff16", "6_0", "+6"])
def test_catalog_degree_is_plain_digits_exit(tmp_path, capsys, command, degree):
    # int() reads a fullwidth 6 as 6 and 6_0 as 60; the catalog's degree
    # field follows the one rule for integers typed by hand.
    rows = [f"{e.code}\t6\t{e.curve_type.value}\tt" for e in conjquot.default_catalog()]
    rows[0] = rows[0].replace("\t6\t", f"\t{degree}\t")
    path = tmp_path / "catalog.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    seeds = str(Path(__file__).parent / "goldens" / "sweep-seeds.jsonl")
    argv = ["sweep", "sextics"] if command == "sweep" else ["facts", "propagate", seeds]
    assert main([*argv, "--catalog", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: bad catalog row: ") and degree in line


@pytest.mark.parametrize(
    "row, reason",
    [
        ("<1>\t6\t3\tx", "type must be 1 or 2, got '3'"),
        ("<12>\t6\t2\tx", "<12> violates the Harnack bound"),
        ("<1\t6\t2\tx", "expected '>' (at position 2)"),
    ],
)
def test_catalog_entry_errors_name_the_row_exit(tmp_path, capsys, row, reason):
    # A row that splits into four fields but makes no entry is a bad row
    # too, and its message says why without naming Python's enum.
    path = tmp_path / "catalog.tsv"
    path.write_text(row + "\n", encoding="utf-8")
    assert main(["sweep", "sextics", "--catalog", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: bad catalog row: {row!r}: {reason}\n")


def test_k3_classify(capsys):
    code, out = run(capsys, "k3", "classify", "--xr", "S10+S0", "--format", "records")
    assert code == 0
    assert records(out)[0]["quotient"] == "(S2xS2)"


@pytest.mark.parametrize(
    "xr, message",
    [
        ("11S0", "chi(XR) = 22 breaks Comessatti's bound"),
        ("12S0", "chi(XR) = 24 breaks Comessatti's bound"),
        ("13S0", "at most 12 components, got 13"),
        ("S0+-2S1", "multiplicity -2 of S1 must be at least 1"),
        ("1000000S0", "at most 12 components, got 1000000"),
        ("X5", "component 'X5' is not of the form kSg"),
        # A multiplicity or genus is ASCII digits.
        ("\uff18S0", "is not of the form kSg"),
        ("S\uff11", "is not of the form kSg"),
        ("S0+-S1", "component '-S1' is not of the form kSg"),
        ("1 0S0", "component '1 0S0' is not of the form kSg"),
    ],
)
def test_k3_classify_impossible_real_part_exit(capsys, xr, message):
    assert main(["k3", "classify", "--xr", xr]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert message in captured.err and "Traceback" not in captured.err


def test_construct_v_and_u(capsys):
    code, out = run(
        capsys, "construct", "v", "<J>", "--base-degree", "3", "--on-pseudoline",
        "--format", "records",
    )
    assert code == 0 and records(out)[0]["scheme"] == "<9>_1"
    code, out = run(
        capsys, "construct", "u", "<J u 1>_1", "--base-degree", "3",
        "--basepoints", "J:9", "--format", "records",
    )
    assert code == 0 and records(out)[0]["scheme"] == "<9 u 1<1>>_1"


def test_construct_u_basepoints_named_twice_exit(capsys):
    argv = ["construct", "u", "<J u 1>_1", "--base-degree", "3", "--basepoints", "J:4,J:9"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "twice" in err and "Traceback" not in err


def test_construct_u_with_a_basepoint_on_each_of_many_ovals(capsys):
    # Basepoints are looked up by path, not found by a walk of the forest per key.
    points = ",".join(f"{i}:1" for i in range(63 * 63))
    start = time.perf_counter()
    code, out = run(
        capsys, "construct", "u", "<3969>", "--base-degree", "63", "--basepoints", points,
        "--format", "records",
    )
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert records(out)[0]["scheme"] == "<3969>"


def test_construct_u_wrong_total_on_a_large_base_exit(capsys):
    points = ",".join(f"{i}:1" for i in range(2000))
    start = time.perf_counter()
    argv = ["construct", "u", "<32000>", "--base-degree", "63", "--basepoints", points]
    assert main(argv) == 2
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == "error: basepoints total 2000, expected d = 3969\n"


def test_construct_u_basepoints_on_a_grandchild_exit(capsys):
    # The outer marked oval is two levels above the inner one, not its parent.
    argv = ["construct", "u", "<1<1<1>>>", "--base-degree", "2", "--basepoints", "0:2,0.0.0:2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: basepoints on nested ovals: the bead region of the inner oval is not well defined\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["imaginary", "--base-degree", "-3", "--real-intersections", "9"], "degree >= 1, got -3"),
        (["imaginary", "--base-degree", "0", "--real-intersections", "0"], "degree >= 1, got 0"),
        (["imaginary", "--base-degree", "3", "--real-intersections", "-5"], "0 to 9 real points, not -5"),
        (["imaginary", "--base-degree", "3", "--real-intersections", "10"], "0 to 9 real points, not 10"),
        (["v", "<1>", "--base-degree", "-2"], "degree >= 1, got -2"),
        (["u", "<1>", "--base-degree", "0"], "degree >= 1, got 0"),
        (["v", "<1>", "--base-degree", "180"], "32400 ovals, more than 32386"),
        (["u", "<1>", "--base-degree", "180", "--basepoints", "0:32400"], "32400 ovals, more than 32386"),
        # With the one default doubled fiber: one fiber past the cap.
        (["fibered", "--imaginary-pairs", "32386"], "32387 fibers, more than 32386"),
        (["u", "<1>", "--base-degree", "1", "--basepoints", "0:-1"], "basepoint counts must be >= 0"),
        (["u", "<1>", "--base-degree", "1", "--basepoints", "J:1"], "no pseudoline to carry basepoints"),
        (["v", "<1>", "--base-degree", "1", "--on-pseudoline"], "no pseudoline to carry basepoints"),
        (["u", "<1>", "--base-degree", "1", "--basepoints", "3:1"], "no oval at path 3\n"),
        (["u", "<J>", "--base-degree", "2"], "an even-degree base curve has no pseudoline"),
        (["u", "<1>", "--base-degree", "3", "--basepoints", "0:3"], "basepoints total 3, expected d = 9"),
        (["fibered", "--imaginary-pairs", "-1"], "imaginary pair count must be >= 0"),
        (["fibered", "--elliptic-name", "E", "--fiber-genus", "2"], "named elliptic surface has fiber genus 1"),
        (["fibered", "--quotient", "S1xS3"], "total space must be simply connected"),
        (["fibered", "--quotient", "CP2 # "], "bad word token ''"),
        # A basepoint count is ASCII digits with an optional leading '-', and its path digits only.
        (["u", "<1>", "--base-degree", "1", "--basepoints", "0:1_0"], "count '1_0' is not a plain integer"),
        (["u", "<1>", "--base-degree", "1", "--basepoints", "0:+1"], "count '+1' is not a plain integer"),
        (["u", "<1>", "--base-degree", "1", "--basepoints", "0: 1"], "count ' 1' is not a plain integer"),
        (["u", "<1>", "--base-degree", "1", "--basepoints", "0:\uff11"], "is not a plain integer"),
        (["u", "<1>", "--base-degree", "1", "--basepoints", "\uff10:1"], "bad oval path"),
    ],
)
def test_construct_impossible_degree_exit(capsys, argv, message):
    assert main(["construct", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert message in captured.err and "Traceback" not in captured.err


def test_construct_fibered_negative_genus_exit(capsys):
    argv = ["fibered", "--quotient", "S4", "--fiber-genus", "-1", "--double-fiber-types", "1"]
    assert main(["construct", *argv]) == 2
    assert capsys.readouterr() == ("", "error: fiber genus must be >= 0, got -1\n")


def test_construct_fibered_bad_double_fiber_type_exit(capsys):
    argv = ["fibered", "--quotient", "S4", "--fiber-genus", "1", "--double-fiber-types", "1,3"]
    assert main(["construct", *argv]) == 2
    err = "error: --double-fiber-types: each type must be 1 or 2, got '1,3'\n"
    assert capsys.readouterr() == ("", err)


def test_construct_fibered(capsys):
    code, out = run(
        capsys, "construct", "fibered", "--quotient", "S4", "--fiber-genus", "1",
        "--double-fiber-types", "1", "--elliptic-name", "E(1)", "--format", "records",
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["y_minus"] == "(S2xS2)" and rec["y_plus"]["result"] == "E(1)_0"


def test_trace_poly_inline(capsys):
    code, out = run(
        capsys, "trace", "poly",
        "--poly", "2 0 0 1.0; 0 2 0 1.0; 0 0 2 -0.25",
        "--grid", "128", "--grid-cap", "512", "--format", "records",
    )
    assert code == 0
    assert records(out)[0]["scheme"] == "<1>"


def test_trace_poly_unstable_exit(capsys):
    code, out = run(
        capsys, "trace", "poly", "--poly", "2 0 0 1.0; 0 2 0 1.0; 0 0 2 -0.25",
        "--grid", "64", "--grid-cap", "64", "--format", "records",
    )
    assert code == 3


def test_trace_poly_without_any_scheme_is_untrustworthy_exit(capsys):
    # The line x = y is valid input; no resolution up to the cap traces it,
    # which is an untrustworthy trace (exit 3, a record), not invalid input.
    code, out = run(
        capsys, "trace", "poly", "--poly", "1 0 0 1;0 1 0 -1",
        "--grid", "64", "--grid-cap", "128", "--format", "records",
    )
    assert code == 3
    (rec,) = records(out)
    assert rec["error"].startswith("64: odd degree curve needs exactly one one-sided component")
    assert capsys.readouterr().err == ""


CUBIC_POLY = str(Path(__file__).parent / "goldens" / "cubic.poly")


@pytest.mark.parametrize("value", ["1_0", "+6", "\uff16"])
@pytest.mark.parametrize(
    "argv",
    [
        ["scheme", "validate", "<12>", "--degree"],
        ["search", "derive", "<1>", "<2>", "--max-steps"],
        ["construct", "imaginary", "--real-intersections", "0", "--base-degree"],
        ["trace", "poly", "--poly", "2 0 0 1.0", "--grid"],
    ],
)
def test_integer_flags_read_plain_digits_only(capsys, argv, value):
    # As for a bad --side: argparse refuses the value and exits 2.
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{argv[-1]}: {value!r} is not a plain integer" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["1_0e-3", "\uff11e-3", "1e-3x"])
def test_epsilon_reads_a_plain_real(capsys, value):
    # float() reads 1_0e-3 as 0.01 and a fullwidth 1 as 1; --epsilon follows
    # the one rule for reals typed by hand
    with pytest.raises(SystemExit) as exc:
        main(["trace", "lcurve", "--lines", "l.txt", "--g", "g.poly", "--epsilon", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--epsilon: {value!r} is not a plain real number" in err and "Traceback" not in err


@pytest.mark.parametrize("given", [[], ["--poly", "2 0 0 1.0", "--file", CUBIC_POLY]])
def test_trace_poly_needs_exactly_one_polynomial(capsys, given):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "poly", *given])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--poly" in err and "--file" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "grid, message",
    [
        (["--grid", "0"], "resolution 0 and cap 4096"),
        (["--grid", "64", "--grid-cap", "32"], "resolution 64 and cap 32"),
        (["--grid-cap", "100000"], "cap <= 8192, got resolution 512 and cap 100000"),
    ],
)
def test_trace_poly_bad_grid_exit(capsys, grid, message):
    assert main(["trace", "poly", "--poly", "2 0 0 1.0; 0 2 0 1.0; 0 0 2 -0.25", *grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "poly, message",
    [
        ("2 0 0 1;0 2 0 1;0 0 2 inf", "coefficient inf of monomial (0, 0, 2) is not finite"),
        ("0 0 2 nan", "coefficient nan of monomial (0, 0, 2) is not finite"),
        ("2 0 0 1e308;0 2 0 1e308;0 0 2 -1e308", "their absolute sum is not finite"),
    ],
)
def test_trace_poly_non_finite_form_exit(capsys, poly, message):
    assert main(["trace", "poly", "--poly", poly, "--grid", "16", "--grid-cap", "32"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_trace_poly_degree_above_the_cap_exit(capsys):
    # z^1600 - x^1600 took seconds to expand before it failed to trace; a
    # degree above the cap is refused before any expansion
    start = time.perf_counter()
    code = main(["trace", "poly", "--poly", "0 0 1600 1;1600 0 0 -1", "--grid", "8", "--grid-cap", "16"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and elapsed < 1.0, (code, elapsed)
    assert captured.out == "" and captured.err == "error: degree 1600 is above the cap of 256\n"


@pytest.mark.parametrize(
    "row",
    [
        "0 0 +2 -0.25", "0 0 \uff12 -0.25", "0 0 2_0 -0.25", "0 0 1.5 -0.25", "0 0 2 -0.25 1",
        "0 0 2 1_0", "0 0 2 \uff11",
    ],
)
def test_trace_poly_exponents_are_plain_digits_exit(capsys, row):
    # int() reads +2 and a fullwidth 2 as 2 and 2_0 as 20, and float() 1_0
    # as 10 and a fullwidth 1 as 1; a poly row's exponents follow the one
    # rule for integers typed by hand, its coefficient the one for reals,
    # and a row of five fields is named, not unpacked
    assert main(["trace", "poly", "--poly", f"2 0 0 1;0 2 0 1;{row}", "--grid", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: poly row 3: {row!r} is not 'a b c coefficient' with plain-digit exponents"
        " and a plain real\n"
    )


def test_record_output_is_stable(capsys):
    _, out1 = run(capsys, "sweep", "sextics", "--format", "records")
    _, out2 = run(capsys, "sweep", "sextics", "--format", "records")
    assert out1 == out2
    for ln in out1.splitlines():
        rec = json.loads(ln)
        assert list(rec) == sorted(rec)


def test_table_output(capsys):
    code, out = run(capsys, "k3", "classify", "--xr", "8S0", "--class-vanishes")
    assert code == 0
    assert "CP2 # CP2bar^17" in out


def lcurve_args(tmp_path, lines, g):
    (tmp_path / "lines.txt").write_text(lines)
    (tmp_path / "g.poly").write_text(g)
    return [
        "trace", "lcurve", "--lines", str(tmp_path / "lines.txt"), "--g",
        str(tmp_path / "g.poly"), "--epsilon", "0.001", "--format", "records",
    ]


@pytest.mark.parametrize(
    "lines, g, message",
    [
        ("1 0 0\n1 0 0\n", "2 0 0 1.0\n", "error: lines 0 and 1 coincide"),
        ("1 0 0\n0 1 0\n", "4 0 0 1.0\n", "error: perturbation must have degree 2, got 4"),
        # a row of other than three fields is named, not unpacked, and
        # float() would read 1_0 as 10 and a fullwidth 1 as 1
        ("1 0\n0 1 0\n", "2 0 0 1.0\n", "error: lines row 1: '1 0' is not 'a b c' in plain reals"),
        (
            "1 0 0\n0 1 0 1\n", "2 0 0 1.0\n",
            "error: lines row 2: '0 1 0 1' is not 'a b c' in plain reals",
        ),
        (
            "1_0 0 0\n0 1 0\n", "2 0 0 1.0\n",
            "error: lines row 1: '1_0 0 0' is not 'a b c' in plain reals",
        ),
        (
            "1 0 0\n# y\n0 \uff11 0\n", "2 0 0 1.0\n",
            "error: lines row 3: '0 \uff11 0' is not 'a b c' in plain reals",
        ),
        # a non-finite entry is named by its row, before any norm is taken
        ("inf 0 0\n0 1 0\n", "2 0 0 1.0\n", "error: lines row 1: 'inf 0 0' has a non-finite entry"),
    ],
)
def test_trace_lcurve_invalid_input_exit(tmp_path, capsys, lines, g, message):
    assert main(lcurve_args(tmp_path, lines, g)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.strip() == message


def test_trace_lcurve_internal_error_exit(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise tracer.TracerInternalError("11 ovals from 6 lines break the one-third bound")

    monkeypatch.setattr(tracer, "l_curve_sample", broken)
    code, out = run(capsys, *lcurve_args(tmp_path, "1 0 0\n0 1 0\n", "2 0 0 1.0\n"))
    assert code == 3
    assert "one-third bound" in records(out)[0]["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_trace_lcurve_bad_grid_exit(tmp_path, capsys):
    assert main([*lcurve_args(tmp_path, "1 0 0\n0 1 0\n", "2 0 0 1.0\n"), "--grid", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "resolution 0" in err and "Traceback" not in err


def test_trace_lcurve_exponent_negative_epsilon(capsys):
    goldens = Path(__file__).parent / "goldens"
    code, out = run(
        capsys, "trace", "lcurve", "--lines", str(goldens / "ten-oval-lines.txt"),
        "--g", str(goldens / "definite-sextic.poly"), "--epsilon", "-7.8e-08",
        "--grid", "512", "--grid-cap", "1024", "--format", "records",
    )
    assert code == 0
    assert out == (goldens / "trace-lcurve-ten-ovals.records.out").read_text("utf-8")


def test_every_export_resolves():
    # The tracer names are listed by hand and loaded on first use, so a name
    # the tracer no longer defines would stay in the export list.
    for name in conjquot.__all__:
        getattr(conjquot, name)


SRC = str(Path(conjquot.__file__).parents[1])


def fresh_python(*args):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_symbolic_start_loads_neither_numpy_nor_scipy():
    code = (
        "import sys, conjquot, conjquot.cli\n"
        "assert conjquot.cli.main(['scheme', 'parse', '<1 u 1<9>>_1']) == 0\n"
        "loaded = sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
        "assert not loaded, f'symbolic start loaded {loaded}'\n"
        "from conjquot import GridConfig\n"
        "result = conjquot.trace_scheme(conjquot.tracer.circle(0, 0, 0.5), GridConfig(32, 64))\n"
        "assert result.stable and result.scheme.oval_count == 1\n"
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_symbolic_start_loads_no_dataclasses_json_or_constructions():
    # Value classes compile only their __init__, a table prints without
    # json, and the constructions load with the first construct command.
    code = (
        "import sys, conjquot.cli\n"
        "assert conjquot.cli.main(['scheme', 'parse', '<1 u 1<9>>_1']) == 0\n"
        "unwanted = ('dataclasses', 'inspect', 'json', 'conjquot.constructions')\n"
        "loaded = [m for m in unwanted if m in sys.modules]\n"
        "assert not loaded, f'symbolic start loaded {loaded}'\n"
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_region_back_end_loads_neither_numpy_nor_scipy():
    # The back end is shared by front ends that need no numpy; the
    # tracer raises its error type.
    code = (
        "import sys, conjquot.region_graph\n"
        "loaded = sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
        "assert not loaded, f'conjquot.region_graph loaded {loaded}'\n"
        "import conjquot.tracer\n"
        "assert conjquot.tracer.TraceError is conjquot.region_graph.TraceError\n"
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_loading_the_tracer_shadows_no_package_export():
    # Importing a submodule binds it on the package, so a submodule named
    # like an export other than itself would replace that export once
    # something loads it.
    code = (
        "import importlib, pkgutil, sys, conjquot\n"
        "assert 'conjquot.tracer' not in sys.modules\n"
        "before = {n: getattr(conjquot, n) for n in conjquot.__all__ if n in vars(conjquot)}\n"
        "import conjquot.tracer\n"
        "moved = [n for n in before if getattr(conjquot, n) is not before[n]]\n"
        "assert not moved, f'import conjquot.tracer replaced {moved}'\n"
        "assert conjquot.regions is conjquot.domains.regions\n"
        "lazy = [n for n in conjquot.__all__ if n not in before and n != 'tracer']\n"
        "assert all(o is getattr(sys.modules[o.__module__], n) for n in lazy if not isinstance(o := getattr(conjquot, n), type(sys)))\n"
        "named = {m.name for m in pkgutil.iter_modules(conjquot.__path__)} & set(conjquot.__all__)\n"
        "clash = [n for n in sorted(named)\n"
        "         if getattr(conjquot, n) is not importlib.import_module('conjquot.' + n)]\n"
        "assert not clash, f'submodules named like other exports: {clash}'\n"
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_package_import_reads_no_seed_file_and_parses_no_code():
    # The sweep's declaration is read on first use; the second half shows
    # that the probe sees the read and the parse when they happen.
    code = (
        "import sys\n"
        "def calls_in(run):\n"
        "    names = set()\n"
        "    sys.setprofile(lambda frame, event, arg: names.add(frame.f_code.co_name))\n"
        "    run()\n"
        "    sys.setprofile(None)\n"
        "    return names & {'_sweep_declared', 'from_records', 'parse_viro'}\n"
        "at_import = calls_in(lambda: __import__('conjquot'))\n"
        "assert not at_import, f'import conjquot called {sorted(at_import)}'\n"
        "from conjquot import propagation\n"
        "at_use = calls_in(lambda: propagation.SWEEP_DECLARED)\n"
        "assert len(at_use) == 3, sorted(at_use)\n"
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_trace_error_exit_in_fresh_interpreter():
    done = fresh_python("-m", "conjquot.cli", "trace", "poly", "--poly", "0 0 2 0")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: the zero polynomial has no curve\n"
