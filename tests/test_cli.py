import json

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


def test_sweep_sextics(capsys):
    code, out = run(capsys, "sweep", "sextics", "--format", "records")
    assert code == 0
    recs = records(out)
    summary = recs[-1]
    assert summary["minus_side"] == sorted(
        ["<1 u 1<9>>_1", "<1 u 1<8>>_2", "<1<9>>_2", "<1<8>>_2"]
    )
    assert summary["plus_side"] == []


def test_k3_classify(capsys):
    code, out = run(capsys, "k3", "classify", "--xr", "S10+S0", "--format", "records")
    assert code == 0
    assert records(out)[0]["quotient"] == "(S2xS2)"


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
