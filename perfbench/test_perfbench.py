"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the
repository root.  They exercise the benchmark's own rules and checks; the
package's tests live in ``tests/``."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def _repo_root(monkeypatch):
    monkeypatch.chdir(HERE.parent)  # plans read the catalog from src/


# ------------------------------------------------------------- statistics


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    value, pct, n = stats.tail([float(i) for i in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    value, pct, n = stats.tail([float(i) for i in range(40, 0, -1)])
    assert (value, pct, n) == (30.0, 75.0, 40)
    assert stats.tail([1.0] * 19) is None


def test_self_time_subtracts_direct_children():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert stats.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_nested_spans_and_pairs():
    tr = tracing.Tracer()

    def leaf():
        return 1

    wrapped_leaf = tr.wrap(leaf, "leaf")

    def mid():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_mid = tr.wrap(mid, "mid")
    assert wrapped_mid() == 2  # inactive outside ops: no spans
    assert len(tr.start) == 0
    tr.run_op(0, wrapped_mid)
    agg = tr.aggregate()
    assert agg["calls"] == {"op": 1, "mid": 1, "leaf": 2}
    assert agg["pairs"] == {"op<": 1, "mid<op": 1, "leaf<mid": 2}
    total = sum(agg["self_s"].values())
    assert total == pytest.approx(tr.end[0] - tr.start[0])


# ----------------------------------------------------------------- checks


@pytest.fixture(scope="module")
def sweep_summary():
    wl = workloads.WORKLOADS["sextic-sweep"]
    spec = wl.plan(7, 1)[0]
    return spec, wl.summarize(wl.run(wl.prepare(spec)))


def test_sweep_output_passes_and_tampering_fails(sweep_summary):
    wl = workloads.WORKLOADS["sextic-sweep"]
    golden = workloads.load_golden(wl.name)
    spec, summary = sweep_summary
    assert wl.check(spec, summary, golden) == []

    swapped = copy.deepcopy(summary)
    swapped["minus"][0] = "<1<7>>_2"
    assert wl.check(spec, swapped, golden)

    plus = copy.deepcopy(summary)
    plus["plus"] = ["<1<9>>_2"]
    assert wl.check(spec, plus, golden)

    betti = copy.deepcopy(summary)
    betti["records"][5]["b2minus_Y"] += 2
    assert wl.check(spec, betti, golden)

    replay = copy.deepcopy(summary)
    replay["replays"][3] = False
    assert wl.check(spec, replay, golden)


def test_independent_euler_matches_package():
    from conjquot.domains import Side, TrackedScheme, euler_W
    from conjquot.schemes import default_catalog

    for e in default_catalog():
        forest = workloads.parse_code(e.code)
        for side, outer in (("+", False), ("-", True)):
            t = TrackedScheme(e.scheme, 6, outer)
            assert workloads.nontracked_euler(forest, side) == euler_W(t, Side.NONTRACKED)


def test_trace_check_wants_the_generating_forest():
    wl = workloads.WORKLOADS["trace-grid"]
    spec = {"forest": [[[]], []], "circles": workloads.layout([[[]], []])}
    summary = wl.summarize(wl.run(wl.prepare(spec)))
    assert wl.check(spec, summary, None) == []
    reordered = dict(summary, forest=[[], [[]]])
    assert wl.check(spec, reordered, None) == []
    wrong = dict(summary, forest=[[[]], [[]]])
    assert wl.check(spec, wrong, None)
    unstable = dict(summary, stable=False)
    assert wl.check(spec, unstable, None)
    lcurve_wrong = dict(summary, forest=[[] for _ in range(9)])
    assert wl.check({"lcurve": True}, lcurve_wrong, None)


def test_derive_check_compares_with_golden():
    wl = workloads.WORKLOADS["derive-search"]
    golden = workloads.load_golden(wl.name)
    spec = {"source": "<1 u 1<1>>", "target": "<2>", "side": "+", "rel": "rhd"}
    summary = wl.summarize(wl.run(wl.prepare(spec)))
    assert summary["steps"] == 1 and wl.check(spec, summary, golden) == []
    assert wl.check(spec, dict(summary, steps=2), golden)
    assert wl.check(spec, dict(summary, replay=False), golden)
    assert wl.check(spec, dict(summary, end=["()", False]), golden)
    assert wl.check(dict(spec, target="<1<1<1>>>"), summary, golden)


def test_cli_check_compares_stdout_and_exit():
    wl = workloads.WORKLOADS["cli-cold"]
    golden = workloads.load_golden(wl.name)
    spec = wl.plan(1, 1)[0]
    want = golden[spec["command"]]
    assert wl.check(spec, {"stdout": want["stdout"], "exit": want["exit"]}, golden) == []
    assert wl.check(spec, {"stdout": want["stdout"] + " ", "exit": want["exit"]}, golden)
    assert wl.check(spec, {"stdout": want["stdout"], "exit": 1}, golden)


def test_plans_repeat_per_seed():
    for wl in workloads.WORKLOADS.values():
        assert wl.plan(3, 20) == wl.plan(3, 20)
        assert wl.plan(3, 20) != wl.plan(4, 20)


# ---------------------------------------------------------------- tracing


def _traced_counts(ops) -> dict:
    wl = workloads.WORKLOADS["derive-search"]
    inputs = [wl.prepare(s) for s in ops]
    tr = tracing.Tracer()
    tracing.install_hooks(tr)
    try:
        for k, inp in enumerate(inputs):
            tr.run_op(k, wl.run, inp)
    finally:
        tr.uninstall()
    values, left_out = tracing.layer_metrics(tr.aggregate())
    assert left_out == [] and tr.missing == []
    units = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
    return {k: v for k, v in values.items() if units[k] in ("count", "ratio")}


def test_layer_counts_repeat_on_one_seed():
    ops = workloads.WORKLOADS["derive-search"].plan(5, 1)[:6]
    first = _traced_counts(ops)
    assert first["moves.enumerate_calls"] > 0 and first["domains.euler_calls"] > 0
    assert first == _traced_counts(ops)


def test_hooks_are_removed_after_a_traced_run():
    from conjquot import moves, propagation, tracer

    before = (propagation.enumerate_moves, moves.make_move, tracer.np, tracer.PolySpec.evaluate)
    tr = tracing.Tracer()
    tracing.install_hooks(tr)
    tr.uninstall()
    after = (propagation.enumerate_moves, moves.make_move, tracer.np, tracer.PolySpec.evaluate)
    assert before == after


def test_missing_hook_is_reported_not_zero():
    hooks = [h for h in tracing.HOOKS if h[2] != "moves.make_move"]
    hooks.append(("conjquot.moves", "make_move_renamed", "moves.make_move", None))
    tr = tracing.Tracer()
    tracing.install_hooks(tr, hooks)
    tr.uninstall()
    values, left_out = tracing.layer_metrics(tr.aggregate())
    assert tr.missing == ["conjquot.moves.make_move_renamed"]
    for name in ("moves.make_move_calls", "moves.make_move_s", "moves.candidates"):
        assert name in left_out and name not in values
    assert "domains.euler_calls" in values


def _bench() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))


def test_benchmark_json_lists_every_layer_metric():
    values, _ = tracing.layer_metrics(tracing.merge([]))
    produced = set(values) | {
        "cli.interp_ms", "cli.import_ms", "cli.dispatch_ms", "trace.overhead_s", "trace.spans",
    }
    assert produced == {m["name"] for m in _bench()["per_layer"]}
