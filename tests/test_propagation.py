import random
from dataclasses import replace

import pytest

from conjquot.domains import (
    Orientability,
    SurfaceDescriptor,
    TrackedScheme,
    euler_W,
)
from conjquot.moves import Classification, DeleteEmpty, MoveRecord
from conjquot.propagation import (
    EXPECTED_MINUS_EXCEPTIONS,
    Fact,
    Predicate,
    RHD,
    SUCC,
    adjunction_predicates,
    propagate,
    relation_search,
    replay_fact,
    sextic_sweep,
    state_label,
)
from conjquot.schemes import CurveType, load_catalog, parse_viro


def tracked(code, outer=False):
    return TrackedScheme(parse_viro(code), 6, outer)


# -------------------------------------------------------- relation search


def test_search_one_step_contraction():
    cert = relation_search(tracked("<10>_2"), tracked("<9>_2"))
    assert cert is not None and len(cert.moves) == 1
    assert cert.moves[0].classification in (Classification.M0_INV, Classification.M1)
    assert cert.replay(SUCC)


def test_search_trivial_path():
    cert = relation_search(tracked("<5>"), tracked("<5>"))
    assert cert is not None and cert.moves == ()


def test_search_split_step():
    cert = relation_search(tracked("<2>"), tracked("<1 u 1<1>>"))
    assert cert is not None and len(cert.moves) == 1
    assert cert.moves[0].classification is Classification.M1
    assert euler_W(tracked("<2>")) == 2 and euler_W(tracked("<1 u 1<1>>")) == 1
    assert cert.replay(SUCC)


def test_search_respects_relation():
    # growing the tracked side is impossible along the decreasing relation
    assert relation_search(tracked("<1>"), tracked("<2>"), SUCC, max_steps=6) is None
    cert = relation_search(tracked("<1>"), tracked("<2>"), RHD, max_steps=6)
    assert cert is not None and cert.replay(RHD)


def test_certificate_with_a_nonapplying_move_does_not_replay():
    cert = relation_search(tracked("<5>"), tracked("<2>"))
    assert cert is not None and cert.replay(SUCC)
    bogus = MoveRecord(DeleteEmpty((7,)), Classification.M0_INV, -1)
    assert not replace(cert, moves=(bogus, *cert.moves[1:])).replay(SUCC)
    assert not replace(cert, moves=cert.moves[1:]).replay(SUCC)


def test_search_degree_mismatch():
    with pytest.raises(ValueError):
        relation_search(tracked("<1>"), TrackedScheme(parse_viro("<1>"), 4))


def test_search_bounded_report():
    assert relation_search(tracked("<5>"), tracked("<1>"), SUCC, max_steps=3) is None
    cert = relation_search(tracked("<5>"), tracked("<1>"), SUCC, max_steps=6)
    assert cert is not None and len(cert.moves) == 4


# ------------------------------------------------------------- propagation


def small_catalog():
    rows = [
        "<10>\t6\t2\tt",
        "<9>\t6\t2\tt",
        "<9>\t6\t1\tt",
        "<8>\t6\t2\tt",
        "<7>\t6\t2\tt",
    ]
    return load_catalog(rows)


def test_propagate_marks_fusion_chain():
    catalog = small_catalog()
    seeds = [Fact(tracked("<10>_2"), Predicate.ARNOLD_STANDARD, "lcurve-seed")]
    table = propagate(seeds, [], SUCC, catalog)
    marked = {state_label(f.state) for f in table.facts.values()}
    assert "<10>_2+" in marked and "<9>_2+" in marked and "<7>_2+" in marked
    # a fusion edge lands on the type-2 entry; the type-1 state is reached
    # only through an oval death, which leaves the type open
    fact = table.marked(parse_viro("<9>_1"), False)
    assert fact is not None
    assert fact.path[-1]["rewrite"]["kind"] == "delete_empty"
    fact2 = table.marked(parse_viro("<9>_2"), False)
    kinds2 = {step["rewrite"]["kind"] for step in fact2.path}
    assert kinds2 <= {"fuse_siblings", "delete_empty"}


def test_propagate_empty_seeds():
    table = propagate([], [], SUCC, small_catalog())
    assert len(table) == 0


def test_propagate_axiom_edges_cross_sides():
    catalog = small_catalog()
    seeds = [Fact(tracked("<10>_2"), Predicate.ARNOLD_STANDARD, "lcurve-seed")]
    axiom = [(tracked("<9>_2"), tracked("<8>_2", outer=True))]
    table = propagate(seeds, axiom, SUCC, catalog)
    fact = table.marked(parse_viro("<8>_2"), True)
    assert fact is not None and fact.provenance == "axiom-edge"
    assert replay_fact(fact, SUCC)


def test_propagate_is_idempotent(catalog):
    seeds = [Fact(tracked("<10>_2"), Predicate.ARNOLD_STANDARD, "lcurve-seed")]
    table1 = propagate(seeds, [], SUCC, catalog)
    table2 = propagate(list(table1.facts.values()), [], SUCC, catalog)
    assert set(table2.facts) == set(table1.facts)


def test_propagate_rejects_foreign_seed():
    with pytest.raises(ValueError):
        propagate(
            [Fact(tracked("<10>_1"), Predicate.ARNOLD_STANDARD, "lcurve-seed")],
            [],
            SUCC,
            small_catalog(),
        )


def test_propagated_facts_replay(catalog):
    seeds = [
        Fact(tracked("<10>_2"), Predicate.ARNOLD_STANDARD, "lcurve-seed"),
        Fact(tracked("<10>_2", outer=True), Predicate.ARNOLD_STANDARD, "lcurve-seed"),
    ]
    table = propagate(seeds, [], SUCC, catalog)
    assert len(table) > 20
    assert all(replay_fact(f, SUCC) for f in table.facts.values())


@pytest.fixture(scope="module")
def sweep_fact(catalog):
    """A propagated sweep fact reached by three or more moves."""
    facts = sextic_sweep(catalog).table.facts.values()
    return next(
        f for f in facts
        if len(f.path) >= 3 and all(step["edge"] == "move" for step in f.path)
    )


def _with_step(fact, i, **changes):
    path = list(fact.path)
    path[i] = {**path[i], **changes}
    return replace(fact, path=tuple(path))


def test_replay_fact_pins_the_typed_end_state(sweep_fact):
    fact, state, path = sweep_fact, sweep_fact.state, sweep_fact.path
    other_type = CurveType.ONE if state.scheme.curve_type is CurveType.TWO else CurveType.TWO
    assert replay_fact(fact, SUCC)
    flipped = replace(state, outer_tracked=not state.outer_tracked)
    retyped = replace(state, scheme=state.scheme.with_type(other_type))
    corpus = {
        "flipped side": replace(fact, state=flipped),
        "swapped type": replace(fact, state=retyped),
        "swapped steps": replace(fact, path=(path[1], path[0], *path[2:])),
        "outside SUCC": _with_step(fact, 0, classification="M2^-1"),
        "no such oval": _with_step(fact, 0, rewrite={"kind": "delete_empty", "oval": "9.9.9"}),
    }
    replays = {name: replay_fact(f, SUCC) for name, f in corpus.items()}
    assert replays == dict.fromkeys(corpus, False)


# ------------------------------------------------------------------ sweep


def test_sweep_exceptions_exact(catalog):
    report = sextic_sweep(catalog)
    assert sorted(report.minus_exceptions) == sorted(EXPECTED_MINUS_EXCEPTIONS)
    assert report.plus_exceptions == ()


def test_sweep_covers_both_sides(catalog):
    report = sextic_sweep(catalog)
    rows = {(r.code, r.side): r for r in report.rows}
    assert len(rows) == 2 * len(catalog)
    assert rows[("<10>_2", "-")].standard  # a seed on the non-orientable side
    assert not rows[("<1<8>>_2", "-")].standard
    assert rows[("<1<8>>_1", "-")].standard


def test_sweep_quotient_words(catalog):
    report = sextic_sweep(catalog)
    rows = {(r.code, r.side): r for r in report.rows}
    assert rows[("<10>_2", "+")].words == ("CP2",)
    assert rows[("<9>_1", "+")].words == ("(S2xS2)",)
    assert rows[("<9 u 1<1>>_1", "+")].words == ("(S2xS2)",)
    assert rows[("<9>_2", "+")].b2plus_y == 1


def test_sweep_row_order_ignores_catalog_order(catalog):
    shuffled = [list(catalog), list(catalog)]
    random.Random(1).shuffle(shuffled[0])
    random.Random(2).shuffle(shuffled[1])
    assert shuffled[0] != shuffled[1]
    assert sextic_sweep(shuffled[0]).records() == sextic_sweep(shuffled[1]).records()


def test_sweep_requires_driver_rows(catalog):
    pruned = [e for e in catalog if e.typed_code != "<10>_2"]
    with pytest.raises(ValueError):
        sextic_sweep(pruned)


def test_sweep_certificates_decrease(catalog):
    report = sextic_sweep(catalog)
    for fact in report.table.facts.values():
        assert replay_fact(fact, SUCC)


# -------------------------------------------------------------- adjunction


def sphere(genus=0):
    return SurfaceDescriptor(2 - 2 * genus, Orientability.ORIENTABLE)


def test_adjunction_high_genus_kills_invariants():
    preds = adjunction_predicates([sphere(2)])
    assert any("vanish" in p["statement"] for p in preds)


def test_adjunction_spheres_only():
    preds = adjunction_predicates([sphere(), sphere()], simple_type=True)
    statements = [p["statement"] for p in preds]
    assert any("<= 2" in s for s in statements)
    assert not any("vanish" in s for s in statements)


def test_adjunction_empty_real_part():
    preds = adjunction_predicates([])
    assert preds[0]["statement"].startswith("quotient does not decompose")


def test_adjunction_self_intersection():
    preds = adjunction_predicates([sphere(3)])
    assert any(p["statement"] == "self-intersection 4" for p in preds)
