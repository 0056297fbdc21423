import copy
import json
import random
from conjquot._values import replace
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjquot.domains import TrackedScheme, euler_W
from conjquot import moves, propagation
from conjquot.moves import (
    SPLITS,
    Classification,
    DeleteEmpty,
    FuseSiblings,
    MoveRecord,
    SplitSibling,
    enumerate_moves,
    make_move,
)
from conjquot.propagation import (
    EXPECTED_MINUS_EXCEPTIONS,
    SWEEP_DECLARED,
    Declared,
    Fact,
    Predicate,
    RHD,
    SUCC,
    fact_key,
    parse_state_label,
    propagate,
    relation_search,
    replay_fact,
    sextic_sweep,
    state_label,
    typed_key,
)
from conjquot.schemes import CurveType, RealScheme, forest_key, iter_forests, load_catalog, parse_viro

from oracles import propagate_uncut, relation_search_unpruned


GOLDENS = Path(__file__).parent / "goldens"


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


def test_search_stays_within_the_degree_harnack_bound():
    # A quartic has at most 4 ovals; under the sextic cap of 11 this
    # certificate went through <3 u 1<1>>, with 5.
    source, target = (TrackedScheme(parse_viro(c), 4, True) for c in ("<4>", "<1<1>>"))
    cert = relation_search(source, target, RHD)
    assert cert is not None and cert.replay(RHD)
    assert max(s.scheme.oval_count for s in cert.states) <= 4
    assert cert.records() == relation_search_unpruned(source, target, RHD).records()


def _same_answer(source, target, rel, max_steps):
    cut = relation_search(source, target, rel, max_steps)
    full = relation_search_unpruned(source, target, rel, max_steps)
    assert (cut is None) == (full is None)
    if cut is not None:
        assert cut.records() == full.records() and cut.states == full.states
    return cut is not None


def test_search_cut_keeps_the_unpruned_certificates_on_catalog_states(catalog):
    # The cut only drops states that cannot reach the target in the steps
    # left, so the search meets the target through the same parents.
    rng = random.Random(10)
    found = 0
    for _ in range(300):
        a, b = rng.choice(catalog).scheme, rng.choice(catalog).scheme
        outer, rel = rng.random() < 0.5, rng.choice((SUCC, RHD))
        found += _same_answer(TrackedScheme(a, 6, outer), TrackedScheme(b, 6, outer), rel, 2)
    assert found > 20


def test_search_cut_keeps_the_unpruned_certificates_on_small_forests():
    rng = random.Random(11)
    small = [RealScheme(roots) for roots in iter_forests(4)]
    found = 0
    for a in small:
        for b in small:
            outer, rel = rng.random() < 0.5, rng.choice((SUCC, RHD))
            found += _same_answer(TrackedScheme(a, 6, outer), TrackedScheme(b, 6, outer), rel, 3)
    assert found > 100


def test_search_cut_skips_hopeless_queries(monkeypatch):
    enumerated = []

    def counted(t, *rest, **kw):
        enumerated.append(t)
        return enumerate_moves(t, *rest, **kw)

    monkeypatch.setattr(propagation, "enumerate_moves", counted)
    # SUCC lowers the tracked Euler characteristic at every step.
    assert euler_W(tracked("<2>")) >= euler_W(tracked("<1>"))
    assert relation_search(tracked("<1>"), tracked("<2>"), SUCC, max_steps=6) is None
    # Nine ovals cannot go in two moves.
    assert relation_search(tracked("<10>_2"), tracked("<1>"), RHD, max_steps=2) is None
    # No move changes the tracked side.
    assert relation_search(tracked("<1>"), tracked("<2>", outer=True), RHD) is None
    assert enumerated == []
    # One oval apart: only the source is expanded, found or not.
    assert relation_search(tracked("<10>_2"), tracked("<9>_2"), SUCC, max_steps=2) is not None
    assert len(enumerated) == 1
    assert relation_search(tracked("<2 u 1<1>>"), tracked("<1<1<1>>>"), RHD, max_steps=2) is None
    assert len(enumerated) == 2


def test_the_search_class_table_names_every_move():
    # The family cut reads each class's oval-count and Euler-characteristic
    # change from one table; every enumerated move must be one of its rows.
    rows = set()
    for roots in iter_forests(6):
        for outer in (False, True):
            t = TrackedScheme(RealScheme(roots), 6, outer)
            for m in enumerate_moves(t):
                dn = m.successor.scheme.oval_count - t.scheme.oval_count
                rows.add((m.classification, dn, m.delta_chi_tracked, isinstance(m.rewrite, SPLITS)))
    assert rows == set(propagation._CLASS_STEPS)


def test_search_work_counts_on_short_budgets(monkeypatch, catalog):
    # Every catalog forest to two targets in at most two moves, both
    # relations and both sides.  The search generates only the move
    # families, and builds only the successors, that can still reach the
    # target: cutting states alone, it made the same 108 enumerations but
    # 2,259 key splices and 1,468 builds.
    counts = dict.fromkeys(("enumerate", "splice", "build"), 0)

    def counted(name, fn):
        def call(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return call

    monkeypatch.setattr(propagation, "enumerate_moves", counted("enumerate", enumerate_moves))
    monkeypatch.setattr(moves, "_successor_key", counted("splice", moves._successor_key))
    monkeypatch.setattr(moves, "make_move", counted("build", make_move))
    sources = {forest_key(e.scheme): e.scheme for e in catalog}.values()
    found = 0
    for target in ("<5 u 1<1>>", "<2 u 1<3>>"):
        for scheme in sources:
            for outer in (False, True):
                for rel in (SUCC, RHD):
                    source = TrackedScheme(scheme, 6, outer)
                    found += relation_search(source, tracked(target, outer), rel, 2) is not None
    assert found == 73
    assert counts == {"enumerate": 108, "splice": 729, "build": 299}


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


def test_propagate_builds_only_the_moves_it_keeps(monkeypatch, catalog):
    # Births, M2 deaths, M1^-1 band moves and splits from a state not of
    # type 2 are skipped before they are built, not built and dropped.
    built, move = [], moves.make_move

    def counted(t, rw):
        m = move(t, rw)
        built.append((t, m))
        return m

    monkeypatch.setattr(moves, "make_move", counted)
    table = propagate(SWEEP_DECLARED.seeds, SWEEP_DECLARED.axiom_edges, SUCC, catalog)
    assert len(table) == 126 and built
    dropped = [
        m
        for t, m in built
        if m.classification not in SUCC.allowed
        or (isinstance(m.rewrite, SPLITS) and t.scheme.curve_type is not CurveType.TWO)
    ]
    assert dropped == []


def test_closure_and_search_build_only_the_successors_they_keep(monkeypatch, catalog):
    # A successor's spliced forest key is checked before it is built: the
    # closure builds a successor that adds a fact and the search one it has
    # not seen (970 and 1,121 builds when every outcome was built).
    built, move = [], moves.make_move

    def counted(t, rw):
        built.append(rw)
        return move(t, rw)

    monkeypatch.setattr(moves, "make_move", counted)
    table = propagate(SWEEP_DECLARED.seeds, SWEEP_DECLARED.axiom_edges, SUCC, catalog)
    assert len(table) == 126 and len(built) <= 200
    built.clear()
    cert = relation_search(tracked("<10>_2"), tracked("<1<1<1>>>"), SUCC)
    assert cert is not None and len(cert.moves) == 9 and len(built) <= 400


def test_sweep_closure_work_counts(monkeypatch, catalog):
    # The closure generates a move family only if its cell still holds a
    # state it can mark, and births and nest splits only as deep as the
    # universe's forests there: uncut, it made 126 enumerations and 1,042
    # key splices for the same 161 builds.
    counts = dict.fromkeys(("enumerate", "splice", "build"), 0)

    def counted(name, fn):
        def call(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return call

    monkeypatch.setattr(propagation, "enumerate_moves", counted("enumerate", enumerate_moves))
    monkeypatch.setattr(moves, "_successor_key", counted("splice", moves._successor_key))
    monkeypatch.setattr(moves, "make_move", counted("build", make_move))
    table = propagate(SWEEP_DECLARED.seeds, SWEEP_DECLARED.axiom_edges, SUCC, catalog)
    assert len(table) == 126
    assert counts == {"enumerate": 100, "splice": 424, "build": 161}


@pytest.mark.parametrize("rel, facts, work", [
    (SUCC, 126, {"enumerate": 100, "keep": 315, "splice": 424, "build": 161}),
    (RHD, 130, {"enumerate": 97, "keep": 352, "splice": 461, "build": 187}),
], ids=["succ", "rhd"])
def test_closure_work_counts_on_the_packaged_declaration(monkeypatch, catalog, rel, facts, work):
    # The closure's work under each relation, with the candidates it offers
    # to ``keep``: the key splices less those the dedupe drops.
    counts = dict.fromkeys(work, 0)

    def counted(name, fn):
        def call(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return call

    def enumerate_counting_keep(t, allowed, **kw):
        return enumerate_moves(t, allowed, **{**kw, "keep": counted("keep", kw["keep"])})

    monkeypatch.setattr(propagation, "enumerate_moves", counted("enumerate", enumerate_counting_keep))
    monkeypatch.setattr(moves, "_successor_key", counted("splice", moves._successor_key))
    monkeypatch.setattr(moves, "make_move", counted("build", make_move))
    table = propagate(SWEEP_DECLARED.seeds, SWEEP_DECLARED.axiom_edges, rel, catalog)
    assert len(table) == facts
    assert counts == work


def _declaration_subsets():
    """The sweep's declaration whole, each of its seeds alone, each axiom
    edge alone with a seed at its source, and each item left out, as
    (seeds, axiom edges)."""
    items = [*SWEEP_DECLARED.seeds, *SWEEP_DECLARED.axiom_edges]
    alone = [[x] if isinstance(x, Fact) else [Fact(x[0], Predicate.ARNOLD_STANDARD, "lcurve-seed"), x]
             for x in items]
    for pick in [items, *alone, *(items[:i] + items[i + 1:] for i in range(len(items)))]:
        yield [x for x in pick if isinstance(x, Fact)], [x for x in pick if not isinstance(x, Fact)]


@pytest.mark.parametrize("rel", [SUCC, RHD], ids=["succ", "rhd"])
def test_closure_matches_the_uncut_reference(catalog, rel):
    # The family cut and the depth cap only skip moves that mark nothing, so
    # every fact and its path are those of the closure over every move.
    for seeds, edges in _declaration_subsets():
        got = propagate(seeds, edges, rel, catalog).records()
        assert got == propagate_uncut(seeds, edges, rel, catalog).records()


def test_the_universe_is_built_once_per_catalog(monkeypatch, catalog):
    # Each of the catalog's 55 distinct forests gets its cell on both sides
    # once, not once per row (130); a second closure over the same rows, in
    # any order, computes no cell.
    calls = []

    def counted(*args):
        calls.append(args)
        return euler_W(*args)

    monkeypatch.setattr(propagation, "euler_W", counted)
    propagation._universe.cache_clear()
    propagate([], [], SUCC, catalog)
    assert len(calls) == 110
    calls.clear()
    propagate([], [], SUCC, catalog[::-1])
    assert calls == []


@pytest.mark.parametrize("rel", [SUCC, RHD], ids=["succ", "rhd"])
def test_closures_over_two_catalogs_read_their_own_universe(catalog, rel):
    # The universe is cached by the catalog's rows, not by its degree: in
    # one process, closures over the packaged catalog and over its rows of
    # at most 3 ovals, in both orders, each match the uncut closure over
    # their own catalog (42 and 8 facts under SUCC, 130 and 14 under RHD).
    small = [e for e in catalog if e.scheme.oval_count <= 3]
    seeds = [Fact(tracked("<3>_2", outer), Predicate.ARNOLD_STANDARD, "lcurve-seed")
             for outer in (False, True)]
    for order in ((catalog, small), (small, catalog)):
        for universe in order:
            got = propagate(seeds, [], rel, universe).records()
            assert got == propagate_uncut(seeds, [], rel, universe).records()
    assert len(propagate(seeds, [], rel, small)) < len(propagate(seeds, [], rel, catalog))


def test_propagate_empty_seeds():
    table = propagate([], [], SUCC, small_catalog())
    assert len(table) == 0


def test_propagate_axiom_edges_cross_sides():
    # The sweep's declared edge, so that the fact replays.
    catalog = [*small_catalog(), *load_catalog(["<1<8>>\t6\t1\tt"])]
    seeds = [Fact(tracked("<10>_2"), Predicate.ARNOLD_STANDARD, "lcurve-seed")]
    axiom = [(tracked("<9>_2"), tracked("<1<8>>_1", outer=True))]
    table = propagate(seeds, axiom, SUCC, catalog)
    fact = table.marked(parse_viro("<1<8>>_1"), True)
    assert fact is not None and fact.provenance == "axiom-edge"
    assert replay_fact(fact, SUCC)


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_propagate_is_idempotent(catalog, data):
    states = [(e.scheme, outer) for e in catalog for outer in (False, True)]
    picked = data.draw(st.sets(st.integers(0, len(states) - 1), min_size=1, max_size=4))
    rel = data.draw(st.sampled_from([SUCC, RHD]))
    seeds = [
        Fact(TrackedScheme(scheme, 6, outer), Predicate.ARNOLD_STANDARD, "lcurve-seed")
        for scheme, outer in (states[i] for i in sorted(picked))
    ]
    table1 = propagate(seeds, [], rel, catalog)
    table2 = propagate(list(table1.facts.values()), [], rel, catalog)
    assert set(table2.facts) == set(table1.facts)


def test_propagate_rejects_foreign_seed():
    with pytest.raises(ValueError):
        propagate(
            [Fact(tracked("<10>_1"), Predicate.ARNOLD_STANDARD, "lcurve-seed")],
            [],
            SUCC,
            small_catalog(),
        )


def test_propagate_rejects_a_seed_of_another_degree():
    # <10>_2 is a universe forest and type; only the degree is foreign.
    seed = Fact(TrackedScheme(parse_viro("<10>_2"), 8), Predicate.ARNOLD_STANDARD, "lcurve-seed")
    with pytest.raises(ValueError, match="seed <10>_2\\+ is not in the degree-6 universe"):
        propagate([seed], [], SUCC, small_catalog())


@pytest.mark.parametrize("foreign", ["from", "to"])
def test_propagate_rejects_an_axiom_end_of_another_degree(foreign):
    seeds = [Fact(tracked("<10>_2"), Predicate.ARNOLD_STANDARD, "lcurve-seed")]
    ends = {"from": tracked("<9>_2"), "to": tracked("<8>_2")}
    ends[foreign] = TrackedScheme(ends[foreign].scheme, 8)
    with pytest.raises(ValueError, match="axiom edge .* is not in the degree-6 universe"):
        propagate(seeds, [(ends["from"], ends["to"])], SUCC, small_catalog())


def test_propagate_rejects_a_mixed_degree_universe():
    universe = [*small_catalog(), *load_catalog(["<9>\t8\t2\tt"])]
    with pytest.raises(ValueError, match="the universe must have a single degree"):
        propagate([], [], SUCC, universe)


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


def _one_step_fact(source, rewrite, target, outer=False):
    """A fact at ``target`` whose path is the single move ``rewrite`` from
    ``source``, both typed codes on one side."""
    m = make_move(tracked(source, outer), rewrite)
    side = "-" if outer else "+"
    step = {"edge": "move", **m.record(), "from": source + side, "to": target + side}
    return Fact(tracked(target, outer), Predicate.ARNOLD_STANDARD, "propagated", (step,))


def _split_fact(source_type):
    """A two-step fact from the seed <1<1<1>>>_1+: the death of the
    innermost oval lands on <1<1>> of the given type, then the inner oval
    splits in two."""
    death = make_move(tracked("<1<1<1>>>_1"), DeleteEmpty((0, 0, 0)))
    split = make_move(tracked(f"<1<1>>_{source_type}"), SplitSibling((0, 0), ()))
    middle = f"<1<1>>_{source_type}+"
    path = (
        {"edge": "move", **death.record(), "from": "<1<1<1>>>_1+", "to": middle},
        {"edge": "move", **split.record(), "from": middle, "to": "<1<2>>_2+"},
    )
    return Fact(tracked("<1<2>>_2"), Predicate.ARNOLD_STANDARD, "propagated", path)


def test_replay_fact_pins_the_typed_end_state(sweep_fact):
    fact, state, path = sweep_fact, sweep_fact.state, sweep_fact.path
    other_type = CurveType.ONE if state.scheme.curve_type is CurveType.TWO else CurveType.TWO
    assert replay_fact(fact, SUCC)
    assert replay_fact(_split_fact(2), SUCC)
    flipped = replace(state, outer_tracked=not state.outer_tracked)
    retyped = replace(state, scheme=state.scheme.with_type(other_type))
    corpus = {
        "flipped side": replace(fact, state=flipped),
        "swapped type": replace(fact, state=retyped),
        "swapped steps": replace(fact, path=(path[1], path[0], *path[2:])),
        "outside SUCC": _with_step(fact, 0, classification="M2^-1"),
        "no such oval": _with_step(fact, 0, rewrite={"kind": "delete_empty", "oval": "9.9.9"}),
        "split from type 1": _split_fact(1),
        "path from an undeclared state": _one_step_fact(
            "<9>_2", SplitSibling((0,), ()), "<10>_2", outer=True
        ),
        "death from a state past the catalog": _one_step_fact(
            "<1<10>>_2", DeleteEmpty((0, 0)), "<1<9>>_2", outer=True
        ),
        "undeclared axiom edge": Fact(
            tracked("<1<9>>_2", outer=True),
            Predicate.ARNOLD_STANDARD,
            "axiom-edge",
            ({"edge": "axiom", "from": "<10>_2+", "to": "<1<9>>_2-"},),
        ),
        "undeclared seed": Fact(
            tracked("<1<9>>_2", outer=True), Predicate.ARNOLD_STANDARD, "lcurve-seed"
        ),
        "seed of another provenance": Fact(
            tracked("<10>_2"), Predicate.ARNOLD_STANDARD, "pencil-perturbation-seed"
        ),
    }
    replays = {name: replay_fact(f, SUCC) for name, f in corpus.items()}
    assert replays == dict.fromkeys(corpus, False)


@pytest.mark.parametrize(
    "seed, catalog_file, closed",
    [
        ('{"scheme": "<5>_2", "side": "+"}', "catalog.tsv", 10),
        # Spelled out of canonical order: paths address the seed's own forest.
        ('{"scheme": "<1<1> u 9>_1", "side": "+"}', None, 53),
    ],
)
def test_facts_replay_against_their_own_declaration(catalog, seed, catalog_file, closed):
    if catalog_file is not None:
        catalog = load_catalog((GOLDENS / catalog_file).read_text("utf-8").splitlines())
    declared = Declared.from_records([seed], 6)
    facts = propagate(declared.seeds, declared.axiom_edges, SUCC, catalog).facts.values()
    assert len(facts) == closed
    assert all(replay_fact(f, SUCC, declared) for f in facts)
    # The sweep declares other seeds, so the check is not vacuous.
    assert not all(replay_fact(f, SUCC, SWEEP_DECLARED) for f in facts)


def test_sweep_seeds_file_declares_the_sweep_inputs():
    with open(GOLDENS / "sweep-seeds.jsonl", encoding="utf-8") as fh:
        declared = Declared.from_records(fh, 6)

    def keys(d):
        seeds = [(fact_key(f), f.provenance) for f in d.seeds]
        return seeds, [(typed_key(a), typed_key(b)) for a, b in d.axiom_edges]

    assert keys(declared) == keys(SWEEP_DECLARED)


def test_the_packaged_sweep_seeds_are_the_golden_seed_file():
    packaged = resources.files("conjquot.data").joinpath("sextic-seeds.jsonl").read_bytes()
    assert packaged == (GOLDENS / "sweep-seeds.jsonl").read_bytes()


def test_default_replay_shares_the_sweep_declaration(monkeypatch, catalog):
    # One declaration per process: a default replay resumes from the memo
    # that earlier default replays filled, so a repeat checks no step.
    assert propagation.SWEEP_DECLARED is propagation.SWEEP_DECLARED
    facts = list(sextic_sweep(catalog).table.facts.values())
    assert all(replay_fact(f) for f in facts)
    calls = []
    monkeypatch.setattr(propagation, "_step", lambda *a: calls.append(a))
    assert all(replay_fact(f) for f in facts) and calls == []


def test_replay_fact_rejects_forgeries_against_a_user_declaration():
    user = Declared.from_records(['{"scheme": "<10>_2", "side": "+"}'], 6)
    death = make_move(tracked("<10>_2"), DeleteEmpty((0,)))
    to_nine = {"edge": "move", **death.record(), "from": "<10>_2+", "to": "<9>_2+"}
    corpus = {
        "forged seed": Fact(
            tracked("<10>_2", outer=True), Predicate.ARNOLD_STANDARD, "lcurve-seed"
        ),
        "path from a forged seed": _one_step_fact("<9>_1", DeleteEmpty((0,)), "<8>_2"),
        "forged axiom step": Fact(
            tracked("<1<8>>_1", outer=True),
            Predicate.ARNOLD_STANDARD,
            "axiom-edge",
            (to_nine, {"edge": "axiom", "from": "<9>_2+", "to": "<1<8>>_1-"}),
        ),
    }
    step_fact = Fact(tracked("<9>_2"), Predicate.ARNOLD_STANDARD, "propagated", (to_nine,))
    assert replay_fact(step_fact, SUCC, user)
    # Each forgery is sound against the sweep's declaration, which has that
    # seed and that edge; only the user's declaration rejects it.
    assert all(replay_fact(f, SUCC) for f in corpus.values())
    replays = {name: replay_fact(f, SUCC, user) for name, f in corpus.items()}
    assert replays == dict.fromkeys(corpus, False)


def test_a_fusion_lands_on_type_2_in_closure_and_in_replay():
    # <1<2>> is reached from <2<1>> only by fusing the two outer ovals.
    catalog = load_catalog(["<1<1> u 1<1>>\t6\t2\tt", "<1<2>>\t6\t1\tt", "<1<2>>\t6\t2\tt"])
    declared = Declared.from_records(['{"scheme": "<1<1> u 1<1>>_2", "side": "+"}'], 6)
    table = propagate(declared.seeds, declared.axiom_edges, SUCC, catalog)
    marked = {state_label(f.state) for f in table.facts.values()}
    assert marked == {"<2<1>>_2+", "<1<2>>_2+"}
    fuse = FuseSiblings((0,), (1,))
    assert replay_fact(_one_step_fact("<2<1>>_2", fuse, "<1<2>>_2"), SUCC, declared)
    assert not replay_fact(_one_step_fact("<2<1>>_2", fuse, "<1<2>>_1"), SUCC, declared)


def test_the_split_rule_has_one_source(monkeypatch, catalog):
    # <1 u 1<8>>_2- is reached only by splitting an oval of the type-1
    # state <1<8>>_1-.  The rule against that split is _splits_from alone,
    # so letting it pass changes both the closure and replay.
    monkeypatch.setattr(propagation, "_splits_from", lambda state: True)
    report = sextic_sweep(catalog)
    assert sorted(report.minus_exceptions) == sorted(
        set(EXPECTED_MINUS_EXCEPTIONS) - {"<1 u 1<8>>_2"}
    )
    fact = report.table.marked(parse_viro("<1 u 1<8>>_2"), True)
    split = fact.path[-1]
    assert (split["rewrite"]["kind"], split["from"]) == ("split_sibling", "<1<8>>_1-")
    assert replay_fact(fact, SUCC, _fresh())
    monkeypatch.undo()
    assert not replay_fact(fact, SUCC, _fresh())


# --------------------------------------------------------- resumed replay


def _fresh(declared=SWEEP_DECLARED):
    """The same declaration with nothing verified yet."""
    return Declared(declared.seeds, declared.axiom_edges)


def _child_fact(facts):
    """(parent, child): sweep facts where the child's path is the
    parent's, of three or more steps, plus one move."""
    by_path = {repr(f.path): f for f in facts}
    for f in facts:
        parent = by_path.get(repr(f.path[:-1]))
        if parent is not None and len(parent.path) >= 3 and f.path[-1]["edge"] == "move":
            return parent, f
    raise AssertionError("no fact extends another by one move")


def _replay_corpus(facts):
    """(fact, declaration, verdict) triples: the sweep's facts, forgeries
    against the sweep's declaration, and forgeries against a user's that
    the sweep's declaration accepts."""
    _, child = _child_fact(facts)
    state = child.state
    other_type = CurveType.ONE if state.scheme.curve_type is CurveType.TWO else CurveType.TWO
    honest = [*facts, _split_fact(2)]
    forged = [
        _split_fact(1),
        replace(child, state=replace(state, outer_tracked=not state.outer_tracked)),
        replace(child, state=replace(state, scheme=state.scheme.with_type(other_type))),
        replace(child, path=(child.path[1], child.path[0], *child.path[2:])),
        _with_step(child, 0, classification="M2^-1"),
        _with_step(child, -1, classification="M2^-1"),
        _with_step(child, -1, delta_chi=-1.0),
        _with_step(child, -1, rewrite={"kind": "delete_empty", "oval": "9.9.9"}),
        _with_step(child, -1, **{"from": child.path[-1]["to"]}),
        _one_step_fact("<9>_2", SplitSibling((0,), ()), "<10>_2", outer=True),
        _one_step_fact("<1<10>>_2", DeleteEmpty((0, 0)), "<1<9>>_2", outer=True),
        Fact(
            tracked("<1<9>>_2", outer=True),
            Predicate.ARNOLD_STANDARD,
            "axiom-edge",
            ({"edge": "axiom", "from": "<10>_2+", "to": "<1<9>>_2-"},),
        ),
    ]
    user = Declared.from_records(['{"scheme": "<10>_2", "side": "+"}'], 6)
    death = make_move(tracked("<10>_2"), DeleteEmpty((0,)))
    to_nine = {"edge": "move", **death.record(), "from": "<10>_2+", "to": "<9>_2+"}
    step_fact = Fact(tracked("<9>_2"), Predicate.ARNOLD_STANDARD, "propagated", (to_nine,))
    forged_by_user = [
        Fact(tracked("<10>_2", outer=True), Predicate.ARNOLD_STANDARD, "lcurve-seed"),
        _one_step_fact("<9>_1", DeleteEmpty((0,)), "<8>_2"),
        Fact(
            tracked("<1<8>>_1", outer=True),
            Predicate.ARNOLD_STANDARD,
            "axiom-edge",
            (to_nine, {"edge": "axiom", "from": "<9>_2+", "to": "<1<8>>_1-"}),
        ),
    ]
    return [
        *((f, SWEEP_DECLARED, True) for f in honest),
        *((f, SWEEP_DECLARED, False) for f in forged),
        (step_fact, user, True),
        (step_fact, SWEEP_DECLARED, True),
        *((f, user, False) for f in forged_by_user),
        *((f, SWEEP_DECLARED, True) for f in forged_by_user),
    ]


@pytest.mark.parametrize("order", ["table", "reversed"])
def test_resumed_replay_gives_the_cold_verdicts(catalog, order):
    corpus = _replay_corpus(list(sextic_sweep(catalog).table.facts.values()))
    if order == "reversed":
        corpus.reverse()
    cold = [replay_fact(f, SUCC, _fresh(d)) for f, d, _ in corpus]
    assert cold == [verdict for _, _, verdict in corpus]
    warm_of = {}  # one warm copy of each declaration object
    warm = [replay_fact(f, SUCC, warm_of.setdefault(id(d), _fresh(d))) for f, d, _ in corpus]
    assert warm == cold


def test_a_bad_step_after_a_verified_prefix_fails(catalog):
    parent, child = _child_fact(list(sextic_sweep(catalog).table.facts.values()))
    declared = _fresh()
    assert replay_fact(parent, SUCC, declared) and replay_fact(child, SUCC, declared)
    last = child.path[-1]
    forgeries = [
        _with_step(child, -1, classification="M2^-1"),
        _with_step(child, -1, delta_chi=1),
        _with_step(child, -1, rewrite={"kind": "delete_empty", "oval": "9.9.9"}),
        _with_step(child, -1, to=parent.path[-1]["from"]),
        _with_step(child, -1, edge="axiom"),
        replace(child, path=child.path + (last,)),
    ]
    assert [replay_fact(f, SUCC, declared) for f in forgeries] == [False] * len(forgeries)
    assert replay_fact(child, SUCC, declared)


def test_a_step_mutated_after_it_was_verified_is_checked_again(monkeypatch, catalog):
    _, child = _child_fact(list(sextic_sweep(catalog).table.facts.values()))
    fact = copy.deepcopy(child)  # the sweep's own records stay as they are
    i = next(i for i, step in enumerate(fact.path[:-1]) if step["edge"] == "move")
    declared = _fresh()
    assert replay_fact(fact, SUCC, declared)
    calls, apply = [], propagation.apply
    monkeypatch.setattr(propagation, "apply", lambda *a: calls.append(a) or apply(*a))
    assert replay_fact(fact, SUCC, declared) and calls == []
    rewrite = fact.path[i]["rewrite"]  # mutated in place, then restored
    saved = dict(rewrite)
    rewrite.clear()
    rewrite.update(kind="delete_empty", oval="9.9.9")
    assert not replay_fact(fact, SUCC, declared) and len(calls) == 1
    rewrite.clear()
    rewrite.update(saved)
    assert replay_fact(fact, SUCC, declared) and len(calls) == 1


@pytest.mark.parametrize("edge", ["bogus", "Move"])
def test_a_step_of_unknown_edge_kind_fails(catalog, edge):
    parent, child = _child_fact(list(sextic_sweep(catalog).table.facts.values()))
    forged = _with_step(child, -1, edge=edge)
    assert not replay_fact(forged, SUCC, _fresh())
    warm = _fresh()
    assert replay_fact(parent, SUCC, warm) and replay_fact(child, SUCC, warm)
    assert not replay_fact(forged, SUCC, warm)


def test_replaying_the_sweep_applies_each_distinct_move_step_once(monkeypatch, catalog):
    facts = list(sextic_sweep(catalog).table.facts.values())
    calls, apply = [], propagation.apply
    monkeypatch.setattr(propagation, "apply", lambda *a: calls.append(a) or apply(*a))
    declared = _fresh()
    assert all(replay_fact(f, SUCC, declared) for f in facts)
    distinct = {
        repr(f.path[: i + 1])
        for f in facts
        for i, step in enumerate(f.path)
        if step["edge"] == "move"
    }
    assert len(calls) == len(distinct) == 119
    assert sum(len(f.path) for f in facts) == 949


def test_replay_never_calls_search_code(monkeypatch, catalog):
    facts = list(sextic_sweep(catalog).table.facts.values())
    cert = relation_search(tracked("<10>_2"), tracked("<1<1<1>>>"), SUCC)
    assert cert is not None and len(cert.moves) == 9

    def forbidden(*args, **kwargs):
        raise AssertionError("a checker called search code")

    for module, name in [
        (moves, "enumerate_moves"),
        (propagation, "enumerate_moves"),
        (propagation, "relation_search"),
        (propagation, "propagate"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    declared = _fresh()
    assert all(replay_fact(f, SUCC, declared) for f in facts)
    assert cert.replay(SUCC)


def test_replay_computes_no_euler_characteristic(monkeypatch, catalog):
    facts = list(sextic_sweep(catalog).table.facts.values())
    cert = relation_search(tracked("<10>_2"), tracked("<1<1<1>>>"), SUCC)

    def forbidden(*args, **kwargs):
        raise AssertionError("replay called euler_W")

    monkeypatch.setattr(propagation, "euler_W", forbidden)
    declared = _fresh()
    assert all(replay_fact(f, SUCC, declared) for f in facts)
    assert cert.replay(SUCC)


def test_sweep_closure_classifies_no_birth_and_no_split_off_type_2(monkeypatch, catalog):
    seen, make = [], moves.make_move

    def recorded(t, rw):
        seen.append((t, rw))
        return make(t, rw)

    monkeypatch.setattr(moves, "make_move", recorded)
    table = propagate(SWEEP_DECLARED.seeds, SWEEP_DECLARED.axiom_edges, SUCC, catalog)
    assert len(table) == 126 and seen
    assert not [rw for _, rw in seen if isinstance(rw, moves.AddEmpty)]
    assert not [
        rw for t, rw in seen if isinstance(rw, SPLITS) and t.scheme.curve_type is not CurveType.TWO
    ]


# ------------------------------------------------------------------ sweep


def test_sweep_exceptions_exact(catalog):
    report = sextic_sweep(catalog)
    assert sorted(report.minus_exceptions) == sorted(EXPECTED_MINUS_EXCEPTIONS)
    assert report.plus_exceptions == ()


def test_the_sweep_marks_rest_on_one_seed_and_the_axiom_edge(catalog):
    # <10>_2+ and the axiom edge <9>_2+ -> <1<8>>_1- alone mark every state
    # the full declaration marks; without the edge, 50 of the 61 minus-side
    # marks go, so the four exceptions rest on one hand-verified deformation.
    with open(GOLDENS / "facts-propagate-sweep-seeds.records.out", encoding="utf-8") as fh:
        full = {(r["predicate"], *typed_key(parse_state_label(r["scheme"] + r["side"], 6)))
                for r in map(json.loads, fh)}
    assert len(full) == 126 and sum(side for *_, side in full) == 61
    (ten,) = [f for f in SWEEP_DECLARED.seeds if state_label(f.state) == "<10>_2+"]
    assert set(propagate([ten], SWEEP_DECLARED.axiom_edges, SUCC, catalog).facts) == full
    no_edge = propagate(SWEEP_DECLARED.seeds, (), SUCC, catalog)
    assert len(no_edge) == 76 and sum(side for *_, side in no_edge.facts) == 11


def test_sweep_covers_both_sides(catalog):
    report = sextic_sweep(catalog)
    rows = {(r["scheme"], r["side"]): r for r in report.rows}
    assert len(rows) == 2 * len(catalog)
    assert rows[("<10>_2", "-")]["standard"]  # a seed on the non-orientable side
    assert not rows[("<1<8>>_2", "-")]["standard"]
    assert rows[("<1<8>>_1", "-")]["standard"]


def test_sweep_quotient_words(catalog):
    report = sextic_sweep(catalog)
    rows = {(r["scheme"], r["side"]): r for r in report.rows}
    assert rows[("<10>_2", "+")]["words"] == ["CP2"]
    assert rows[("<9>_1", "+")]["words"] == ["(S2xS2)"]
    assert rows[("<9 u 1<1>>_1", "+")]["words"] == ["(S2xS2)"]
    assert rows[("<9>_2", "+")]["b2plus_Y"] == 1


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
