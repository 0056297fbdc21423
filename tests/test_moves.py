import json
import random
import time
import tracemalloc
from typing import get_args
from conjquot._values import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjquot.domains import Side, TrackedScheme, euler_W, iter_ovals
from conjquot.moves import (
    DECREASING,
    FUSIONS,
    KINDS,
    SPLITS,
    AddEmpty,
    Classification,
    DeleteEmpty,
    FuseParentChild,
    FuseSiblings,
    MoveError,
    MoveRecord,
    Rewrite,
    SplitNest,
    SplitSibling,
    _edit,
    _get,
    _transport,
    apply,
    detect_log_transform,
    enumerate_moves,
    inverse_move,
    ledger_effect,
    make_move,
    rewrite_from_record,
    rewrite_record,
    _successor_key,
    trace_records,
)
from conjquot.propagation import RHD, SUCC
from conjquot.schemes import (
    CurveType,
    RealScheme,
    forest_key,
    format_viro,
    iter_forests,
    parse_viro,
)

from conftest import forests, random_forest
from oracles import check_cached_fields, enumerate_unpruned, unpruned_candidates


def tracked(code, outer=False):
    return TrackedScheme(parse_viro(code), 6, outer)


def by_kind(ms, kind):
    return [m for m in ms if isinstance(m.rewrite, kind)]


def test_delete_on_ten_ovals_is_disc_death():
    t = tracked("<10>_2")
    deletes = by_kind(enumerate_moves(t), DeleteEmpty)
    assert deletes and all(m.classification is Classification.M0_INV for m in deletes)
    assert format_viro(apply(t, deletes[0]).scheme) == "<9>"


def test_add_in_outer_is_disc_birth():
    t = tracked("<1>")
    adds = by_kind(enumerate_moves(t), AddEmpty)
    outer_add = next(m for m in adds if m.rewrite.region is None)
    assert outer_add.classification is Classification.M0
    inner_add = next(m for m in adds if m.rewrite.region is not None)
    assert inner_add.classification is Classification.M2_INV


def test_fusions_on_nested_scheme():
    t = tracked("<3 u 1<2>>")
    pc = make_move(t, FuseParentChild((3,), (3, 0)))
    assert pc.classification is Classification.M1_INV
    assert pc.delta_chi_tracked == 1
    after = apply(t, pc)
    assert format_viro(after.scheme) == "<3 u 1<1>>_2"
    sib = make_move(t, FuseSiblings((0,), (3,)))
    assert sib.classification is Classification.M1
    assert format_viro(apply(t, sib).scheme) == "<2 u 1<2>>_2"


def test_fuse_exterior_pair():
    t = tracked("<3 u 1<2>>")
    m = make_move(t, FuseSiblings((0,), (1,)))
    assert format_viro(apply(t, m).scheme) == "<2 u 1<2>>_2"


def test_fuse_parent_child_escapes_grandchildren():
    t = tracked("<1<1<2>>>")
    m = make_move(t, FuseParentChild((0,), (0, 0)))
    # the fused oval is empty, the two grandchildren escape outside
    assert format_viro(apply(t, m).scheme) == "<3>_2"
    t2 = tracked("<1<1<2> u 1>>")
    m2 = make_move(t2, FuseParentChild((0,), (0, 0)))
    assert format_viro(apply(t2, m2).scheme) == "<2 u 1<1>>_2"


def test_type_rules():
    t = tracked("<2>_1")
    fuse = next(m for m in enumerate_moves(t) if isinstance(m.rewrite, FuseSiblings))
    assert apply(t, fuse).scheme.curve_type is CurveType.TWO
    delete = next(m for m in enumerate_moves(t) if isinstance(m.rewrite, DeleteEmpty))
    assert apply(t, delete).scheme.curve_type is CurveType.UNKNOWN


def test_the_kind_table_has_one_row_per_rewrite_kind():
    # The record codec, the class, the fusion flag and the class steps all
    # read this table: a kind must have one row, a distinct record name, and
    # the classes and oval-count change its moves show.
    kinds = get_args(Rewrite)
    assert len(KINDS) == len(kinds) and set(KINDS) == set(kinds)
    names = [row[0] for row in KINDS.values()]
    assert len(set(names)) == len(names)
    band = [k for k, row in KINDS.items() if row[2:4] == (Classification.M1, Classification.M1_INV)]
    assert set(FUSIONS) == {k for k in band if KINDS[k][4] == -1}
    assert set(SPLITS) == {k for k in band if KINDS[k][4] == 1}
    assert set(FUSIONS) | set(SPLITS) == set(band)
    shown = set()
    for roots in iter_forests(5):
        for outer in (False, True):
            t = TrackedScheme(RealScheme(roots), 6, outer)
            for m in enumerate_moves(t):
                kind = type(m.rewrite)
                name, *_, dn = KINDS[kind]
                assert rewrite_record(m.rewrite)["kind"] == name
                assert m.successor.scheme.oval_count - t.scheme.oval_count == dn
                shown.add((kind, m.classification))
    assert shown == {(k, c) for k, row in KINDS.items() for c in row[2:4]}


def test_every_move_changes_chi_by_one():
    rng = random.Random(5)
    for _ in range(40):
        s = RealScheme(random_forest(rng, rng.randrange(0, 8)))
        t = TrackedScheme(s, 6, rng.random() < 0.5)
        chi = euler_W(t, Side.TRACKED)
        for m in enumerate_moves(t):
            after = apply(t, m)
            d_tracked = euler_W(after, Side.TRACKED) - chi
            d_non = euler_W(after, Side.NONTRACKED) - euler_W(t, Side.NONTRACKED)
            assert abs(d_tracked) == 1 and d_tracked + d_non == 0
            assert d_tracked == m.delta_chi_tracked
            expected = -1 if m.classification in (
                Classification.M0_INV,
                Classification.M1,
                Classification.M2_INV,
            ) else 1
            assert d_tracked == expected


@settings(max_examples=100, deadline=None)
@given(forests(6), st.booleans())
def test_inverse_restores_forest(roots, outer):
    t = TrackedScheme(RealScheme(roots), 6, outer)
    for m in enumerate_moves(t):
        inv = inverse_move(t, m)
        back = apply(apply(t, m), inv)
        assert forest_key(back.scheme) == forest_key(t.scheme)
        assert inv.classification is m.classification.inverse


@pytest.mark.parametrize("outer", [False, True])
def test_successors_carry_correct_cached_fields(outer):
    # Rewrites rebuild only the edited path and share every other subtree.
    for roots in iter_forests(5):
        t = TrackedScheme(RealScheme(roots), 6, outer)
        for m in enumerate_moves(t):
            check_cached_fields(apply(t, m).scheme.roots)


@pytest.mark.parametrize("outer", [False, True])
def test_transport_follows_untouched_subtrees(outer):
    for roots in iter_forests(6):
        t = TrackedScheme(RealScheme(roots), 6, outer)
        for m in enumerate_moves(t):
            region, drop, rebuilt, _ = _edit(roots, m.rewrite)
            after = apply(t, m).scheme.roots
            kept = []
            for path, oval in iter_ovals(t.scheme):
                moved = _transport(path, region, drop, rebuilt)
                if moved is None:
                    continue
                kept.append(moved)
                if region[: len(path)] == path:
                    # the owner of the edited list and its ancestors stay put
                    # but gain or lose descendants
                    assert moved == path
                else:
                    assert _get(after, moved).key == oval.key
            assert len(set(kept)) == len(kept)


@pytest.mark.parametrize("outer", [False, True])
def test_split_sibling_enumeration_on_many_identical_children(outer):
    # One keep set per multiset of children, not one per subset: 2**20 here.
    t = TrackedScheme(parse_viro("<1<20>>"), 44, outer)
    start = time.perf_counter()
    ms = enumerate_moves(t)
    elapsed = time.perf_counter() - start
    splits = by_kind(ms, SplitSibling)
    assert (len(ms), len(splits)) == (39, 12)
    assert sum(m.rewrite.oval == (0,) for m in splits) == 11
    assert elapsed < 1.0


@pytest.mark.parametrize("code, count", [("<1000>", 1005), ("<1<1000>>", 1509)])
def test_wide_forest_enumerates_in_quadratic_time(code, count):
    # A nest split encloses n of a thousand identical siblings for each n, and
    # each candidate's splice tests every sibling for being dropped: a tuple
    # of dropped indices made that cubic, about 7 s a forest on a 2-core
    # machine, where a set takes about 1 s.
    t = TrackedScheme(parse_viro(code), 100)
    start = time.perf_counter()
    ms = enumerate_moves(t)
    elapsed = time.perf_counter() - start
    assert len(ms) == count
    assert elapsed < 4.0


def test_enumeration_dedupes_each_candidate_as_it_comes():
    # Refusing every move, enumeration holds no candidate list: on <1<300>>
    # the whole list, built before the dedupe, peaked at 1.2 MB traced; one
    # candidate at a time peaks at about 0.4 MB, mostly the dedupe's keys.
    t = TrackedScheme(parse_viro("<1<300>>"), 100)
    tracemalloc.start()
    try:
        assert enumerate_moves(t, keep=lambda rw, fk: False) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 700_000


def test_enumeration_drops_a_kinds_keys_when_the_kind_is_done():
    # A kind's candidates come out together and no key matches across
    # kinds, so each kind dedupes on a set of its own: on <1<300>> the
    # sibling splits' keys were still held through the nest splits, a
    # traced peak of about 400,000 bytes against about 250,000.
    t = TrackedScheme(parse_viro("<1<300>>"), 100)
    tracemalloc.start()
    try:
        assert enumerate_moves(t, keep=lambda rw, fk: False) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320_000


@pytest.mark.parametrize("outer", [False, True])
def test_depth_cap_leaves_out_only_deeper_moves(outer):
    # Births and nest splits that nest deeper than the cap are never
    # generated; every move whose successor is within the cap is listed as
    # without it, in the same order.
    for roots in iter_forests(6):
        t = TrackedScheme(RealScheme(roots), 6, outer)
        full = [(m.record(), m.successor.scheme.depth) for m in enumerate_moves(t)]
        for cap in range(1, 5):
            capped = [(m.record(), m.successor.scheme.depth) for m in enumerate_moves(t, depth_cap=cap)]
            assert [m for m in capped if m[1] <= cap] == [m for m in full if m[1] <= cap]
            assert all(depth > cap for m, depth in full if (m, depth) not in capped)


HIGH_SYMMETRY = ("<10>", "<1<9>>", "<9 u 1<1>>", "<1<14>>")


@pytest.mark.parametrize("outer", [False, True])
def test_pruned_enumeration_matches_every_index_oracle(outer):
    # Pruning symmetric candidates before they are built keeps the records,
    # their order and the handed-off successors of the unpruned algorithm.
    states = [TrackedScheme(RealScheme(roots), 6, outer) for roots in iter_forests(7)]
    states += [TrackedScheme(parse_viro(code), 40, outer) for code in HIGH_SYMMETRY]
    for t in states:
        ms = enumerate_moves(t)
        assert [m.record() for m in ms] == [m.record() for m in enumerate_unpruned(t)]
        for m in ms:
            assert m.successor == apply(t, m)  # forest, type, degree and side


@pytest.mark.parametrize("outer", [False, True])
def test_spliced_key_is_the_built_successors(outer):
    # Enumeration dedupes, and asks its caller whether to build, on the key
    # spliced from cached keys; it must be the built successor's forest key.
    states = [TrackedScheme(RealScheme(roots), 6, outer) for roots in iter_forests(8)]
    states += [TrackedScheme(parse_viro(code), 40, outer) for code in HIGH_SYMMETRY]
    for t in states:
        for rw in unpruned_candidates(t):
            key = _successor_key(t.scheme.roots, rw)
            after = make_move(t, rw).successor.scheme
            assert (key, key.count("(")) == (forest_key(after), after.oval_count), rw


@pytest.mark.parametrize("outer", [False, True])
def test_filtered_enumeration_is_the_unpruned_list_filtered(outer):
    # Classes come from depth parity before a move is built; the filtered
    # list is the full one with the other classes (and splits) left out.
    filters = [(a, s) for a in (SUCC.allowed, RHD.allowed) for s in (True, False)]
    filters += [(DECREASING, True)] + [(frozenset({c}), True) for c in Classification]
    states = [TrackedScheme(RealScheme(roots), 6, outer) for roots in iter_forests(7)]
    states += [TrackedScheme(parse_viro(code), 40, outer) for code in HIGH_SYMMETRY]
    for t in states:
        full = enumerate_unpruned(t)
        for allowed, splits in filters:
            want = [
                m
                for m in full
                if m.classification in allowed and (splits or not isinstance(m.rewrite, SPLITS))
            ]
            assert enumerate_moves(t, allowed, splits=splits) == want  # rewrite, class, delta


def test_successor_stays_out_of_record_identity():
    t = tracked("<3 u 1<2>>")
    for m in enumerate_moves(t):
        decoded = MoveRecord.from_record(m.record())
        assert decoded.successor is None and m.successor is not None
        assert decoded == m and hash(decoded) == hash(m)
        assert replace(m, successor=t) == m and replace(m, successor=t).record() == m.record()
        assert repr(decoded) == repr(m)


def test_split_then_fuse_restores_canonical_key():
    t = tracked("<2 u 1<2>>_2")
    splits = [
        m
        for m in enumerate_moves(t)
        if isinstance(m.rewrite, (SplitSibling, SplitNest))
    ]
    assert splits
    for m in splits:
        inv = inverse_move(t, m)
        back = apply(apply(t, m), inv)
        # fusions restore type 2 as well, so the full key returns
        assert back.scheme.curve_type is CurveType.TWO
        assert forest_key(back.scheme) == forest_key(t.scheme)


def test_apply_rejects_stale_record():
    t = tracked("<2>")
    m = next(x for x in enumerate_moves(t) if isinstance(x.rewrite, DeleteEmpty))
    empty = apply(apply(t, m), m)  # the record stays valid while ovals remain
    with pytest.raises(MoveError):
        apply(empty, m)  # no oval left to delete
    flipped = tracked("<2>", outer=True)  # same rewrite, other side: M2 now
    with pytest.raises(MoveError):
        apply(flipped, m)


def test_apply_rejects_nonapplicable_rewrite():
    t = tracked("<1<1>>")
    with pytest.raises(MoveError):
        make_move(t, DeleteEmpty((0,)))  # not childless
    with pytest.raises(MoveError):
        make_move(t, FuseSiblings((0,), (0, 0)))  # not siblings
    with pytest.raises(MoveError):
        make_move(t, FuseParentChild((0,), (0, 5)))  # no such child
    with pytest.raises(MoveError):  # one oval enclosed thrice would copy it
        make_move(tracked("<1<1<1>> u 2>", outer=True), SplitNest((1,), ((2,),) * 3))


def test_move_records_round_trip_through_json():
    for roots in iter_forests(5):
        for outer in (False, True):
            t = TrackedScheme(RealScheme(roots), 6, outer)
            for m in enumerate_moves(t):
                rec = json.loads(json.dumps(m.record()))
                assert rewrite_from_record(rec["rewrite"]) == m.rewrite
                assert MoveRecord.from_record(rec) == m


@pytest.mark.parametrize(
    "rec",
    [
        {"kind": "grow", "oval": "0"},
        {"oval": "0"},
        {"kind": "fuse_siblings", "first": "0"},
        {"kind": "delete_empty", "oval": "-1"},
        {"kind": "delete_empty", "oval": "0.x"},
        {"kind": "delete_empty", "oval": ""},
        {"kind": "delete_empty", "oval": 0},
        {"kind": "split_nest", "oval": "0", "enclosed": "1"},
        ["delete_empty", "0"],
    ],
)
def test_malformed_rewrite_records_raise_move_error(rec):
    with pytest.raises(MoveError):
        rewrite_from_record(rec)


def test_enumerate_is_deterministic_and_deduped():
    t = tracked("<10>_2")
    a = [m.record() for m in enumerate_moves(t)]
    b = [m.record() for m in enumerate_moves(t)]
    assert a == b
    deletes = [r for r in a if r["rewrite"]["kind"] == "delete_empty"]
    assert len(deletes) == 1  # ten interchangeable ovals collapse to one row


def test_ledger_effects():
    assert ledger_effect(Classification.M1).y_effect == "# CP2bar (blow-up)"
    assert ledger_effect(Classification.M0_INV).arnold_effect == "# RP2bar (real blow-up)"
    m2 = ledger_effect(Classification.M2)
    assert "sphere component dies" in m2.xr_effect
    assert m2.y_effect == "rational blow-down of degree 2"


def test_ledger_inverses_are_opposites():
    for cls in Classification:
        fwd = ledger_effect(cls)
        bwd = ledger_effect(cls.inverse)
        assert fwd != bwd
        assert ledger_effect(cls.inverse.inverse) == fwd


def test_log_transform_detected_on_nest():
    t = tracked("<1<1>>", outer=True)
    fuse = make_move(t, FuseParentChild((0,), (0, 0)))
    assert fuse.classification is Classification.M1
    mid = apply(t, fuse)
    kill = make_move(mid, DeleteEmpty((0,)))
    assert kill.classification is Classification.M2
    events = detect_log_transform([(t, fuse), (mid, kill)])
    assert len(events) == 1
    assert events[0].fuse_step == 0 and events[0].delete_step == 1
    assert "multiplicity 2" in events[0].note


def test_log_transform_ignores_disc_births():
    t = tracked("<1>")
    steps = []
    state = t
    for _ in range(3):
        m = next(
            m
            for m in enumerate_moves(state)
            if m.classification in (Classification.M0, Classification.M0_INV)
        )
        steps.append((state, m))
        state = apply(state, m)
    assert detect_log_transform(steps) == []


def test_log_transform_needs_the_fusion_product():
    # unrelated M1 then M2: the deleted oval is not the fusion product
    t = tracked("<1<1> u 1>", outer=True)
    fuse = make_move(t, FuseParentChild((0,), (0, 0)))
    mid = apply(t, fuse)
    # delete the untouched second oval, not the fused one
    other = make_move(mid, DeleteEmpty((1,)))
    assert other.classification is Classification.M2
    events = detect_log_transform([(t, fuse), (mid, other)])
    assert events == []


def test_trace_records_shape():
    t = tracked("<1<1>>", outer=True)
    fuse = make_move(t, FuseParentChild((0,), (0, 0)))
    recs = trace_records([t, fuse.successor], [fuse])
    assert recs[0]["step"] == 0
    assert recs[0]["classification"] == "M1"
    assert set(recs[0]) >= {"arnold_effect", "y_effect", "xr_effect", "delta_chi"}


@settings(max_examples=40, deadline=None)
@given(forests(6))
def test_succ_moves_strictly_decrease(roots):
    t = TrackedScheme(RealScheme(roots), 6)
    chi = euler_W(t, Side.TRACKED)
    for m in enumerate_moves(t):
        if m.classification in (Classification.M0_INV, Classification.M1):
            assert euler_W(apply(t, m), Side.TRACKED) == chi - 1


def test_every_move_steps_ovals_and_chi_by_one():
    # The distance cut of relation_search rests on these: a move keeps the
    # tracked side and changes the oval count and the tracked Euler
    # characteristic by exactly one each, and a SUCC move lowers the latter.
    for roots in iter_forests(7):
        for outer in (False, True):
            t = TrackedScheme(RealScheme(roots), 6, outer)
            n, chi = t.scheme.oval_count, euler_W(t, Side.TRACKED)
            for m in enumerate_moves(t):
                after = m.successor
                d_chi = euler_W(after, Side.TRACKED) - chi
                assert after.outer_tracked == outer
                assert abs(after.scheme.oval_count - n) == 1
                assert abs(d_chi) == 1 and d_chi == m.delta_chi_tracked
                if m.classification in SUCC.allowed:
                    assert d_chi == -1
