import json
import random

import pytest
from hypothesis import given, settings

from conjquot.domains import Side, TrackedScheme, euler_W
from conjquot.moves import (
    AddEmpty,
    Classification,
    DeleteEmpty,
    FuseParentChild,
    FuseSiblings,
    MoveError,
    MoveRecord,
    SplitNest,
    SplitSibling,
    apply,
    detect_log_transform,
    enumerate_moves,
    inverse_move,
    ledger_effect,
    make_move,
    rewrite_from_record,
    trace_records,
)
from conjquot.schemes import (
    CurveType,
    RealScheme,
    forest_key,
    format_viro,
    iter_forests,
    parse_viro,
)

from conftest import forests, random_forest


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


def test_inverse_restores_forest():
    rng = random.Random(6)
    for _ in range(25):
        s = RealScheme(random_forest(rng, rng.randrange(0, 7)))
        t = TrackedScheme(s, 6, rng.random() < 0.5)
        for m in enumerate_moves(t):
            inv = inverse_move(t, m)
            back = apply(apply(t, m), inv)
            assert forest_key(back.scheme) == forest_key(t.scheme)
            assert inv.classification is m.classification.inverse


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
    recs = trace_records(t, [fuse])
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
