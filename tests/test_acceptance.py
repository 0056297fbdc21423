"""Acceptance criteria, one test per criterion, each printing a summary
line (visible with ``pytest tests/test_acceptance.py -s``).

All checks are exact; the timed ones assert their budget.
"""

import random
import time

from conjquot.constructions import (
    PSEUDOLINE,
    BaseCurveSpec,
    FiberedSpec,
    fibered_quotient,
    perturb_u,
    perturb_v,
    quotient_Y_minus,
)
from conjquot.domains import (
    Orientability,
    Side,
    SurfaceDescriptor,
    TrackedScheme,
    arnold_descriptor,
    components_W,
    euler_W,
    real_part_X,
)
from conjquot.fourman import (
    CP2,
    S4,
    double_plane_invariants,
    k3_classify,
    word,
)
from conjquot.moves import apply, enumerate_moves
from conjquot.propagation import (
    EXPECTED_MINUS_EXCEPTIONS,
    SUCC,
    replay_fact,
    sextic_sweep,
)
from conjquot.schemes import (
    CurveType,
    RealScheme,
    default_catalog,
    format_viro,
    forest_key,
    parse_viro,
)
from conjquot.tracer import (
    GridConfig,
    PolySpec,
    circle,
    l_curve_sample,
    poly_add,
    trace_scheme,
)

from conftest import random_forest
from oracles import circle_layout, min_feature_gap, pixel_euler_by_side
from test_tracer import TEN_OVAL_EPSILON, TEN_OVAL_LINES, circles_product, definite

CATALOG = default_catalog()


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_euler_identity_sweep():
    start = time.perf_counter()
    for e in CATALOG:
        t = TrackedScheme(e.scheme, 6)
        assert euler_W(t, Side.TRACKED) + euler_W(t, Side.NONTRACKED) == 1
        total = components_W(t, Side.TRACKED) + components_W(t, Side.NONTRACKED)
        assert total == e.scheme.oval_count + 1
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 1.0,
        f"chi(W+)+chi(W-)=1 and component count over {len(CATALOG)} entries "
        f"in {elapsed:.3f}s",
    )


def test_criterion_2_max_euler_value():
    value = euler_W(TrackedScheme(parse_viro("<10>_2"), 6), Side.TRACKED)
    report(2, value == 10, f"chi(W+) of the ten-oval scheme = {value}")


def test_criterion_3_sextic_sweep():
    start = time.perf_counter()
    sweep = sextic_sweep(CATALOG)
    replayed = all(replay_fact(f, SUCC) for f in sweep.table.facts.values())
    elapsed = time.perf_counter() - start
    ok = (
        sorted(sweep.minus_exceptions) == sorted(EXPECTED_MINUS_EXCEPTIONS)
        and sweep.plus_exceptions == ()
        and replayed
        and elapsed < 30.0
    )
    report(
        3,
        ok,
        f"orientable side complete, other side exceptions "
        f"{sorted(sweep.minus_exceptions)}, certificates replay={replayed}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_k3_quotient_values():
    for e in CATALOG:
        for outer in (False, True):
            inv = double_plane_invariants(TrackedScheme(e.scheme, 6, outer))
            assert inv.b2plus_Y == 1
            assert inv.b2minus_Y == 9 + inv.chi_XR // 2
    # the spin quotients are exactly the two listed real parts
    spin_cases = []
    for g in range(0, 11):
        for k in range(0, 12 - g if g else 11):
            parts = [SurfaceDescriptor(2 - 2 * g, Orientability.ORIENTABLE)] if g else []
            parts += [SurfaceDescriptor(2, Orientability.ORIENTABLE)] * k
            if not parts:
                continue
            for vanishes in (False, True):
                w = k3_classify(parts, vanishes)
                if w == word(s2xs2=1):
                    spin_cases.append((g, k, vanishes))
    ten = k3_classify(
        real_part_X(TrackedScheme(parse_viro("<10>_2"), 6), Side.NONTRACKED), False
    )
    ok = (
        sorted(set(spin_cases)) == [(9, 0, True), (10, 1, False), (10, 1, True)]
        and ten == CP2
    )
    report(
        4,
        ok,
        f"b2+(Y)=1 and b2-(Y)=9+chi/2 on the full catalog; spin cases "
        f"{sorted(set(spin_cases))}; ten-oval quotient {ten}",
    )


def test_criterion_5_signature_consistency():
    from conjquot.fourman import branch_cover_word, predict_standard_form

    for e in CATALOG:
        for outer in (False, True):
            t = TrackedScheme(e.scheme, 6, outer)
            inv = double_plane_invariants(t)
            assert (inv.chi_X, inv.sigma_X) == (24, -16)
            sigma_via_cover = (inv.sigma_X - (-(-inv.chi_XR))) // 2
            assert sigma_via_cover == inv.sigma_Y
            chi_a = arnold_descriptor(t).euler
            for form in predict_standard_form(chi_a, inv.b2plus_Y, inv.b2minus_Y):
                w = branch_cover_word(form, S4)
                assert w.sigma == inv.sigma_Y
            assert inv.b2plus_Y + inv.b2minus_Y == 2 - chi_a
    report(
        5,
        True,
        "chi(X)=24, sigma(X)=-16, sigma(Y) via word and via covering agree, "
        "b2+(Y)+b2-(Y)=2-chi(A) on the full sweep",
    )


def test_criterion_6_move_formula_cross_check():
    rng = random.Random(20260810)
    checked = 0
    while checked < 1000:
        s = RealScheme(random_forest(rng, rng.randrange(0, 11)))
        t = TrackedScheme(s, 6, rng.random() < 0.5)
        options = enumerate_moves(t)
        if not options:
            continue
        m = rng.choice(options)
        after = apply(t, m)
        if after.scheme.oval_count > 11:
            continue
        before_inv = double_plane_invariants(t)
        after_inv = double_plane_invariants(after)
        d_tracked = euler_W(after, Side.TRACKED) - euler_W(t, Side.TRACKED)
        d_non = euler_W(after, Side.NONTRACKED) - euler_W(t, Side.NONTRACKED)
        assert after_inv.b2plus_Y == before_inv.b2plus_Y == 1
        assert after_inv.b2minus_Y - before_inv.b2minus_Y == -d_tracked
        assert after_inv.chi_XR - before_inv.chi_XR == 2 * d_non
        checked += 1
    report(6, True, f"{checked} random moves: b2+(Y) fixed, "
                    "delta b2-(Y) = -delta chi(tracked), delta chi(XR) = 2 delta chi(other)")


def test_criterion_7_pencil_constructions():
    v = perturb_v(BaseCurveSpec(parse_viro("<J u 1>_1"), 3, {PSEUDOLINE: 9}))
    u = perturb_u(BaseCurveSpec(parse_viro("<J u 1>_1"), 3, {PSEUDOLINE: 9}))
    ok = format_viro(v.scheme) == "<9>_1" and format_viro(u.scheme) == "<9 u 1<1>>_1"
    for k, code in ((1, "<1>_1"), (2, "<4>_1"), (3, "<9>_1")):
        genus = (k - 1) * (k - 2) // 2
        w = quotient_Y_minus(S4, genus, CurveType.ONE, "v")
        inv = double_plane_invariants(TrackedScheme(parse_viro(code), 2 * k))
        ok = ok and (w.b2plus, w.b2minus) == (inv.b2plus_Y, inv.b2minus_Y)
    w_u = quotient_Y_minus(S4, 1, CurveType.ONE, "u")
    inv_u = double_plane_invariants(TrackedScheme(parse_viro("<9 u 1<1>>_1"), 6))
    ok = ok and (w_u.b2plus, w_u.b2minus) == (inv_u.b2plus_Y, inv_u.b2minus_Y)
    report(
        7,
        ok,
        f"v(cubic)={format_viro(v.scheme)}, u(cubic)={format_viro(u.scheme)}, "
        "pencil quotients match the double-plane formulas through degree 3",
    )


def test_criterion_8_fibered_calculator():
    one = fibered_quotient(
        FiberedSpec(S4, 1, (CurveType.ONE,), elliptic_name="E(1)")
    )
    two = fibered_quotient(FiberedSpec(S4, 1, (CurveType.TWO,)))
    mixed = fibered_quotient(FiberedSpec(S4, 1, (CurveType.ONE, CurveType.ONE), 1))
    ok = (
        one.y_plus.result == "E(1)_0"
        and one.y_minus == word(s2xs2=1)
        and two.y_minus == word(cp2=1, cp2bar=1)
        and mixed.y_minus.s1xs3 == 2
    )
    report(
        8,
        ok,
        f"elliptic double fiber: Y+={one.y_plus.result}, Y-={one.y_minus} / "
        f"type 2 {two.y_minus}; (r,s)=(2,1) adds {mixed.y_minus.s1xs3} handles",
    )


def test_criterion_9_log_transform_detection():
    from conjquot.moves import (
        Classification,
        DeleteEmpty,
        FuseParentChild,
        detect_log_transform,
        make_move,
    )

    t = TrackedScheme(parse_viro("<1<1>>"), 6, outer_tracked=True)
    fuse = make_move(t, FuseParentChild((0,), (0, 0)))
    mid = apply(t, fuse)
    kill = make_move(mid, DeleteEmpty((0,)))
    events = detect_log_transform([(t, fuse), (mid, kill)])

    only_discs = []
    state = TrackedScheme(parse_viro("<1>"), 6)
    for _ in range(4):
        m = next(
            x
            for x in enumerate_moves(state)
            if x.classification in (Classification.M0, Classification.M0_INV)
        )
        only_discs.append((state, m))
        state = apply(state, m)
    ok = (
        len(events) == 1
        and fuse.classification is Classification.M1
        and kill.classification is Classification.M2
        and detect_log_transform(only_discs) == []
    )
    report(
        9,
        ok,
        f"annulus kill on the two-nest detected as {len(events)} "
        "multiplicity-2 torus event; disc-only sequences give none",
    )


def test_criterion_10_tracer():
    start = time.perf_counter()
    one = trace_scheme(circle(0.0, 0.0, 0.5), GridConfig(128, 1024))
    nest = trace_scheme(
        poly_add(
            circles_product([(0, 0, 0.25), (0, 0, 0.5), (0, 0, 0.75)]),
            PolySpec.from_dict(6, {(0, 0, 6): 1.0}),
            scale=-1e-4,
        ),
        GridConfig(128, 1024),
    )
    ok = one.stable and format_viro(one.scheme) == "<1>"
    ok = ok and nest.stable and format_viro(nest.scheme) == "<1<1<1>>>"

    rng = random.Random(77)
    round_trips = 0
    while round_trips < 6:
        roots = random_forest(rng, rng.randrange(1, 7))
        layout = circle_layout(roots)
        if min_feature_gap(layout) < 0.02:
            continue
        res = trace_scheme(circles_product(layout), GridConfig(256, 1024))
        ok = ok and res.stable and forest_key(res.scheme) == forest_key(RealScheme(roots))
        round_trips += 1

    oracle_checked = 0
    while oracle_checked < 50:
        roots = random_forest(rng, rng.randrange(0, 9))
        t = TrackedScheme(RealScheme(roots), 6)
        for n in (512, 1024):
            even, odd = pixel_euler_by_side(roots, n)
            ok = ok and even == euler_W(t, Side.NONTRACKED)
            ok = ok and odd == euler_W(t, Side.TRACKED)
        oracle_checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(
        10,
        ok,
        f"circle, triple nest, {round_trips} round trips, {oracle_checked} "
        f"pixel-oracle forests at two resolutions in {elapsed:.1f}s",
    )


def test_supplement_frozen_l_curve():
    # the searched six-line arrangement keeps realizing ten ovals
    res = l_curve_sample(
        TEN_OVAL_LINES, definite(6), epsilon=TEN_OVAL_EPSILON,
        grid=GridConfig(512, 1024),
    )
    assert res.trace.stable and format_viro(res.trace.scheme) == "<10>"
