import pytest

from conjquot.constructions import (
    PSEUDOLINE,
    BaseCurveSpec,
    ConstructionError,
    FiberedSpec,
    fibered_quotient,
    imaginary_curve_image,
    perturb_u,
    perturb_v,
    quotient_Y_minus,
)
from conjquot.domains import TrackedScheme
from conjquot.fourman import S4, double_plane_invariants, word
from conjquot.schemes import CurveType, format_viro, parse_viro


def base(code, degree, points=None):
    return BaseCurveSpec(parse_viro(code), degree, points)


# -------------------------------------------------------------- v-curves


def test_v_conic():
    res = perturb_v(base("<1>_1", 2, {(0,): 4}))
    assert format_viro(res.scheme) == "<4>_1"
    assert res.handlebody_orientable


def test_v_line():
    res = perturb_v(base("<J>", 1, {PSEUDOLINE: 1}))
    assert format_viro(res.scheme) == "<1>_1"


def test_v_cubic_gives_nine_type1():
    res = perturb_v(base("<J u 1>_1", 3, {PSEUDOLINE: 9}))
    assert format_viro(res.scheme) == "<9>_1"
    assert res.handlebody_orientable


def test_v_requires_full_basepoint_total():
    with pytest.raises(ConstructionError):
        perturb_v(base("<1>", 2, {(0,): 3}))


def test_v_ovals_always_empty():
    for k, code, points in [(2, "<1>_1", {(0,): 4}), (3, "<J u 1>_1", {PSEUDOLINE: 8, (0,): 1})]:
        res = perturb_v(base(code, k, points))
        assert res.scheme.oval_count == k * k
        assert all(not o.children for o in res.scheme.roots)
        assert res.scheme.curve_type is CurveType.ONE


# -------------------------------------------------------------- u-curves


def test_u_cubic_marked_pseudoline():
    res = perturb_u(base("<J u 1>_1", 3, {PSEUDOLINE: 9}))
    assert format_viro(res.scheme) == "<9 u 1<1>>_1"
    assert res.handlebody_orientable


def test_u_conic_marked_oval():
    res = perturb_u(base("<1>_1", 2, {(0,): 4}))
    assert format_viro(res.scheme) == "<4>_1"


def test_u_quartic_two_ovals():
    res = perturb_u(base("<2>_1", 4, {(0,): 16}))
    assert format_viro(res.scheme) == "<16 u 1<1>>_1"


def test_u_doubling_reparents_children():
    spec = base("<1<1>>_2", 4, {(0, 0): 16})
    res = perturb_u(spec)
    # the inner oval becomes beads in its ambient (inside the doubled outer)
    assert format_viro(res.scheme) == "<1<1<16>>>_2"
    assert res.scheme.depth == parse_viro("<1<1>>").depth + 1
    assert not res.handlebody_orientable


def test_u_unmarked_pseudoline_leaves_one_oval():
    # beads replace the marked oval; the bare one-sided component leaves
    # the boundary circle of its neighbourhood
    res = perturb_u(base("<J u 1>_2", 3, {(0,): 9}))
    assert format_viro(res.scheme) == "<10>_2"


def test_u_rejects_nested_basepoints():
    with pytest.raises(ConstructionError):
        perturb_u(base("<1<1>>_1", 4, {(0,): 8, (0, 0): 8}))


@pytest.mark.parametrize("count", [4.0, True, "4"])
@pytest.mark.parametrize("construct", [perturb_v, perturb_u])
def test_basepoint_counts_must_be_integers(construct, count):
    with pytest.raises(ConstructionError, match="basepoint counts must be integers"):
        construct(base("<1>", 2, {(0,): count}))


def test_u_oval_count_rule():
    spec = base("<2 u 1<1>>_1", 4, {(0,): 16})
    res = perturb_u(spec)
    # 16 beads + doubled pairs for the three unmarked ovals; a doubled
    # oval above a doubled child deepens the nest by two
    assert res.scheme.oval_count == 16 + 2 * 3
    assert res.scheme.depth == 4


# --------------------------------------------------------------- quotients


def test_quotient_v_cubic_matches_double_plane():
    w = quotient_Y_minus(S4, b_genus=1, b_type=CurveType.ONE, kind="v")
    assert w == word(s2xs2=1)
    inv = double_plane_invariants(TrackedScheme(parse_viro("<9>_1"), 6))
    assert (w.b2plus, w.b2minus) == (inv.b2plus_Y, inv.b2minus_Y)


def test_quotient_u_type2_base():
    w = quotient_Y_minus(S4, b_genus=1, b_type=CurveType.TWO, kind="u")
    assert w == word(cp2=1, cp2bar=1)


def test_quotient_components_add_handles():
    w = quotient_Y_minus(S4, b_genus=1, b_type=CurveType.ONE, kind="v", components_k=3)
    assert w.s1xs3 == 2


def test_quotient_requires_simply_connected():
    bad = word(s1xs3=1)
    with pytest.raises(ConstructionError):
        quotient_Y_minus(bad, 1, CurveType.ONE, "v")


def test_quotient_matches_double_plane_through_degree_three():
    cases = [
        (1, "<1>_1"),    # line pencil: one small oval
        (2, "<4>_1"),    # conic pencil
        (3, "<9>_1"),    # cubic pencil
    ]
    for k, code in cases:
        genus = (k - 1) * (k - 2) // 2
        w = quotient_Y_minus(S4, genus, CurveType.ONE, "v")
        inv = double_plane_invariants(TrackedScheme(parse_viro(code), 2 * k))
        assert (w.b2plus, w.b2minus) == (inv.b2plus_Y, inv.b2minus_Y), code


def test_quotient_u_cubic_scheme_matches():
    w = quotient_Y_minus(S4, 1, CurveType.ONE, "u")
    inv = double_plane_invariants(TrackedScheme(parse_viro("<9 u 1<1>>_1"), 6))
    assert (w.b2plus, w.b2minus) == (inv.b2plus_Y, inv.b2minus_Y)


# ----------------------------------------------------------------- fibered


def elliptic(types, s=0, name=None):
    return FiberedSpec(
        quotient_q=S4,
        fiber_genus=1,
        double_fiber_types=tuple(CurveType(t) for t in types),
        imaginary_pairs=s,
        elliptic_name=name,
    )


def test_fibered_elliptic_type1():
    res = fibered_quotient(elliptic("1", name="E(1)"))
    assert res.y_minus == word(s2xs2=1)
    assert res.y_plus.result == "E(1)_0"
    assert any("decomposable" in n for n in res.y_plus.notes)


def test_fibered_elliptic_type2():
    res = fibered_quotient(elliptic("2"))
    assert res.y_minus == word(cp2=1, cp2bar=1)


def test_fibered_handle_count():
    res = fibered_quotient(elliptic("11", s=1))
    assert res.y_minus.s1xs3 == 2
    assert [s for _, s in res.y_plus.surgeries] == [1, 1, 2]


def test_fibered_multiplicity_list_grows():
    res = fibered_quotient(
        FiberedSpec(
            quotient_q=S4,
            fiber_genus=1,
            double_fiber_types=(CurveType.ONE,),
            elliptic_name="E(2)_3",
        )
    )
    assert res.y_plus.result == "E(2)_3,0"


def test_fibered_refuses_a_negative_fiber_genus():
    with pytest.raises(ConstructionError, match="fiber genus must be >= 0, got -1"):
        FiberedSpec(S4, -1, (CurveType.ONE,))


def test_fibered_validates_inputs():
    with pytest.raises(ConstructionError):
        fibered_quotient(elliptic(""))
    with pytest.raises(ConstructionError):
        fibered_quotient(elliptic("?"))


# --------------------------------------------------------------- imaginary


def test_imaginary_line_is_unknot():
    stmt = imaginary_curve_image(1, 1)
    assert stmt.embedded and stmt.bounds_handlebody and stmt.standard
    assert "unknot" in stmt.note


def test_imaginary_conic_four_points():
    stmt = imaginary_curve_image(2, 4)
    assert stmt.standard and "unknot" in stmt.note


def test_imaginary_conic_two_points_not_embedded():
    stmt = imaginary_curve_image(2, 2)
    assert not stmt.embedded
    assert "not an embedded surface" in stmt.note


def test_imaginary_cubic_standard_not_unknot():
    stmt = imaginary_curve_image(3, 9)
    assert stmt.standard and "unknot" not in stmt.note
