import random

import pytest
from hypothesis import given, settings

from conjquot.domains import (
    Orientability,
    Side,
    SurfaceDescriptor,
    TrackedScheme,
    arnold_descriptor,
    components_W,
    curve_euler,
    euler_W,
    parse_path,
    real_part_X,
    regions,
    side_contains_outer,
)
from conjquot.schemes import RealScheme, iter_forests, parse_viro

from conftest import forests, random_forest
from oracles import pixel_euler_by_side


def tracked(code, outer=False, degree=6):
    return TrackedScheme(parse_viro(code), degree, outer)


@pytest.mark.parametrize("text", ["\uff10", "0.\uff11", "+1", "-1", "1_0", " 1", ""])
def test_parse_path_reads_ascii_digits_only(text):
    assert parse_path("0.12") == (0, 12)
    with pytest.raises(ValueError, match="bad oval path"):
        parse_path(text)


def test_regions_conic():
    rs = regions(tracked("<1>", degree=2))
    recs = {r.record()["owner"]: r for r in rs}
    assert recs["outer"].euler == 0 and recs["outer"].level == 0
    assert recs["0"].euler == 1 and recs["0"].level == 1


def test_regions_one_next_to_nest():
    rs = regions(tracked("<1 u 1<9>>"))
    eulers = sorted(r.euler for r in rs)
    assert eulers == [-8, -1] + [1] * 10
    outer = next(r for r in rs if r.owner is None)
    assert outer.euler == -1
    big = next(r for r in rs if r.euler == -8)
    assert big.level == 1 and big.tracked


def test_regions_reject_pseudoline():
    t = TrackedScheme(parse_viro("<J u 1>"), 6)
    for fn in (regions, euler_W, components_W, arnold_descriptor):
        with pytest.raises(ValueError, match="without a one-sided component"):
            fn(t)


def test_domain_counts_match_region_list():
    for roots in iter_forests(7):
        for degree in (2, 4, 6, 8):
            for outer in (False, True):
                t = TrackedScheme(RealScheme(roots), degree, outer)
                rs = regions(t)
                for side in Side:
                    own = [r for r in rs if r.tracked == (side is Side.TRACKED)]
                    assert euler_W(t, side) == sum(r.euler for r in own)
                    assert components_W(t, side) == len(own)


def test_euler_sum_is_projective_plane():
    for code in ["<0>", "<1>", "<10>", "<1 u 1<9>>", "<1<1<1>>>"]:
        t = tracked(code)
        assert euler_W(t, Side.TRACKED) + euler_W(t, Side.NONTRACKED) == 1


def test_euler_paper_value_ten_ovals():
    assert euler_W(tracked("<10>_2")) == 10


def test_euler_conic_both_sides():
    t = tracked("<1>", degree=2)
    assert euler_W(t, Side.TRACKED) == 1
    assert euler_W(t, Side.NONTRACKED) == 0


def test_euler_one_next_to_nest():
    assert euler_W(tracked("<1 u 1<9>>")) == -7


def test_components():
    assert components_W(tracked("<1<1<1>>>"), Side.TRACKED) == 2
    assert components_W(tracked("<0>"), Side.NONTRACKED) == 1
    assert components_W(tracked("<9>"), Side.NONTRACKED) == 1


def test_component_count_identity():
    rng = random.Random(1)
    for _ in range(50):
        s = RealScheme(random_forest(rng, rng.randrange(0, 11)))
        t = TrackedScheme(s, 6)
        total = components_W(t, Side.TRACKED) + components_W(t, Side.NONTRACKED)
        assert total == s.oval_count + 1


def test_orientability_flags():
    # The class with the outer region holds the one-sided core of the plane,
    # hence is never orientable; the other class always is.
    t = tracked("<5>")
    assert not side_contains_outer(t, Side.TRACKED)  # the orientable class
    assert side_contains_outer(t, Side.NONTRACKED)
    tm = tracked("<5>", outer=True)
    assert side_contains_outer(tm, Side.TRACKED)


@settings(max_examples=60, deadline=None)
@given(forests(8))
def test_pixel_complex_oracle(roots):
    s = RealScheme(roots)
    t = TrackedScheme(s, 6)
    for n in (512, 1024):
        even, odd = pixel_euler_by_side(roots, n)
        assert even == euler_W(t, Side.NONTRACKED)  # outer class
        assert odd == euler_W(t, Side.TRACKED)


def test_real_part_nine_ovals():
    parts = real_part_X(tracked("<9>_1"), Side.NONTRACKED)
    assert len(parts) == 1
    assert parts[0].euler == -16
    assert parts[0].orientability is Orientability.ORIENTABLE
    assert parts[0].genus == 9


def test_real_part_nine_plus_nest():
    parts = real_part_X(tracked("<9 u 1<1>>"), Side.NONTRACKED)
    assert sorted(p.euler for p in parts) == [-18, 2]
    assert all(p.orientability is Orientability.ORIENTABLE for p in parts)


def test_real_part_conic_cover():
    parts = real_part_X(tracked("<1>", degree=2), Side.TRACKED)
    assert [p.euler for p in parts] == [2]


def test_real_part_even_half_degree_keeps_one_sided():
    parts = real_part_X(tracked("<1>", outer=True, degree=4), Side.TRACKED)
    outer_part = next(p for p in parts if p.euler == 0)
    assert outer_part.orientability is Orientability.NON_ORIENTABLE


@pytest.mark.parametrize("degree", [2, 4, 6, 8])
def test_real_part_empty_scheme(degree):
    """Even half-degree: two projective planes, one part more than
    components_W.  Odd half-degree: one sphere."""
    t = TrackedScheme(parse_viro("<0>"), degree, True)
    parts = [(p.euler, p.orientability) for p in real_part_X(t, Side.TRACKED)]
    if degree % 4:
        assert parts == [(2, Orientability.ORIENTABLE)]
    else:
        assert parts == [(1, Orientability.NON_ORIENTABLE)] * 2
    assert len(parts) == components_W(t, Side.TRACKED) + (degree % 4 == 0)
    assert real_part_X(t, Side.NONTRACKED) == ()


def test_real_part_doubling_identity():
    rng = random.Random(3)
    for _ in range(25):
        s = RealScheme(random_forest(rng, rng.randrange(0, 9)))
        t = TrackedScheme(s, 6)
        for side in Side:
            parts = real_part_X(t, side)
            assert sum(p.euler for p in parts) == 2 * euler_W(t, side)
            assert len(parts) == components_W(t, side)


def test_curve_euler():
    assert curve_euler(6) == -18
    assert curve_euler(2) == 2


def test_arnold_ten_ovals():
    a = arnold_descriptor(tracked("<10>_2"))
    assert a.euler == 1 and a.components == 1
    assert a.orientability is Orientability.UNDETERMINED


def test_arnold_nine_ovals():
    assert arnold_descriptor(tracked("<9>_1")).euler == 0


def test_arnold_conic_sphere():
    a = arnold_descriptor(tracked("<1>", degree=2))
    assert a.euler == 2 and a.components == 1


def test_arnold_empty_scheme_flagged():
    a = arnold_descriptor(tracked("<0>", outer=True))
    assert a.components == 2
    assert any("empty" in n for n in a.notes)
    plus = arnold_descriptor(tracked("<0>"))
    assert plus.components == 1


def test_surface_descriptor_invariants():
    with pytest.raises(ValueError):
        SurfaceDescriptor(3, Orientability.ORIENTABLE)
    with pytest.raises(ValueError):
        SurfaceDescriptor(2, Orientability.NON_ORIENTABLE)
