import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjquot.schemes import (
    MAX_DEPTH,
    CurveType,
    Oval,
    RealScheme,
    SchemeCatalogEntry,
    ViroSyntaxError,
    canonical_key,
    format_viro,
    forest_key,
    harnack_bound,
    iter_forests,
    l_curve_bound,
    load_catalog,
    parse_viro,
    validate,
)

from conftest import forests, random_forest
from oracles import forests_isomorphic


def test_parse_ten_ovals_type2():
    s = parse_viro("<10>_2")
    assert s.oval_count == 10
    assert all(not r.children for r in s.roots)
    assert s.curve_type is CurveType.TWO


def test_parse_empty():
    s = parse_viro("<0>")
    assert s.is_empty and s.curve_type is CurveType.UNKNOWN


def test_parse_one_next_to_nest_of_nine():
    s = parse_viro("<1 u 1<9>>_1")
    assert s.curve_type is CurveType.ONE
    sizes = sorted(r.size for r in s.roots)
    assert sizes == [1, 10]
    big = max(s.roots, key=lambda r: r.size)
    assert len(big.children) == 9 and all(not c.children for c in big.children)


def test_parse_suffix_on_empty_body():
    assert parse_viro("<0>_2").curve_type is CurveType.TWO


def test_parse_counts_expand():
    s = parse_viro("<2<3>>")
    assert len(s.roots) == 2
    assert all(len(r.children) == 3 for r in s.roots)


def test_parse_pseudoline_extension():
    s = parse_viro("<J u 1>")
    assert s.pseudoline and s.oval_count == 1
    assert parse_viro("<J>").oval_count == 0


@pytest.mark.parametrize(
    "bad, pos",
    [
        ("<1 u 0>", 5),
        ("<0<1>>", 1),
        ("1>", 0),
        ("<1", 2),
        ("<1>_3", 4),
        ("<1>x", 3),
        ("<1  u 1>", 2),
        ("<J<1>>", 2),
        ("<1<J>>", 3),
        ("<01>", 1),
    ],
)
def test_parse_errors_with_position(bad, pos):
    with pytest.raises(ViroSyntaxError) as err:
        parse_viro(bad)
    assert err.value.position == pos


def nest_code(depth):
    return "<" + "1<" * (depth - 1) + "1" + ">" * depth


def test_parse_accepts_the_deepest_nest():
    code = nest_code(MAX_DEPTH)
    s = parse_viro(code)
    assert s.depth == MAX_DEPTH == 128
    assert format_viro(s) == code
    assert canonical_key(parse_viro(format_viro(s))) == canonical_key(s)


def test_parse_rejects_a_deeper_nest_at_its_bracket():
    with pytest.raises(ViroSyntaxError) as err:
        parse_viro(nest_code(MAX_DEPTH + 1))
    assert err.value.position == 2 * MAX_DEPTH
    with pytest.raises(ViroSyntaxError):
        parse_viro(nest_code(1200))


def test_format_nest_of_three():
    s = RealScheme((Oval((Oval((Oval(),)),)),))
    assert format_viro(s) == "<1<1<1>>>"


def test_format_empty():
    assert format_viro(RealScheme()) == "<0>"


@settings(max_examples=300, deadline=None)
@given(forests(9), st.sampled_from(list(CurveType)))
def test_parse_format_round_trip(roots, curve_type):
    s = RealScheme(roots, False, curve_type)
    assert canonical_key(parse_viro(format_viro(s))) == canonical_key(s)


def test_round_trip_thousand_random_forests():
    rng = random.Random(42)
    for _ in range(1000):
        s = RealScheme(random_forest(rng, rng.randrange(0, 10)))
        assert canonical_key(parse_viro(format_viro(s))) == canonical_key(s)


def test_canonical_key_unordered_children():
    assert canonical_key(parse_viro("<1 u 2>")) == canonical_key(parse_viro("<2 u 1>"))
    assert canonical_key(parse_viro("<1<1>>")) != canonical_key(parse_viro("<2>"))


def test_canonical_key_tracks_flags():
    assert canonical_key(parse_viro("<1>_1")) != canonical_key(parse_viro("<1>_2"))
    assert forest_key(parse_viro("<1>_1")) == forest_key(parse_viro("<1>_2"))


def test_key_equality_matches_brute_force_isomorphism():
    rng = random.Random(7)
    pool = [random_forest(rng, rng.randrange(0, 7)) for _ in range(500)]
    for a in pool[:60]:
        for b in pool[:60]:
            sa, sb = RealScheme(a), RealScheme(b)
            assert (forest_key(sa) == forest_key(sb)) == forests_isomorphic(a, b)


def test_keys_distinct_on_all_small_forests():
    seen = {}
    for f in iter_forests(6):
        key = forest_key(RealScheme(f))
        assert key not in seen, f
        seen[key] = f
    # forests on 0..6 ovals: 1, 1, 2, 4, 9, 20, 48
    assert len(seen) == 85


def test_validate_harnack():
    assert harnack_bound(6) == 11
    assert validate(parse_viro("<11>"), 6).ok
    report = validate(parse_viro("<12>"), 6)
    assert [v.check for v in report.violations] == ["harnack"]


def test_validate_nest_depth():
    report = validate(parse_viro("<1<1<1<1>>>>"), 6)
    assert [v.check for v in report.violations] == ["nest-depth"]
    assert validate(parse_viro("<1<1<1>>>"), 6).ok


def test_validate_rejects_odd_degree():
    with pytest.raises(ValueError):
        validate(parse_viro("<1>"), 5)


def test_l_curve_bound():
    assert l_curve_bound(parse_viro("<10>"), 6)
    assert not l_curve_bound(parse_viro("<11>"), 6)
    assert l_curve_bound(parse_viro("<1>"), 2)  # not applicable below degree 3


def test_catalog_loads_and_respects_harnack(catalog):
    assert len(catalog) == 65
    for e in catalog:
        assert e.scheme.oval_count <= harnack_bound(e.degree)
        assert e.curve_type in (CurveType.ONE, CurveType.TWO)


def test_catalog_contains_drivers(catalog):
    codes = {e.typed_code for e in catalog}
    for code in [
        "<10>_2",
        "<9>_1",
        "<9>_2",
        "<1<1<1>>>_1",
        "<9 u 1<1>>_1",
        "<1 u 1<9>>_1",
        "<1 u 1<8>>_2",
        "<1<9>>_2",
        "<1<8>>_2",
        "<1<8>>_1",
    ]:
        assert code in codes


def test_catalog_rejects_bad_rows():
    with pytest.raises(ValueError):
        load_catalog(["<12>\t6\t2\tx"])
    with pytest.raises(ValueError):
        load_catalog(["<1>\t6\t2"])


def test_catalog_entry_requires_type():
    with pytest.raises(ValueError):
        SchemeCatalogEntry("<1>", 6, CurveType.UNKNOWN, "x")
