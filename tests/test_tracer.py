import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import conjquot
from conjquot.domains import format_path, iter_ovals
from conjquot.schemes import RealScheme, format_viro, forest_key
from conjquot.tracer import (
    GridConfig,
    PolySpec,
    TraceError,
    _disc_grid,
    _trace_once,
    circle,
    l_curve_sample,
    line,
    poly_add,
    poly_mul,
    trace_scheme,
)

from conftest import random_forest
from oracles import circle_layout, min_feature_gap, trace_once_full_grid

FAST = GridConfig(128, 1024)

# Six lines whose perturbation by a definite sextic realizes ten ovals;
# found by randomized search over arrangements and kept fixed here.
TEN_OVAL_LINES = [
    (-0.370925, 1.127010, -0.388778),
    (0.572332, -1.181086, -0.831562),
    (-0.484989, -0.284424, 0.090466),
    (0.945654, -0.411938, -0.180854),
    (0.766402, 0.431103, -0.025170),
    (0.239445, -2.188252, -0.272109),
]
TEN_OVAL_EPSILON = -7.8e-08


def definite(degree):
    base = PolySpec.from_dict(2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    out = base
    for _ in range(degree // 2 - 1):
        out = poly_mul(out, base)
    return out


def circles_product(circles):
    out = circle(*circles[0])
    for c in circles[1:]:
        out = poly_mul(out, circle(*c))
    return out


def test_circle_gives_one_oval():
    result = trace_scheme(circle(0.0, 0.0, 0.5), FAST)
    assert result.stable
    assert format_viro(result.scheme) == "<1>"
    signs = dict(result.w_signs)
    assert signs["0"] == -signs["outer"]


def test_triple_circle_nest():
    f = poly_add(circles_product([(0, 0, 0.25), (0, 0, 0.5), (0, 0, 0.75)]),
                 definite(6), scale=-1e-4)
    result = trace_scheme(f, FAST)
    assert result.stable
    assert format_viro(result.scheme) == "<1<1<1>>>"


def test_two_circle_pair():
    f = poly_add(circles_product([(0, 0, 0.3), (0, 0, 0.6)]), definite(4), scale=-1e-4)
    result = trace_scheme(f, FAST)
    assert result.stable and format_viro(result.scheme) == "<1<1>>"


def test_signs_alternate_across_every_contour():
    f = circles_product([(0, 0, 0.2), (0, 0, 0.45), (0.55, 0, 0.06), (0, 0, 0.7)])
    result = trace_scheme(f, FAST)
    signs = dict(result.w_signs)
    for name, sign in signs.items():
        if name == "outer":
            continue
        parent = "outer" if "." not in name else name.rsplit(".", 1)[0]
        assert signs[parent] == -sign


def test_pseudoline_alone_and_with_oval():
    assert format_viro(trace_scheme(line(1.0, 0.3, 0.1), FAST).scheme) == "<J>"
    cubic = PolySpec.from_dict(3, {(3, 0, 0): 1.0, (1, 0, 2): -1.0, (0, 2, 1): -1.0})
    assert format_viro(trace_scheme(cubic, FAST).scheme) == "<J u 1>"


def test_oval_through_infinity():
    hyperbola = PolySpec.from_dict(2, {(1, 1, 0): 1.0, (0, 0, 2): -1.0})
    assert format_viro(trace_scheme(hyperbola, FAST).scheme) == "<1>"


def test_round_trip_random_forests():
    rng = random.Random(11)
    done = 0
    while done < 8:
        roots = random_forest(rng, rng.randrange(1, 7))
        layout = circle_layout(roots)
        if min_feature_gap(layout) < 0.02:
            continue
        f = circles_product(layout)
        result = trace_scheme(f, GridConfig(256, 1024))
        assert result.stable
        assert forest_key(result.scheme) == forest_key(RealScheme(roots))
        # one sign per region, named by the stored child order
        assert set(dict(result.w_signs)) == {"outer"} | {
            format_path(path) for path, _ in iter_ovals(result.scheme)
        }
        done += 1


def test_trace_leaves_scipy_sparse_unimported():
    # scipy.sparse (csgraph) adds about 11 MB and 0.1 s to every CLI start
    src = str(Path(conjquot.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import conjquot\n"
        "conjquot.trace_scheme(conjquot.tracer.circle(0, 0, 0.5), conjquot.GridConfig(32, 64))\n"
        "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse was imported'\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_empty_real_locus_is_the_empty_scheme():
    result = trace_scheme(definite(2), FAST)
    assert result.stable
    assert format_viro(result.scheme) == "<0>"
    assert dict(result.w_signs) == {"outer": 1}


def test_unstable_flagged_not_guessed():
    # a cap equal to the base resolution forbids the corroborating pass
    result = trace_scheme(circle(0.0, 0.0, 0.5), GridConfig(64, 64))
    assert not result.stable
    assert any("refinement cap" in n for n in result.notes)


def test_nodal_curve_never_traces():
    crossing_lines = PolySpec.from_dict(2, {(1, 1, 0): 1.0})
    with pytest.raises(TraceError):
        trace_scheme(crossing_lines, GridConfig(64, 256))


def test_zero_polynomial_rejected():
    with pytest.raises(TraceError):
        PolySpec.from_dict(2, {})


def test_poly_text_round_trip():
    spec = PolySpec.from_text("2 0 0 1.0\n0 2 0 1.0\n# comment\n0 0 2 -1.0")
    assert spec.degree == 2
    assert format_viro(trace_scheme(spec, FAST).scheme) == "<1>"


def one_sheet_reference(p, u, v, w):
    """Reference value f(u, v, w): full-grid power tables, one sum."""
    pu, pv, pw = [np.ones_like(u)], [np.ones_like(v)], [np.ones_like(w)]
    for _ in range(p.degree):
        pu.append(pu[-1] * u)
        pv.append(pv[-1] * v)
        pw.append(pw[-1] * w)
    out = np.zeros_like(u)
    for (a, b, c), coef in p.coeffs:
        out += coef * pu[a] * pv[b] * pw[c]
    return out


def evaluate_cases():
    rng = random.Random(6)
    for degree in range(1, 13):
        monomials = [
            (a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)
        ]
        yield f"random-{degree}", PolySpec.from_dict(
            degree, {m: rng.uniform(-2.0, 2.0) for m in monomials}
        )
    for k in range(1, 7):
        yield f"circles-{k}", circles_product(
            [(0.1 * i - 0.2, 0.05 * i, 0.2 + 0.1 * i) for i in range(k)]
        )
    prod = line(*TEN_OVAL_LINES[0])
    for coeffs in TEN_OVAL_LINES[1:]:
        prod = poly_mul(prod, line(*coeffs))
    yield "ten-oval", poly_add(prod, definite(6), scale=-TEN_OVAL_EPSILON)


@pytest.mark.parametrize("n", [64, 256])
def test_evaluate_matches_one_sheet_sums_exactly(n):
    u, v, w, _ = _disc_grid(n)
    gu, gv = np.broadcast_to(u, w.shape), np.broadcast_to(v, w.shape)
    for name, p in evaluate_cases():
        want = (one_sheet_reference(p, gu, gv, w), one_sheet_reference(p, gu, gv, -w))
        for args in ((gu, gv, w), (u, v, w)):
            got = p.evaluate(*args)
            assert len(got) == 2, name
            for sheet, g, x in zip(("upper", "lower"), got, want):
                assert g.shape == (n, n), (name, sheet)
                assert np.array_equal(g, x), (name, sheet, args[0].shape)


def test_evaluate_on_a_band_equals_that_slice_of_the_grid():
    n = 100
    u, v, w, _ = _disc_grid(n)
    rows, cols = slice(37, 53), slice(11, 90)
    for name, p in evaluate_cases():
        full = p.evaluate(u, v, w)
        band = p.evaluate(u[rows], v[:, cols], w[rows, cols])
        for f, b in zip(full, band):
            assert f[rows, cols].tobytes() == b.tobytes(), name


def trace_outcome(trace, p, n):
    try:
        got = trace(p, n)
    except TraceError as err:
        return "error", str(err)
    return repr(got.forest), got.signs, got.ambiguous


def oracle_cases():
    """Seeded (polynomial, resolution) pairs: random dense forms, circle
    products, x - y, xy and the golden polynomials, at every resolution."""
    rng = random.Random(12)
    goldens = Path(__file__).parent / "goldens"
    polys = [line(1.0, -1.0, 0.0), PolySpec.from_dict(2, {(1, 1, 0): 1.0})]
    polys += [PolySpec.from_text(f.read_text("utf-8")) for f in sorted(goldens.glob("*.poly"))]
    for degree in range(1, 8):
        monomials = [
            (a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)
        ]
        for _ in range(3):
            polys.append(
                PolySpec.from_dict(degree, {m: rng.uniform(-2.0, 2.0) for m in monomials})
            )
    for k in range(1, 7):
        for _ in range(3):
            polys.append(circles_product([
                (rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6), rng.uniform(0.05, 0.5))
                for _ in range(k)
            ]))
    for n in (1, 2, 3, 7, 64, 100, 256):
        for p in polys:
            yield p, n


def test_banded_trace_matches_full_grid_oracle():
    cases = list(oracle_cases())
    assert len(cases) >= 300
    errors = 0
    for p, n in cases:
        want = trace_outcome(trace_once_full_grid, p, n)
        assert trace_outcome(_trace_once, p, n) == want, (p, n)
        errors += want[0] == "error"
    assert 0 < errors < len(cases)  # both outcomes are exercised


def six_circle_product():
    """A degree-12 product of six circles."""
    return circles_product([
        (-0.5, 0, 0.2), (0.5, 0, 0.2), (0, 0.5, 0.2), (0, -0.5, 0.2), (0, 0, 0.15), (0.3, 0.3, 0.05)
    ])


def test_trace_once_peak_memory_at_1024():
    # float values live one band at a time; the full-grid pass peaked at 127 MB
    p = six_circle_product()
    tracemalloc.start()
    try:
        _trace_once(p, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6, peak


def test_trace_once_evaluates_only_bands_meeting_the_disc(monkeypatch):
    cells = []
    evaluate = PolySpec.evaluate

    def counted(self, u, v, w):
        values = evaluate(self, u, v, w)
        cells.append(values[0].size)
        return values

    monkeypatch.setattr(PolySpec, "evaluate", counted)
    n = 512
    _trace_once(six_circle_product(), n)
    assert len(cells) > 1 and sum(cells) <= 0.85 * n * n


# ---------------------------------------------------------------- L-curves


def test_l_curve_two_lines_give_conic():
    res = l_curve_sample(
        [(1.0, 0.1, 0.0), (-0.1, 1.0, 0.05)],
        PolySpec.from_dict(2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}),
        epsilon=-1e-3,
        grid=FAST,
    )
    assert format_viro(res.trace.scheme) == "<1>"
    assert res.provenance_tag == "L-curve"


def test_l_curve_six_lines_ten_ovals():
    res = l_curve_sample(
        TEN_OVAL_LINES, definite(6), epsilon=TEN_OVAL_EPSILON, grid=GridConfig(512, 1024)
    )
    assert res.trace.stable
    assert format_viro(res.trace.scheme) == "<10>"


def test_l_curve_rejects_degenerate_arrangements():
    with pytest.raises(TraceError):
        l_curve_sample(
            [(1, 0, 0), (1, 0, 0)], PolySpec.from_dict(2, {(2, 0, 0): 1.0}), 1e-3
        )
    with pytest.raises(TraceError):
        l_curve_sample(
            [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
            PolySpec.from_dict(3, {(3, 0, 0): 1.0}),
            1e-3,
        )


def test_l_curve_degree_mismatch():
    with pytest.raises(TraceError):
        l_curve_sample([(1, 0, 0), (0, 1, 0)], definite(4), 1e-3)


def test_l_curve_autoscaled_epsilon():
    res = l_curve_sample(
        [(1.0, 0.1, 0.0), (-0.1, 1.0, 0.05)],
        PolySpec.from_dict(2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}),
        grid=FAST,
    )
    assert res.epsilon > 0
    assert res.trace.scheme.oval_count <= 0 or res.trace.stable
