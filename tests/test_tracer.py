import math
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import conjquot
from conjquot.domains import OUTER, format_path, iter_ovals
from conjquot.region_graph import _region_forest
from conjquot.schemes import CurveType, RealScheme, format_viro, forest_key, iter_forests, parse_viro
from conjquot.tracer import (
    _BAND_CELLS,
    MAX_DEGREE,
    MAX_RESOLUTION,
    GridConfig,
    PolySpec,
    TraceError,
    TraceResult,
    TracerInternalError,
    _disc_axis,
    _disc_band,
    _disc_reach,
    _label_runs,
    _powers,
    _run_contacts,
    _run_ids_at,
    _sign_runs,
    _trace_once,
    _upper_w,
    circle,
    l_curve_sample,
    line,
    poly_add,
    poly_mul,
    trace_scheme,
)

from conftest import random_forest
import oracles
from oracles import (
    circle_layout,
    disc_grid,
    label_signs_by_pixels,
    label_signs_by_runs,
    min_feature_gap,
    trace_once_full_grid,
    trace_once_two_sheets,
)

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
    # importing scipy.ndimage cost every first trace 0.3-0.4 s; the tracer
    # labels by runs in numpy, so no scipy module loads at all
    src = str(Path(conjquot.__file__).parents[1])
    check = (
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import conjquot.tracer\n" + check
        + "conjquot.trace_scheme(conjquot.tracer.circle(0, 0, 0.5), conjquot.GridConfig(32, 64))\n"
        + check
        + "from conjquot import cli\n"
        + "assert cli.main(['trace', 'poly', '--poly', '2 0 0 1; 0 2 0 1; 0 0 2 -0.25',"
        " '--grid', '32', '--grid-cap', '64']) == 0\n"
        + check
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_first_trace_leaves_numpy_ma_unimported():
    # the first np.unique in a process imports numpy.ma, 13-17 ms and about
    # 1 MB; the tracer dedupes its id pairs by a sort instead
    src = str(Path(conjquot.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from conjquot import tracer\n"
        "tracer._trace_once(tracer.poly_mul(tracer.circle(0, 0, 0.5), tracer.circle(0, 0, 0.2)), 64)\n"
        "assert 'numpy.ma' not in sys.modules\n"
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


@pytest.mark.parametrize(
    "resolution, cap", [(64, MAX_RESOLUTION + 1), (2 * MAX_RESOLUTION, 2 * MAX_RESOLUTION)]
)
def test_grid_above_the_bound_rejected(resolution, cap):
    assert GridConfig(MAX_RESOLUTION, MAX_RESOLUTION).cap == MAX_RESOLUTION == 8192
    with pytest.raises(ValueError, match=f"cap <= {MAX_RESOLUTION}, got resolution {resolution}"):
        GridConfig(resolution, cap)


def test_nodal_curve_never_traces():
    crossing_lines = PolySpec.from_dict(2, {(1, 1, 0): 1.0})
    with pytest.raises(TraceError):
        trace_scheme(crossing_lines, GridConfig(64, 256))


def test_zero_polynomial_rejected():
    with pytest.raises(TraceError):
        PolySpec.from_dict(2, {})


def test_degree_above_the_cap_rejected():
    assert PolySpec.from_dict(MAX_DEGREE, {(0, 0, MAX_DEGREE): 1.0}).degree == 256
    with pytest.raises(TraceError, match="degree 257 is above the cap of 256"):
        PolySpec.from_dict(257, {(0, 0, 257): 1.0})
    with pytest.raises(TraceError, match="above the cap"):
        poly_mul(definite(256), line(1.0, 0.0, 0.0))


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


def dense_form(rng, degree, scale):
    """Every monomial of the degree, coefficients uniform in [-scale, scale]."""
    monomials = [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    return PolySpec.from_dict(degree, {m: scale * rng.uniform(-1.0, 1.0) for m in monomials})


def evaluate_cases():
    rng = random.Random(6)
    for degree in range(1, 13):
        yield f"random-{degree}", dense_form(rng, degree, 2.0)
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
    # evaluate_terms is the term-order sum that evaluate defers to near zero
    u, v, w, _ = disc_grid(n)
    gu, gv = np.broadcast_to(u, w.shape), np.broadcast_to(v, w.shape)
    for name, p in evaluate_cases():
        for sheet, z in (("upper", w), ("lower", -w)):
            want = one_sheet_reference(p, gu, gv, z)
            for args in ((gu, gv, z), (u, v, z)):
                got = p.evaluate_terms(*args)
                assert got.shape == (n, n), (name, sheet)
                assert np.array_equal(got, want), (name, sheet, args[0].shape)


def test_evaluate_on_a_band_equals_that_slice_of_the_grid():
    n = 100
    u, v, w, _ = disc_grid(n)
    rows, cols = slice(37, 53), slice(11, 90)
    for name, p in evaluate_cases():
        full = p.evaluate_terms(u, v, w)
        band = p.evaluate_terms(u[rows], v[:, cols], w[rows, cols])
        assert full[rows, cols].tobytes() == band.tobytes(), name
        signs = np.sign(p.evaluate(u[rows], v[:, cols]))
        assert np.array_equal(np.sign(p.evaluate(u, v))[:, rows, cols], signs), name


def test_evaluate_with_tables_and_buffer_gives_the_same_values():
    # _trace_once passes slices of one resolution's power table and a reused
    # buffer; evaluate's values must be those it computes on its own.
    n = 100
    axis = _disc_axis(n)
    rows, cols = slice(37, 53), slice(11, 90)
    u, v = axis[rows, None], axis[None, cols]
    buffer = np.full(2 * 16 * 79 + 5, np.nan)
    for name, p in evaluate_cases():
        want = p.evaluate(u, v)
        assert want.shape == (2, 16, 79), name
        table = _powers(axis, p.degree)
        out = buffer[: want.size].reshape(want.shape)
        got = p.evaluate(u, v, (table[:, rows], table[:, cols]), out)
        assert got is out and got.tobytes() == want.tobytes(), name


def assert_certified(p, u, v, w, inside):
    """``evaluate``'s upper sheet is within its slack of ``evaluate_terms`` at
    w on the disc, and its lower sheet of ``evaluate_terms`` at -w, each with
    the same int8 signs and the same exact zeros there."""
    values = p.evaluate(u, v)
    assert values.shape == (2, *inside.shape), p
    for sheet, z in zip(values, (w, -w)):
        got, want = sheet[inside], p.evaluate_terms(u, v, z)[inside]
        assert np.all(np.abs(got - want) <= p._pq[1]), p
        got_sg = np.subtract(got > 0, got < 0, dtype=np.int8)
        want_sg = np.subtract(want > 0, want < 0, dtype=np.int8)
        assert got_sg.tobytes() == want_sg.tobytes(), p
        assert np.count_nonzero(got == 0) == np.count_nonzero(want == 0), p


def test_certified_evaluation_keeps_every_sign_and_zero():
    # On the disc f is within the slack of the term-order sum, and where it
    # is not clear of zero it is replaced by that sum: the int8 signs and
    # the exact zeros agree, from coefficients near the smallest normal
    # double to an absolute sum near the largest.  Multiples of x - y are
    # zero up to rounding on the diagonal, where the two orders of
    # evaluation round to different signs.  Off the disc values are
    # unspecified.
    rng = random.Random(16)
    u, v, w, inside = disc_grid(97)
    for degree in range(1, 13):
        terms = (degree + 1) * (degree + 2) // 2
        for scale in (1e-300, 1e-150, 1e-8, 1.0, 1e150, 1e307 / terms):
            forms = [dense_form(rng, degree, scale)]
            if degree > 1:
                forms.append(poly_mul(line(1.0, -1.0, 0.0), dense_form(rng, degree - 1, scale)))
            for p in forms:
                assert_certified(p, u, v, w, inside)


def test_certified_evaluation_off_the_grid():
    # evaluate computes the upper sheet's w itself, so it can be called at
    # any points of the disc, such as block centres: at seeded points up to
    # 1 - 1e-12 from the centre, rows and columns repeated so that x - y and
    # xy vanish exactly at some, its signs and exact zeros are
    # evaluate_terms' at _upper_w's w and, on the lower sheet, at -w.
    rng = random.Random(35)
    radius = [1 - 1e-12] + [1 - 10.0 ** -rng.uniform(0, 12) for _ in range(47)]
    angle = [rng.uniform(0, 2 * math.pi) for _ in radius]
    u = np.array([r * math.cos(t) for r, t in zip(radius, angle)] + [0.0])[:, None]
    v = np.concatenate([[r * math.sin(t) for r, t in zip(radius, angle)], u[:16, 0], [0.0]])[None]
    w, inside = _upper_w(u * u, v * v), u * u + v * v <= 1.0
    assert inside.sum() > 1000 and inside[np.arange(48), np.arange(48)].all()
    for degree in range(1, 13):
        forms = [dense_form(rng, degree, 1.0)]
        if degree > 1:
            forms.append(poly_mul(line(1.0, -1.0, 0.0), dense_form(rng, degree - 1, 1.0)))
        for p in forms:
            assert_certified(p, u, v, w, inside)
    for p in (line(1.0, -1.0, 0.0), PolySpec.from_dict(2, {(1, 1, 0): 1.0})):
        assert all(np.count_nonzero(f[inside] == 0) > 0 for f in p.evaluate(u, v)), p
        assert_certified(p, u, v, w, inside)


def busiest_circle(n):
    """The radius^2 shared by the most pixel centres inside the disc of the n-grid."""
    ks = range(1 - n, n, 2)
    sums = Counter(a * a + b * b for a in ks for b in ks if a * a + b * b < n * n)
    return sums.most_common(1)[0][0] / (n * n)


def sphere_power(t):
    """z^12 - t (x^2 + y^2 + z^2)^6, zero on the sphere where w^12 = t."""
    sphere = PolySpec.from_dict(2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    return poly_add(PolySpec.from_dict(12, {(0, 0, 12): 1.0}), reduce(poly_mul, [sphere] * 6), -t)


@pytest.mark.parametrize("n", [97, 256])
def test_certified_evaluation_on_the_substitution_worst_cases(n):
    # P + wQ replaces w^2 by 1 - u^2 - v^2: its zero set differs from the
    # term-order sum's by rounding, so the worst cases are forms that vanish
    # at pixel centres.  z^12 - t (x^2 + y^2 + z^2)^6 is zero on a circle
    # through the most centres, (x - y) z^11 on the diagonal, and dense
    # degree-20 forms have the longest expansions; signs and zeros must
    # still be the term-order sum's on the disc.
    rng = random.Random(34)
    u, v, w, inside = disc_grid(n)
    forms = [sphere_power((1 - busiest_circle(n)) ** 6)]
    forms.append(PolySpec.from_dict(12, {(1, 0, 11): 1.0, (0, 1, 11): -1.0}))
    forms += [dense_form(rng, 20, scale) for scale in (1e-290, 1.0, 1e300)]
    for p in forms:
        assert_certified(p, u, v, w, inside)
    for f in forms[1].evaluate(u, v):
        assert np.count_nonzero(f[inside] == 0) == np.count_nonzero(inside[np.arange(n), np.arange(n)])


def test_evaluation_with_tables_that_overflow_refits_every_cell(monkeypatch):
    # The coefficients sum to a finite value, but 1e307 s^6 expands to
    # coefficients up to 90e307: no table is finite, so every cell of both
    # sheets is refit
    refits = []
    evaluate_terms = PolySpec.evaluate_terms

    def counted(self, u, v, w):
        refits.append(u.size)
        return evaluate_terms(self, u, v, w)

    p = PolySpec.from_dict(12, {k: 1e307 * c for k, c in sphere_power(0.01).coeffs})
    assert math.isfinite(math.fsum(abs(c) for _, c in p.coeffs)) and p._pq[1] == math.inf
    u, v, w, inside = disc_grid(97)
    monkeypatch.setattr(PolySpec, "evaluate_terms", counted)
    p.evaluate(u, v)
    assert refits == [2 * w.size]
    monkeypatch.undo()
    assert_certified(p, u, v, w, inside)


def test_certified_evaluation_refits_exact_zeros(monkeypatch):
    # x - y vanishes exactly at the diagonal centres, and xy at the middle
    # row and column of an odd grid, on both sheets: P +- wQ's rounding bound
    # cannot vouch for those signs, so evaluate_terms supplies them
    refits = []
    evaluate_terms = PolySpec.evaluate_terms

    def counted(self, u, v, w):
        refits.append(u.size)
        return evaluate_terms(self, u, v, w)

    monkeypatch.setattr(PolySpec, "evaluate_terms", counted)
    u, v, w, inside = disc_grid(63)
    for p in (line(1.0, -1.0, 0.0), PolySpec.from_dict(2, {(1, 1, 0): 1.0})):
        refits.clear()
        f = p.evaluate(u, v)
        for sheet, z in zip(f, (w, -w)):
            zeros = np.count_nonzero(evaluate_terms(p, u, v, z)[inside] == 0)
            assert zeros > 0 and np.count_nonzero(sheet[inside] == 0) == zeros
        assert len(refits) == 1 and refits[0] >= np.count_nonzero(f[:, inside] == 0)


def trace_outcome(trace, p, n):
    try:
        got = trace(p, n)
    except TraceError as err:
        return "error", str(err)
    return repr(got.forest), got.signs, got.ambiguous


def oracle_cases():
    """Seeded (polynomial, resolution) pairs: random dense forms, circle
    products, x - y, xy and the golden polynomials, at every resolution.
    At 101, 255 and 257 the middle row, which the tracer reads on the upper
    sheet only, is the last of a band of 51, 64 and 3 rows."""
    rng = random.Random(12)
    goldens = Path(__file__).parent / "goldens"
    polys = [line(1.0, -1.0, 0.0), PolySpec.from_dict(2, {(1, 1, 0): 1.0})]
    polys += [PolySpec.from_text(f.read_text("utf-8")) for f in sorted(goldens.glob("*.poly"))]
    for degree in range(1, 8):
        polys += [dense_form(rng, degree, 2.0) for _ in range(3)]
    for k in range(1, 7):
        for _ in range(3):
            polys.append(circles_product([
                (rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6), rng.uniform(0.05, 0.5))
                for _ in range(k)
            ]))
    for n in (1, 2, 3, 7, 64, 100, 101, 255, 256, 257):
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


def outcome_forms():
    """The forms of ``goldens/trace-once-outcomes.txt``: 120 seeded products
    of 1-6 circles, then x - y, x + y, w^2, the radius-0.5 circle, a cubic,
    the conics z^2 - x^2 + 0.1y^2 and z^2 - 0.5x^2 + 0.1y^2, and the line
    pairs z^2 - x^2 and x^2 - y^2."""
    rng = random.Random(36)
    forms = [
        circles_product([
            (rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6), rng.uniform(0.05, 0.5))
            for _ in range(1 + i % 6)
        ])
        for i in range(120)
    ]

    def quadric(x2, y2, z2):
        return PolySpec.from_dict(2, {(2, 0, 0): x2, (0, 2, 0): y2, (0, 0, 2): z2})

    cubic = PolySpec.from_dict(3, {(3, 0, 0): 1.0, (1, 0, 2): -1.0, (0, 2, 1): -1.0})
    return forms + [
        line(1.0, -1.0, 0.0), line(1.0, 1.0, 0.0), quadric(0.0, 0.0, 1.0), circle(0.0, 0.0, 0.5),
        cubic, quadric(-1.0, 0.1, 1.0), quadric(-0.5, 0.1, 1.0), quadric(-1.0, 0.0, 1.0),
        quadric(1.0, -1.0, 0.0),
    ]


def trace_once_outcomes():
    """One line per form of ``outcome_forms`` and resolution n: the form's
    index, n, then the forest's code, sorted signs and ambiguous count of
    ``_trace_once``, or its error."""
    out = []
    for i, p in enumerate(outcome_forms()):
        for n in (1, 2, 3, 7, 16, 33, 64, 97, 128):
            try:
                got = _trace_once(p, n)
                out.append(f"{i} {n} {format_viro(got.forest)} {sorted(got.signs.items())}"
                           f" {got.ambiguous}")
            except TraceError as err:
                out.append(f"{i} {n} error: {err}")
    return out


def test_trace_once_outcomes_golden():
    """``_trace_once`` on fixed forms at fixed resolutions equals
    ``goldens/trace-once-outcomes.txt``, the lines ``trace_once_outcomes``
    wrote, one per line."""
    golden = Path(__file__).parent / "goldens" / "trace-once-outcomes.txt"
    assert trace_once_outcomes() == golden.read_text("utf-8").splitlines()


def rotated(p, rotation):
    """p with (x, y, z) replaced by ``rotation`` applied to (x, y, z)."""
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    forms = [PolySpec.from_dict(1, dict(zip(axes, row))) for row in rotation]
    coeffs = {}
    for exponents, coef in p.coeffs:
        term = PolySpec.from_dict(0, {(0, 0, 0): coef})
        for form, e in zip(forms, exponents):
            for _ in range(e):
                term = poly_mul(term, form)
        for k, x in term.coeffs:
            coeffs[k] = coeffs.get(k, 0.0) + x
    return PolySpec.from_dict(p.degree, coeffs)


def crosses_rim(p):
    t = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    f = p.evaluate_terms(np.cos(t), np.sin(t), np.zeros_like(t))
    return f.min() < 0 < f.max()


def test_one_sheet_trace_matches_two_sheets_across_the_rim():
    # Rotated circle products whose ovals cross the rim, where the two
    # sheets meet: the one-sheet tracer must number regions, and so order
    # siblings, exactly as the two-sheet tracer did.
    rng = random.Random(16)
    compared = errors = 0
    while compared < 200:
        gauss = [[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)]
        rotation = np.linalg.qr(np.array(gauss))[0]
        p = circles_product([
            (rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6), rng.uniform(0.1, 0.6))
            for _ in range(rng.randint(1, 4))
        ])
        p = rotated(p, rotation.tolist())
        if not crosses_rim(p):
            continue
        n = rng.choice([31, 64, 100, 128])
        want = trace_outcome(trace_once_two_sheets, p, n)
        assert trace_outcome(_trace_once, p, n) == want, (p, n)
        compared += 1
        errors += want[0] == "error"
    assert errors < compared


def old_disc_grid(n):
    """A ``linspace`` grid: not antipodally symmetric in floating point for
    most n, so antipodal cells of xy can differ in sign."""
    half = np.linspace(-1.0, 1.0, n, endpoint=False) + 1.0 / n
    u, v = np.meshgrid(half, half, indexing="ij")
    rr = u * u + v * v
    return half[:, None], half[None, :], np.sqrt(np.maximum(1.0 - rr, 0.0)), rr <= 1.0


def float_disc(u, v):
    """The float in-disc test, the reference for the tracer's integer rule."""
    return u * u + v * v <= 1.0


def test_disc_grid_is_antipodally_symmetric():
    for n in [*range(1, 300), 511, 512, 1000, 1023, 1024, 2047, 2999]:
        axis = _disc_axis(n)
        w = _upper_w(axis[:, None] * axis[:, None], axis * axis)
        c0, inside = _disc_band(*_disc_reach(n))  # every row: the widest spans the grid
        assert c0 == 0 and np.array_equal(axis[::-1], -axis), n
        assert np.array_equal(w[::-1, ::-1], w) and np.array_equal(inside[::-1, ::-1], inside), n
        want = disc_grid(n)
        assert np.array_equal(want[0].ravel(), axis) and np.array_equal(want[2], w), n
        assert np.array_equal(float_disc(axis[:, None], axis), inside), n


def test_disc_span_is_the_float_disc_test():
    # The integer rule, each row's reach, gives the in-disc cells of the
    # float test: every row at n = 1..400, with every band the tracer cuts
    # and bands of 7 rows, and the cells either side of each row's cut at
    # larger sizes, where a row's in-disc cells are one stretch because
    # u*u + v*v grows with |v| in floating point too.
    for n in range(1, 401):
        axis = _disc_axis(n)
        inside, (offset, reach) = float_disc(axis[:, None], axis), _disc_reach(n)
        assert np.array_equal((n - 1 - reach) // 2, inside.argmax(axis=1)), n
        assert np.array_equal(reach + 1, inside.sum(axis=1)), n
        for step in (max(1, _BAND_CELLS // n), 7):
            for r0 in range(0, n, step):
                c0, band = _disc_band(offset, reach[r0 : r0 + step])
                rows = inside[r0 : r0 + step]
                assert np.array_equal(rows[:, c0 : n - c0], band), (n, r0)
                assert rows.sum() == band.sum(), (n, r0)
    for n in (511, 1000, 1023, 1024, 2047, 2048, 2999, 4096, 5000, 8192):
        axis = _disc_axis(n)
        reach = _disc_reach(n)[1]
        c0, last = (n - 1 - reach) // 2, (n - 1 + reach) // 2
        cols = np.stack([c0 - 1, c0, last, last + 1], axis=1)
        inside = float_disc(axis[:, None], axis[np.clip(cols, 0, n - 1)])
        assert inside[:, 1:3].all(), n
        assert not inside[c0 > 0, 0].any() and not inside[last < n - 1, 3].any(), n


def test_fold_checks_antipodal_signs(monkeypatch):
    # The one-sheet tracer reads the lower sheet as the upper one turned; the
    # two-sheet reference folds evaluated pairs and checks their signs.
    xy = PolySpec.from_dict(2, {(1, 1, 0): 1.0})
    for trace in (_trace_once, trace_once_two_sheets):
        with pytest.raises(TraceError) as err:  # two crossing lines: no tree, but signs agree
            trace(xy, 1023)
        assert not isinstance(err.value, TracerInternalError)
    monkeypatch.setattr(oracles, "disc_grid", old_disc_grid)
    with pytest.raises(TracerInternalError, match="sign rule"):
        trace_once_two_sheets(xy, 1023)


def region_graph(roots, odd=False, split=False):
    """The two-sheet id graph of a forest's regions, as ``_region_forest``'s
    arguments, and each region's sign by owner.

    Regions get upper ids 1, 2, ... in preorder, the outer region first,
    with sign (-1)^depth; the lower lift of id c is m + c, its sign turned
    for an ``odd`` curve.  The outer region meets its own lower lift across
    the rim: an even curve stitches them into one sphere component, and an
    odd one is the line at infinity, bounding the outer region by itself.
    Each oval's region touches its parent's on the upper sheet.  With
    ``split``, each oval's region has a second upper piece after the first
    pieces, the two stitched crosswise across the rim, and the region
    touches its parent's only across the rim.
    """
    owners = [OUTER] + [path for path, _ in iter_ovals(RealScheme(roots))]
    ids = {path: i for i, path in enumerate(owners, 1)}
    upper = [(-1) ** len(path or ()) for path in owners]
    second = {path: len(upper) + i for i, path in enumerate(owners[1:], 1)} if split else {}
    upper += [upper[ids[path] - 1] for path in second]
    m = len(upper)
    sign = [0] + upper + [-s if odd else s for s in upper]
    rim, adjacency = [(1, m + 1)], []
    for path in owners[1:]:
        a, up = ids[path], ids.get(path[:-1], 1)
        if split:
            b = second[path]
            rim += [(a, m + b), (b, m + a), (up, m + b)]
        else:
            adjacency.append((up, a))
    fold = [(c, m + c) for c in range(1, m + 1)]
    signs = {format_path(path): s for path, s in zip(owners, upper)}
    return [sign, rim, fold, adjacency, odd], signs


def test_region_forest_rebuilds_every_forest():
    # The back end alone, on id graphs whose forest is known: it returns the
    # forest as given, children in id order, and the signs by depth parity;
    # under a pseudoline, the region bounded by itself is the root.
    for roots in iter_forests(7):
        args, signs = region_graph(roots)
        forest, got = _region_forest(*args)
        assert repr(forest) == repr(RealScheme(roots, False, CurveType.UNKNOWN))
        assert got == signs, format_viro(forest)
        forest, got = _region_forest(*region_graph(roots, odd=True)[0])
        assert repr(forest) == repr(RealScheme(roots, True, CurveType.UNKNOWN))
        assert got == {}


def test_region_forest_stitches_regions_split_across_the_rim():
    # Each oval's region in two pieces on the upper sheet, met by its parent
    # only across the rim: still one two-sided region per oval, and the
    # outer region, stitched to itself, is the one-sided root.
    for roots in iter_forests(7):
        args, signs = region_graph(roots, split=True)
        forest, got = _region_forest(*args)
        assert forest_key(forest) == forest_key(RealScheme(roots)) and not forest.pseudoline
        assert got == signs, format_viro(forest)


def cycle(args):
    args[3].append((1, 4))  # the chain 1-2-3-4 of upper ids closes up


def disconnected(args):
    args[3][-1] = (1, 4)  # the chain 1-2-3-4-5 closes at 4 and leaves 5 alone


def two_one_sided(args):
    args[1].append((2, len(args[0]) // 2 + 2))  # the oval's region stitched to itself


def odd_no_loop(args):
    args[1].clear()  # no line at infinity


@pytest.mark.parametrize("code, odd, spoil, message", [
    ("<1<1<1>>>", False, cycle, "region graph is not a tree"),
    ("<1>", False, two_one_sided, "no unique one-sided region"),
    ("<1<1<1<1>>>>", False, disconnected, "region graph is disconnected"),
    ("<1>", True, odd_no_loop, "odd degree curve needs exactly one one-sided component"),
])
def test_region_forest_rejects_graphs_that_are_not_oval_forests(code, odd, spoil, message):
    args, _ = region_graph(parse_viro(code).roots, odd=odd)
    _region_forest(*args)  # the unspoilt graph is a forest
    spoil(args)
    with pytest.raises(TraceError, match=f"^{message}$"):
        _region_forest(*args)


def assert_labels_match(sg):
    got, want = label_signs_by_runs(sg), label_signs_by_pixels(sg)
    assert got[0].dtype == np.int32 and got[0].shape == sg.shape
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], (sg.shape, got[1:], want[1:])


def test_label_signs_matches_pixel_labelling_on_small_masks():
    shapes = [(0, 0), (0, 5), (1, 1), (1, 9), (9, 1), (1, 64), (64, 1), (7, 13), (64, 64)]
    for shape in shapes:
        for value in (0, 1, -1):
            assert_labels_match(np.full(shape, value, dtype=np.int8))
    rows, cols = np.indices((41, 37))
    checker = ((rows + cols) % 2).astype(np.int8)
    for sg in (checker, 2 * checker - 1, -checker):
        assert_labels_match(sg)
    lab, positive, negative = label_signs_by_runs((2 * checker - 1).astype(np.int8))
    assert positive + negative == checker.size  # every cell is its own component
    line_sg = np.array([[1, 1, 0, -1, -1, 1, 0, 0, 1]], dtype=np.int8)
    assert_labels_match(line_sg)
    assert_labels_match(line_sg.T.copy())


@pytest.mark.parametrize("density", [0.05, 0.3, 0.55, 0.8, 1.0])
def test_label_signs_matches_pixel_labelling_on_random_signs(density):
    rng = np.random.default_rng(int(100 * density))
    values = np.array([1, 0, -1], dtype=np.int8)
    for shape in [(1, 200), (200, 1), (17, 23), (128, 128), (256, 97)]:
        for _ in range(3):
            sg = rng.choice(values, size=shape, p=[density / 2, 1 - density, density / 2])
            assert_labels_match(sg)


def pixel_opposite_pairs(sg, lab):
    """Label pairs of 4-adjacent cells of opposite signs, vertical and
    horizontal neighbours alike."""
    out = set()
    for a, b in ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:])):
        across = sg[a] * sg[b] < 0
        out.update(tuple(sorted(q)) for q in zip(lab[a][across].tolist(), lab[b][across].tolist()))
    return out


def assert_run_consumers_match(sg):
    lab = label_signs_by_pixels(sg)[0]
    start, end, sign = _sign_runs(sg)
    joins, (a, b) = _run_contacts(start, end, sign, sg.shape[1])
    ids = _label_runs(sign, *joins)[0]
    got = {tuple(sorted(q)) for q in zip(ids[a].tolist(), ids[b].tolist())}
    assert got == pixel_opposite_pairs(sg, lab), sg.shape
    cells = np.random.default_rng(sg.size).permutation(sg.size)
    assert np.array_equal(_run_ids_at(start, end, ids, cells), lab.reshape(-1)[cells]), sg.shape


@pytest.mark.parametrize("density", [0.05, 0.3, 0.55, 0.8, 1.0])
def test_run_adjacency_and_ids_match_a_pixel_scan(density):
    # What the tracer reads off runs instead of a label grid: opposite-sign
    # neighbours and the id at a cell.  A run ending a row and one starting
    # the next touch in flat order but are not neighbours.
    for shape in [(0, 0), (0, 5), (5, 0), (1, 1), (1, 9), (9, 1)]:
        for value in (0, 1, -1):
            assert_run_consumers_match(np.full(shape, value, dtype=np.int8))
    for sg in ([[0, 1], [-1, 0]], [[0, 0, 1], [-1, 0, 0]], [[1, -1, 1]], [[1], [-1], [1]]):
        assert_run_consumers_match(np.array(sg, dtype=np.int8))
    rng = np.random.default_rng(int(100 * density))
    values = np.array([1, 0, -1], dtype=np.int8)
    for shape in [(1, 200), (200, 1), (17, 23), (128, 128), (256, 97)]:
        for _ in range(3):
            sg = rng.choice(values, size=shape, p=[density / 2, 1 - density, density / 2])
            assert_run_consumers_match(sg)


def serpentine(n):
    """Full rows joined at alternate ends: one component of n runs."""
    sg = np.zeros((n, n), dtype=np.int8)
    sg[::2] = 1
    sg[1::4, -1] = 1
    sg[3::4, 0] = 1
    return sg


def spiral(n):
    """A square spiral one cell wide, with one cell between its turns."""
    sg = np.zeros((n, n), dtype=np.int8)
    r = c = 0
    sg[0, 0] = 1
    lengths = [n - 1, n - 1, n - 1] + [k for k in range(n - 3, 0, -2) for _ in (0, 1)]
    for i, length in enumerate(lengths):
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[i % 4]
        sg[r + dr * np.arange(1, length + 1), c + dc * np.arange(1, length + 1)] = 1
        r, c = r + dr * length, c + dc * length
    return sg


def test_label_signs_chains_of_runs_in_bounded_time():
    # One component made of a chain of up to a million runs: a union loop
    # that joins one run per round would take minutes here.
    n = 1024
    cases = {
        "serpentine": serpentine(n),
        "serpentine by columns": serpentine(n).T.copy(),
        "spiral": spiral(n),
        "spiral and its complement": np.where(spiral(n) > 0, 1, -1).astype(np.int8),
    }
    for name, sg in cases.items():
        start = time.perf_counter()
        lab, positive, negative = label_signs_by_runs(sg)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, (name, elapsed)
        assert positive == 1 and negative == (name == "spiral and its complement"), name
        assert_labels_match(sg)


def test_label_signs_matches_pixel_labelling_on_trace_signs():
    # the upper sheet the tracer labels, and the lower sheet it stands for:
    # the upper one turned, signs times (-1)^degree, as evaluate's lower
    # sheet has them.  Each lower component is one upper component turned.
    cubic = PolySpec.from_dict(3, {(3, 0, 0): 1.0, (1, 0, 2): -1.0, (0, 2, 1): -1.0})
    cases = [(six_circle_product(), 256), (six_circle_product(), 1024), (definite(6), 64)]
    for p, n in cases + [(cubic, 255)]:
        u, v, w, inside = disc_grid(n)
        f = p.evaluate(u, v)
        sg = np.zeros((2, n, n), dtype=np.int8)
        np.subtract(f > 0, f < 0, dtype=np.int8, out=sg, where=inside)
        sg, evaluated = sg
        assert_labels_match(sg)
        lower = (-1 if p.degree % 2 else 1) * sg[::-1, ::-1]
        assert np.array_equal(lower, evaluated), (p, n)
        lab, positive, negative = label_signs_by_runs(sg)
        assert_labels_match(lower)
        turned, lower_lab = lab[::-1, ::-1], label_signs_by_runs(lower)[0]
        to = np.zeros(positive + negative + 1, dtype=np.int32)
        to[turned] = lower_lab
        assert np.array_equal(to[turned], lower_lab), (p, n)
        assert sorted(to.tolist()) == list(range(positive + negative + 1)), (p, n)


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


def test_trace_once_keeps_no_grid_sized_array():
    # Only sign runs outlive a band, so the traced peak stays below n^2
    # bytes, the size of one int8 sign grid.
    n = 2048
    tracemalloc.start()
    try:
        _trace_once(six_circle_product(), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n, peak


def test_trace_once_evaluates_only_bands_meeting_the_disc(monkeypatch):
    cells = []
    evaluate = PolySpec.evaluate

    def counted(self, u, v, *tables):
        values = evaluate(self, u, v, *tables)
        cells.append(values.size)
        return values

    monkeypatch.setattr(PolySpec, "evaluate", counted)
    n = 512
    _trace_once(six_circle_product(), n)
    assert len(cells) > 1 and sum(cells) <= 0.85 * n * n


def test_trace_once_evaluates_half_the_rows(monkeypatch):
    # Each evaluated point gives both sheets, and the lower sheet turned is the
    # upper one at the turned point, so only the upper half of the rows is
    # evaluated: at most 0.43 n^2 points, where every row took 0.833 n^2.
    points = []
    evaluate = PolySpec.evaluate

    def counted(self, u, v, *tables):
        points.append(u.size * v.size)
        return evaluate(self, u, v, *tables)

    monkeypatch.setattr(PolySpec, "evaluate", counted)
    n = 512
    _trace_once(six_circle_product(), n)
    assert len(points) > 1 and sum(points) <= 0.43 * n * n


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


def test_l_curve_lines_at_any_scale():
    # x + y = 0 and y = 0 at any scale: a row is scaled by a power of two
    # before its norm, which could overflow or underflow.  pytest keeps
    # warnings off stderr, so they are raised here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1.0, 1e200, 1e-200):
            res = l_curve_sample([(scale, scale, 0.0), (0.0, 1.0, 0.0)], definite(2), grid=FAST)
            assert (format_viro(res.trace.scheme), res.trace.resolution) == ("<1>", 256), scale
        cases = [([(math.inf, 0.0, 0.0), (0.0, 1.0, 0.0)], 0), ([(0.0, 1.0, 0.0), (0.0, math.nan, 1.0)], 1)]
        for lines, bad in cases:
            with pytest.raises(TraceError, match=f"^line {bad} is not finite$"):
                l_curve_sample(lines, definite(2), 1e-3, grid=FAST)


def test_l_curve_degree_mismatch():
    with pytest.raises(TraceError):
        l_curve_sample([(1, 0, 0), (0, 1, 0)], definite(4), 1e-3)


def test_l_curve_autoscaled_epsilon():
    res = l_curve_sample(
        [(1.0, 0.1, 0.0), (-0.1, 1.0, 0.05)],
        PolySpec.from_dict(2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}),
        grid=FAST,
    )
    assert res.epsilon.hex() == "0x1.471adb1ac37dfp-13"  # from the term-order sample
    assert res.trace.scheme.oval_count <= 0 or res.trace.stable


def test_search_lcurves_traces_only_the_rescaled_perturbations(monkeypatch, capsys):
    # The script reads the autoscaled epsilon without tracing it: four traces
    # per arrangement (two scales, two signs), none thrown away.
    import importlib.util

    import conjquot.tracer as tracer

    path = Path(__file__).resolve().parents[1] / "scripts" / "search_lcurves.py"
    spec = importlib.util.spec_from_file_location("search_lcurves", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    traced = []

    def stub(p, grid):
        traced.append(p)
        return TraceResult(RealScheme(), (), grid.resolution, stable=True)

    monkeypatch.setattr(tracer, "trace_scheme", stub)
    script.search("<10>", tries=3)
    assert capsys.readouterr().out == "not found\n"
    assert len(traced) == 12
