import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import conjquot
from conjquot.domains import format_path, iter_ovals
from conjquot.schemes import RealScheme, format_viro, forest_key
from conjquot.tracer import (
    MAX_RESOLUTION,
    GridConfig,
    PolySpec,
    TraceError,
    TracerInternalError,
    _disc_axis,
    _disc_cells,
    _label_runs,
    _opposite_runs,
    _run_ids_at,
    _sign_runs,
    _trace_once,
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
        signs = np.sign(p.evaluate(u[rows], v[:, cols], w[rows, cols]))
        assert np.array_equal(np.sign(p.evaluate(u, v, w))[rows, cols], signs), name


def test_certified_evaluation_keeps_every_sign_and_zero():
    # f is within the slack of the term-order sum everywhere, and where it
    # is not clear of zero it is replaced by that sum: the int8 signs and
    # the exact zeros agree, from coefficients near the smallest normal
    # double to an absolute sum near the largest.  Multiples of x - y are
    # zero up to rounding on the diagonal, where the two orders of
    # evaluation round to different signs.
    rng = random.Random(16)
    u, v, w, _ = disc_grid(97)
    for degree in range(1, 13):
        terms = (degree + 1) * (degree + 2) // 2
        for scale in (1e-300, 1e-150, 1e-8, 1.0, 1e150, 1e307 / terms):
            forms = [dense_form(rng, degree, scale)]
            if degree > 1:
                forms.append(poly_mul(line(1.0, -1.0, 0.0), dense_form(rng, degree - 1, scale)))
            for p in forms:
                got, want = p.evaluate(u, v, w), p.evaluate_terms(u, v, w)
                assert np.all(np.abs(got - want) <= p._horner[1]), (p, scale)
                got_sg = np.subtract(got > 0, got < 0, dtype=np.int8)
                want_sg = np.subtract(want > 0, want < 0, dtype=np.int8)
                assert got_sg.tobytes() == want_sg.tobytes(), (p, scale)
                assert np.count_nonzero(got == 0) == np.count_nonzero(want == 0), (p, scale)


def test_certified_evaluation_refits_exact_zeros(monkeypatch):
    # x - y vanishes exactly at the diagonal centres, and xy at the middle
    # row and column of an odd grid: Horner's rule cannot vouch for those
    # signs, so evaluate_terms supplies them
    refits = []
    evaluate_terms = PolySpec.evaluate_terms

    def counted(self, u, v, w):
        refits.append(u.size)
        return evaluate_terms(self, u, v, w)

    monkeypatch.setattr(PolySpec, "evaluate_terms", counted)
    u, v, w, inside = disc_grid(63)
    for p in (line(1.0, -1.0, 0.0), PolySpec.from_dict(2, {(1, 1, 0): 1.0})):
        refits.clear()
        f = p.evaluate(u, v, w)
        zeros = np.count_nonzero(evaluate_terms(p, u, v, w)[inside] == 0)
        assert zeros > 0 and np.count_nonzero(f[inside] == 0) == zeros
        assert len(refits) == 1 and refits[0] >= zeros


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
        polys += [dense_form(rng, degree, 2.0) for _ in range(3)]
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


def test_disc_grid_is_antipodally_symmetric():
    for n in [*range(1, 300), 511, 512, 1000, 1023, 1024, 2047, 2999]:
        axis = _disc_axis(n)
        w, inside = _disc_cells(axis[:, None], axis)
        assert np.array_equal(axis[::-1], -axis), n
        assert np.array_equal(w[::-1, ::-1], w) and np.array_equal(inside[::-1, ::-1], inside), n
        want = disc_grid(n)
        assert np.array_equal(want[0].ravel(), axis) and np.array_equal(want[2], w), n
        assert np.array_equal(want[3], inside), n


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


def assert_labels_match(sg, first=1):
    got, want = label_signs_by_runs(sg, first), label_signs_by_pixels(sg, first)
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
        assert_labels_match(sg, first=7)
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
            assert_labels_match(sg, first=int(rng.integers(1, 50)))


def pixel_opposite_pairs(sg, lab):
    """Label pairs of 4-adjacent cells of opposite signs, one set for
    vertical neighbours and one for horizontal ones."""
    out = []
    for a, b in ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:])):
        across = sg[a] * sg[b] < 0
        pairs = zip(lab[a][across].tolist(), lab[b][across].tolist())
        out.append({tuple(sorted(q)) for q in pairs})
    return out


def assert_run_consumers_match(sg):
    lab = label_signs_by_pixels(sg)[0]
    start, end, sign = _sign_runs(sg)
    ids = _label_runs(start, end, sign, sg.shape[1])[0]
    got = [
        {tuple(sorted(q)) for q in zip(ids[a].tolist(), ids[b].tolist())}
        for a, b in _opposite_runs(start, end, sign, sg.shape[1])
    ]
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
    # the upper one turned, signs times (-1)^degree, with the ids the
    # two-sheet tracer gave it.  Each lower component is one upper
    # component turned.
    cubic = PolySpec.from_dict(3, {(3, 0, 0): 1.0, (1, 0, 2): -1.0, (0, 2, 1): -1.0})
    cases = [(six_circle_product(), 256), (six_circle_product(), 1024), (definite(6), 64)]
    for p, n in cases + [(cubic, 255)]:
        u, v, w, inside = disc_grid(n)
        f = p.evaluate(u, v, w)
        sg = np.zeros((n, n), dtype=np.int8)
        np.subtract(f > 0, f < 0, dtype=np.int8, out=sg, where=inside)
        assert_labels_match(sg)
        lower = (-1 if p.degree % 2 else 1) * sg[::-1, ::-1]
        lab, positive, negative = label_signs_by_runs(sg)
        assert_labels_match(lower, positive + negative + 1)
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

    def counted(self, u, v, w):
        values = evaluate(self, u, v, w)
        cells.append(values.size)
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
    assert res.epsilon.hex() == "0x1.471adb1ac37dfp-13"  # from the term-order sample
    assert res.trace.scheme.oval_count <= 0 or res.trace.stable
