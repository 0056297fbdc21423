"""Numeric extraction of the oval scheme of a real plane curve.

A homogeneous polynomial is sampled on the unit-disc model of the
projective plane: the point (u, v) with u^2 + v^2 <= 1 stands for the
projective point (u : v : w), w = sqrt(1 - u^2 - v^2), with antipodal
points of the rim glued.  The grid's coordinates are odd multiples of
1/n, so it is exactly symmetric under (u, v) -> (-u, -v), and the lower
sheet, w < 0, is the upper one turned times (-1)^degree, bit for bit.
Only the upper sheet is evaluated, in cache-sized bands, by Horner's
rule in w.  Only each band's sign runs are kept, maximal stretches of
one nonzero sign along a row; no per-cell array of the grid is made.

Sign components are labelled once, by joining runs (after He, Chao &
Suzuki, IEEE TIP 17(5), 2008), and each stands for two lifts: itself on
the upper sheet and its turned copy on the lower one.  Rim pairs (the
ids of the runs holding p and -p) of equal sign stitch lifts into
sphere components, whose roots are snapshotted, then each component's
two lifts fold into one projective region, one-sided exactly when one
sphere component covers it.  Adjacencies across the curve are read off
runs of opposite signs that touch.

For disjoint embedded circles the region adjacency graph is a tree whose
edges are the curve components; the root is the unique one-sided region
(it carries the one-sided core of the plane), and the tree below it is
exactly the oval nesting forest, children ordered by region id.  A
region bounded by itself is the one-sided component of an odd-degree
curve.

Every result is re-derived at twice the resolution; a trace is reported
stable only if the two schemes agree, and refinement continues up to a
cap otherwise.  Unstable traces are flagged, never silently guessed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from types import SimpleNamespace
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .domains import OUTER, Path, format_path
from .schemes import (
    CurveType,
    Oval,
    RealScheme,
    canonical_key,
    format_viro,
    l_curve_bound,
)


class TraceError(ValueError):
    pass


class UnstableTraceError(TraceError):
    """No resolution up to the cap gave a scheme that could be trusted."""


class TracerInternalError(RuntimeError):
    """A stable trace violated a bound that holds for all true schemes."""


@dataclass(frozen=True)
class PolySpec:
    """Dense real form in three variables, by exponents of x, y, z."""

    degree: int
    coeffs: tuple[tuple[tuple[int, int, int], float], ...]

    def __post_init__(self):
        if not self.coeffs:
            raise TraceError("the zero polynomial has no curve")
        for (a, b, c), coef in self.coeffs:
            if a + b + c != self.degree or min(a, b, c) < 0:
                raise TraceError(f"monomial {(a, b, c)} is not of degree {self.degree}")
            if not math.isfinite(coef):
                raise TraceError(f"coefficient {coef} of monomial {(a, b, c)} is not finite")
        # |u|, |v|, |w| <= 1 on the grid, so a finite sum of |coefficients|
        # bounds every value and partial sum: evaluation cannot overflow.
        try:
            bound = math.fsum(abs(coef) for _, coef in self.coeffs)
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise TraceError("coefficients too large: their absolute sum is not finite")

    @classmethod
    def from_dict(cls, degree: int, coeffs: Mapping[tuple[int, int, int], float]) -> "PolySpec":
        items = tuple(sorted((k, float(v)) for k, v in coeffs.items() if v != 0))
        return cls(degree, items)

    @classmethod
    def from_text(cls, text: str) -> "PolySpec":
        """Lines of ``a b c coefficient``; '#' comments."""
        coeffs: dict[tuple[int, int, int], float] = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            a, b, c, value = line.split()
            key = (int(a), int(b), int(c))
            coeffs[key] = coeffs.get(key, 0.0) + float(value)
        if not coeffs:
            raise TraceError("no monomials given")
        degree = max(sum(k) for k in coeffs)
        return cls.from_dict(degree, coeffs)

    def evaluate_terms(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """f(u, v, w) summed term by term in coefficient order, powers by
        repeated products; the arguments broadcast, each cell on its own."""
        pu, pv, pw = [np.ones_like(u)], [np.ones_like(v)], [None, w]  # w^0 is never used
        for _ in range(self.degree):
            pu.append(pu[-1] * u)
            pv.append(pv[-1] * v)
            pw.append(pw[-1] * w)
        shape = np.broadcast_shapes(u.shape, v.shape, w.shape)
        out, term = np.zeros(shape), np.empty(shape)
        for (a, b, c), coef in self.coeffs:
            np.multiply(coef * pu[a], pv[b], out=term)
            if c:
                np.multiply(term, pw[c], out=term)
            out += term
        return out

    @cached_property
    def _horner(self) -> tuple[np.ndarray, float]:
        """Coefficients ``[c, a]`` of u^a v^(d-c-a) w^c, and ``evaluate``'s slack."""
        d, terms = self.degree, len(self.coeffs)
        table = np.zeros((d + 1, d + 1))
        for (a, _, c), coef in self.coeffs:
            table[c, a] += coef
        total = math.fsum(abs(coef) for _, coef in self.coeffs)
        k = 2 * d + terms + 3
        gamma = k * 2.0**-53 / (1 - k * 2.0**-53)
        return table, 2 * gamma * total + math.ldexp((d + 1) * (terms + 1), -1073) * (1 + total)

    def evaluate(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """f(u, v, w) at an ``(r, 1)`` column ``u`` by a ``(1, c)`` row ``v``,
        ``w`` of shape ``(r, c)``, by Horner's rule in w with each G_c(u, v)
        one matrix product, and the sign of ``evaluate_terms``, on any BLAS.

        Why (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
        Lemma 3.1): let F be the exact value at the float coordinates, S =
        sum |coef|, T the number of terms, gamma(k) = k eps / (1 - k eps),
        eps = 2^-53; no monomial exceeds 1 on the disc.  ``evaluate_terms``
        rounds a term at most d times and its running sum T - 1 times: it
        is within gamma(d + T - 1) S of F.  A monomial of G_c meets at most
        2(d - c) roundings in powers, coefficient and an inner product in any
        order, fused or not (Higham (3.5)), then 2c + 2 in Horner's steps: f
        is within gamma(2d + 2) S of F.  Underflow adds at most 2^-1075 to a
        product (Higham (2.8)), in fewer than 4(d + 1)(T + 1) products for
        both, each scaled later by at most 1 + S in all.  So, with k = 2d + T
        + 3 to spare, f keeps the nonzero sign of ``evaluate_terms`` where |f|
        > 2 gamma(k) S + 4(d + 1)(T + 1)(1 + S) 2^-1075, and takes its value elsewhere.
        """
        d = self.degree
        table, slack = self._horner
        pu, pv = np.ones((d + 1, u.size)), np.ones((d + 1, v.size))
        for e in range(d):
            pu[e + 1] = pu[e] * u.ravel()
            pv[d - e - 1] = pv[d - e] * v.ravel()  # pv[d - e] = v^e: G_c takes rows c..d
        f, g = np.full(w.shape, table[d, 0]), np.empty(w.shape)
        for c in range(d - 1, -1, -1):
            np.matmul(pu[: d - c + 1].T * table[c, : d - c + 1], pv[c:], out=g)
            f *= w
            f += g
        near = np.abs(f) <= slack
        if near.any():
            f[near] = self.evaluate_terms(*(np.broadcast_to(x, f.shape)[near] for x in (u, v, w)))
        return f


def poly_mul(p: PolySpec, q: PolySpec) -> PolySpec:
    coeffs: dict[tuple[int, int, int], float] = {}
    for (a1, b1, c1), x in p.coeffs:
        for (a2, b2, c2), y in q.coeffs:
            key = (a1 + a2, b1 + b2, c1 + c2)
            coeffs[key] = coeffs.get(key, 0.0) + x * y
    return PolySpec.from_dict(p.degree + q.degree, coeffs)


def poly_add(p: PolySpec, q: PolySpec, scale: float = 1.0) -> PolySpec:
    if p.degree != q.degree:
        raise TraceError("can only add forms of equal degree")
    coeffs = {k: v for k, v in p.coeffs}
    for k, v in q.coeffs:
        coeffs[k] = coeffs.get(k, 0.0) + scale * v
    return PolySpec.from_dict(p.degree, coeffs)


def line(a: float, b: float, c: float) -> PolySpec:
    return PolySpec.from_dict(1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})


def circle(cx: float, cy: float, radius: float) -> PolySpec:
    """(x - cx z)^2 + (y - cy z)^2 - r^2 z^2."""
    return PolySpec.from_dict(
        2,
        {
            (2, 0, 0): 1.0,
            (0, 2, 0): 1.0,
            (1, 0, 1): -2.0 * cx,
            (0, 1, 1): -2.0 * cy,
            (0, 0, 2): cx * cx + cy * cy - radius * radius,
        },
    )


# The finest grid a trace may ask for.  A trace keeps sign runs, not pixels: the
# degree-12 six-circle product peaks at 4.6 MB of allocations there.  Joining
# runs and scanning their adjacencies peak at about 70 bytes a run, so signs
# that alternate cell by cell (a checkerboard) would still take gigabytes.
MAX_RESOLUTION = 8192


@dataclass(frozen=True)
class GridConfig:
    resolution: int = 512
    cap: int = 4096

    def __post_init__(self):
        if not 1 <= self.resolution <= self.cap <= MAX_RESOLUTION:
            raise ValueError(
                f"grid needs 1 <= resolution <= cap <= {MAX_RESOLUTION}, got resolution"
                f" {self.resolution} and cap {self.cap}"
            )


@dataclass(frozen=True)
class TraceResult:
    scheme: RealScheme
    w_signs: tuple[tuple[str, int], ...]  # (region owner, sign), even degree only
    resolution: int
    stable: bool
    notes: tuple[str, ...] = ()

    def record(self) -> dict:
        return {
            "scheme": format_viro(self.scheme),
            "w_signs": {k: v for k, v in self.w_signs},
            "resolution": self.resolution,
            "stable": self.stable,
            "notes": list(self.notes),
        }


class _Dsu:
    """Union-find over ``0..n-1``; ``union(a, b)`` keeps the root of ``a``."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while x != parent[x]:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class _PixelTopology:
    forest: RealScheme
    signs: dict[str, int]
    ambiguous: int


_BAND_CELLS = 1 << 14  # cells per evaluated band: 128 KiB per float64 array, cache-sized


def _disc_axis(n: int) -> np.ndarray:
    """Pixel-centre coordinates: odd numerators over n, so ``axis[::-1] == -axis``."""
    return np.arange(1 - n, n, 2) / n


def _disc_cells(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper-sheet ``w`` and the in-disc mask at column ``u`` by row ``v``."""
    rr = u * u + v * v
    return np.sqrt(np.maximum(1.0 - rr, 0.0)), rr <= 1.0


def _sign_runs(sg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of an int8 sign array: maximal stretches of one nonzero sign
    along a row, as flat first cells, flat last cells and signs, in raster
    order."""
    flat, cols = sg.ravel(), sg.shape[1]
    # A stretch starts where the sign changes or a row begins; the sentinel
    # past the last cell ends the last one.
    cut = np.ones(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=cut[1:-1])
    if cols:
        cut[::cols] = True
    edges = np.flatnonzero(cut)
    on = flat[edges[:-1]] != 0
    first = edges[:-1][on]
    return first, edges[1:][on] - 1, flat[first]


def _runs_below(start: np.ndarray, end: np.ndarray, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(a, b)`` of runs, ``b`` one row below ``a`` with a
    column in common, for runs of rows ``cols`` cells wide."""
    # Runs are disjoint and sorted, so the runs one row down that share a
    # column with run a, those ending at or after a's start and starting at
    # or before a's end shifted by one row, are one stretch lo..hi-1 of them.
    lo = np.searchsorted(end, start + cols)
    hi = np.searchsorted(start, end + cols, side="right")
    k = hi - lo
    a = np.repeat(np.arange(len(start)), k)
    return a, np.repeat(lo - (np.cumsum(k) - k), k) + np.arange(len(a))


def _label_runs(
    start: np.ndarray, end: np.ndarray, sign: np.ndarray, cols: int, first: int = 1
) -> tuple[np.ndarray, int, int]:
    """4-connected components of the runs of a sign array, ``_sign_runs``'
    output for rows ``cols`` cells wide.

    Runs of one sign in adjacent rows that share a column are joined.  Ids
    ``first, first + 1, ...`` go to the positive components in raster order
    of their first cell, then to the negative ones in the same order.
    Returns the int32 id of each run and the numbers of positive and
    negative components.  After He, Chao & Suzuki, "A run-based two-scan
    labeling algorithm", IEEE TIP 17(5), 2008.
    """
    a, b = _runs_below(start, end, cols)
    same = sign[a] == sign[b]
    a, b = a[same], b[same]
    # Hook the larger root of every edge under the smaller, then jump
    # pointers to the roots, until no edge joins two trees.  A root is never
    # hooked under a larger index, so each component's root is its first run.
    parent = np.arange(len(start))
    while True:
        pa, pb = parent[a], parent[b]
        apart = pa != pb
        if not apart.any():
            break
        a, b, pa, pb = a[apart], b[apart], pa[apart], pb[apart]
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    roots = np.flatnonzero(parent == np.arange(len(start)))
    pos = sign[roots] > 0
    positive = int(np.count_nonzero(pos))
    rank = np.empty(len(start), dtype=np.int32)
    rank[roots[pos]] = np.arange(first, first + positive)
    rank[roots[~pos]] = np.arange(first + positive, first + len(roots))
    return rank[parent], positive, len(roots) - positive


def _run_ids_at(start: np.ndarray, end: np.ndarray, ids: np.ndarray, cells: np.ndarray):
    """The id of the run that holds each flat cell, 0 where no run does."""
    k = np.searchsorted(start, cells, side="right") - 1  # the last run to start by the cell
    held = np.flatnonzero(k >= 0)
    held = held[end[k[held]] >= cells[held]]
    out = np.zeros(len(cells), dtype=np.int32)
    out[held] = ids[k[held]]
    return out


def _opposite_runs(start: np.ndarray, end: np.ndarray, sign: np.ndarray, cols: int):
    """Index pairs ``(a, b)`` of runs of opposite signs with 4-adjacent
    cells: ``b`` one row below ``a`` with a column in common, then ``b``
    right after ``a`` in one row."""
    a, b = _runs_below(start, end, cols)
    across = sign[a] != sign[b]
    # Runs that touch in a row have opposite signs; a run that starts a row
    # touches the previous row's last run only in flat order.
    beside = np.flatnonzero((end[:-1] + 1 == start[1:]) & (start[1:] % cols != 0))
    return (a[across], b[across]), (beside, beside + 1)


# ``_trace_once`` joins runs as ``ndimage.label``, the name of the pixel
# labelling it replaced, because perfbench times ``tracer.label`` through that
# name; the shim goes when perfbench hooks ``_label_runs`` itself.
ndimage = SimpleNamespace(label=_label_runs)


def _trace_once(p: PolySpec, n: int) -> _PixelTopology:
    # Upper-sheet signs by bands of rows of about _BAND_CELLS cells, cut to
    # the columns where the band's row nearest the centre meets the disc, so
    # that float values stay in cache.  Cells outside the disc get sign 0.
    # Only each band's sign runs are kept, as flat cells of the n-by-n grid;
    # no array of the whole grid is made.
    axis = _disc_axis(n)
    runs = []
    hi = np.empty(n, dtype=np.int64)  # last disc column of each row
    zeros = 0  # exact zeros; the lower sheet's are these turned
    step = max(1, _BAND_CELLS // n)
    for r0 in range(0, n, step):
        u = axis[r0 : r0 + step, None]
        hit = np.flatnonzero(_disc_cells(u[np.abs(u).argmin()], axis)[1])
        c0, width = hit[0], hit[-1] + 1 - hit[0]
        v = axis[None, c0 : c0 + width]
        w, band = _disc_cells(u, v)
        f = p.evaluate(u, v, w)
        sg = np.zeros(f.shape, dtype=np.int8)
        np.subtract(f > 0, f < 0, dtype=np.int8, out=sg, where=band)
        zeros += int(np.count_nonzero(band & (f == 0.0)))
        hi[r0 : r0 + step] = (n - 2 + np.count_nonzero(band, axis=1)) // 2  # centred intervals
        first, last, s = _sign_runs(sg)
        shift = first // width * (n - width) + (r0 * n + c0)  # band cell to grid cell
        runs.append((first + shift, last + shift, s))
    start, end, run_sign = (np.concatenate(x) for x in zip(*runs))

    # One labelling serves both sheets: upper component c has id c, and its
    # turned copy id m + c, sign times (-1)^degree; 0 is curve and outside.
    ids, positive, negative = ndimage.label(start, end, run_sign, n)
    m = positive + negative
    sign = [0] + [1] * positive + [-1] * negative
    sign += [-s if p.degree % 2 else s for s in sign[1:]]
    base = len(sign)

    def pairs(xs: np.ndarray, ys: np.ndarray) -> list[tuple[int, int]]:
        """Distinct ``(lo, hi)`` id pairs, ascending, as keys ``lo * base + hi``."""
        xs, ys = xs.astype(np.int64), ys.astype(np.int64)
        keys = np.unique(np.minimum(xs, ys) * base + np.maximum(xs, ys))
        return [divmod(k, base) for k in keys.tolist()]

    # Rim cells have a 4-neighbour off the disc or grid.  Row i's disc cells
    # are centred and end at hi[i], so its right-hand rim runs on from the
    # interior it shares with both neighbour rows; the left-hand rim is it turned.
    ends = np.concatenate([[-1], hi, [-1]])
    k = hi - np.minimum(hi - 1, np.minimum(ends[:-2], ends[2:]))
    i = np.repeat(np.arange(n), k)
    cells = i * n + np.repeat(hi + 1 - np.cumsum(k), k) + np.arange(len(i))
    x, y = (_run_ids_at(start, end, ids, c) for c in (cells, n * n - 1 - cells))
    x, y = x[(x > 0) & (y > 0)], y[(x > 0) & (y > 0)]

    # Stitch the sheets along the rim, lower cell p being upper cell -p.
    # Every union here and in the fold keeps an upper root, so the roots and
    # sibling order are those of the same unions over a labelled lower sheet.
    dsu = _Dsu(base)
    adjacency: list[tuple[int, int]] = []
    for a, b in pairs(np.concatenate([x, y]), m + np.concatenate([y, x])):
        if sign[a] == sign[b]:
            dsu.union(a, b)
        else:
            adjacency.append((a, b))

    # Runs of opposite signs with adjacent cells; the lower sheet's are these turned.
    for a, b in _opposite_runs(start, end, run_sign, n):
        adjacency += pairs(ids[a], ids[b])

    # Snapshot the sphere components, then fold each lift pair into a region.
    sphere = {dsu.find(i) for i in range(1, base)}
    for c in range(1, m + 1):
        dsu.union(c, m + c)
    preimages = Counter(dsu.find(c) for c in sphere)

    loops: set[int] = set()
    nbrs: dict[int, set[int]] = {r: set() for r in preimages}
    for x, y in adjacency:
        qa, qb = dsu.find(x), dsu.find(y)
        if qa == qb:
            loops.add(qa)
        else:
            nbrs[qa].add(qb)
            nbrs[qb].add(qa)

    n_regions = len(preimages)
    n_edges = sum(map(len, nbrs.values())) // 2
    if p.degree % 2 == 0:
        if loops or n_edges != n_regions - 1:
            raise TraceError("region graph is not a tree")
        roots = [r for r, k in preimages.items() if k == 1]
        if len(roots) != 1:
            raise TraceError("no unique one-sided region")
    elif len(loops) != 1 or n_edges != n_regions - 1:
        raise TraceError("odd degree curve needs exactly one one-sided component")
    else:
        roots = list(loops)

    # Children in ascending region id; the sign is well defined for even
    # degree, where the antipodal map keeps it.
    signs: dict[str, int] = {}
    seen = {roots[0]}

    def build(region: int, path: Path | None) -> tuple[Oval, ...]:
        signs[format_path(path)] = sign[region]
        kids = sorted(nbrs[region] - seen)
        seen.update(kids)
        return tuple(Oval(build(c, (path or ()) + (k,))) for k, c in enumerate(kids))

    forest = RealScheme(build(roots[0], OUTER), p.degree % 2 == 1, CurveType.UNKNOWN)
    if len(seen) != n_regions:
        raise TraceError("region graph is disconnected")
    return _PixelTopology(forest, signs if p.degree % 2 == 0 else {}, 2 * zeros)


def trace_scheme(p: PolySpec, grid: GridConfig = GridConfig()) -> TraceResult:
    """Trace the oval scheme, refining until two successive resolutions
    agree; an unstable trace at the cap is returned flagged."""
    n = grid.resolution
    last: _PixelTopology | None = None
    last_n = n
    notes: list[str] = []
    while n <= grid.cap:
        try:
            current = _trace_once(p, n)
        except TraceError as err:
            notes.append(f"{n}: {err}")
            current = None
        if current is not None and last is not None:
            if canonical_key(current.forest) == canonical_key(last.forest) and current.ambiguous == 0:
                signs = tuple(sorted(current.signs.items()))
                return TraceResult(current.forest, signs, n, stable=True, notes=tuple(notes))
        if current is not None:
            last, last_n = current, n
        n *= 2
    if last is None:
        raise UnstableTraceError("; ".join(notes) or "no resolution produced a scheme")
    notes.append("refinement cap reached without agreement")
    signs = tuple(sorted(last.signs.items()))
    return TraceResult(last.forest, signs, last_n, stable=False, notes=tuple(notes))


# ----------------------------------------------------------------- L-curves


@dataclass(frozen=True)
class LCurveResult:
    trace: TraceResult
    epsilon: float
    provenance_tag: ClassVar[str] = "L-curve"

    def record(self) -> dict:
        return {
            **self.trace.record(),
            "epsilon": self.epsilon,
            "provenance_tag": self.provenance_tag,
        }


def _check_arrangement(lines: Sequence[tuple[float, float, float]]) -> None:
    arr = np.asarray(lines, dtype=float)
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms == 0):
        raise TraceError("zero line")
    arr = arr / norms[:, None]
    for i, j in combinations(range(len(arr)), 2):
        if np.linalg.norm(np.cross(arr[i], arr[j])) < 1e-9:
            raise TraceError(f"lines {i} and {j} coincide")
    for i, j, k in combinations(range(len(arr)), 3):
        if abs(np.linalg.det(arr[[i, j, k]])) < 1e-9:
            raise TraceError(f"lines {i}, {j}, {k} share a point")


def l_curve_sample(
    lines: Sequence[tuple[float, float, float]],
    g: PolySpec,
    epsilon: float | None = None,
    grid: GridConfig = GridConfig(),
) -> LCurveResult:
    """Trace the perturbation (product of lines) - epsilon * g.

    The lines must be pairwise distinct with no common triple point and
    g must have the same degree as their number.  When epsilon is not
    given it is scaled from the small quantile of the line product over
    a coarse sample, so the perturbation stays below the generic face
    values.  The oval count of a stable result must respect the
    one-third bound; a violation signals a tracer bug.
    """
    m = len(lines)
    if m < 2:
        raise TraceError("need at least two lines")
    if g.degree != m:
        raise TraceError(f"perturbation must have degree {m}, got {g.degree}")
    _check_arrangement(lines)
    prod = line(*lines[0])
    for coeffs in lines[1:]:
        prod = poly_mul(prod, line(*coeffs))
    if epsilon is None:
        axis = _disc_axis(64)
        w, inside = _disc_cells(axis[:, None], axis)
        samples = np.abs(prod.evaluate_terms(axis[:, None], axis, w)[inside])
        epsilon = 1e-2 * float(np.quantile(samples[samples > 0], 0.1))
    f = poly_add(prod, g, scale=-epsilon)
    trace = trace_scheme(f, grid)
    if not trace.stable:
        raise UnstableTraceError(f"unstable perturbation trace: {'; '.join(trace.notes)}")
    if not l_curve_bound(trace.scheme, m):
        raise TracerInternalError(
            f"{trace.scheme.oval_count} ovals from {m} lines break the one-third bound"
        )
    return LCurveResult(trace, epsilon)
