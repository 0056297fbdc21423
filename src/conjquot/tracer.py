"""Numeric extraction of the oval scheme of a real plane curve.

A homogeneous polynomial is sampled on the unit-disc model of the
projective plane: the point (u, v) with u^2 + v^2 <= 1 stands for the
projective point (u : v : w), w = sqrt(1 - u^2 - v^2), with antipodal
points of the rim glued.  The grid's coordinates are odd multiples of
1/n, so its disc cells are decided in integers and it is exactly
symmetric under (u, v) -> (-u, -v): the lower sheet, w < 0, is the upper
one turned times (-1)^degree, bit for bit.  Half the rows are evaluated, in
cache-sized bands, on both sheets as P(u, v) +- w Q(u, v), w^2 = 1 - u^2 -
v^2, by two matrix products a band.  A band keeps only the upper sheet's sign
runs (maximal stretches of one nonzero sign in a row) of its rows and, read
off its lower sheet, of their turns; no grid array is made.

That numeric front end, ``_trace_once``, scans once for runs that touch:
pairs of one sign join runs into components (after He, Chao & Suzuki,
IEEE TIP 17(5), 2008), pairs of opposite signs meet across the curve,
two halves of one contact table (Kong & Rosenfeld, CVGIP 48(3), 1989).
Each component stands for two lifts, itself on the upper sheet and its
turned copy on the lower one.  Rim pairs (ids of the runs at p and -p)
and adjacencies (ids of the contacts across) go to :mod:`conjquot.region_graph`.

Every result is re-derived at twice the resolution; a trace is reported
stable only if the two schemes agree, and refinement continues up to a
cap otherwise.  Unstable traces are flagged, never silently guessed.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property, reduce
from itertools import combinations
from types import SimpleNamespace
from typing import ClassVar, Mapping, Sequence

import numpy as np

from ._values import dataclass
from .region_graph import TraceError, _region_forest
from .schemes import RealScheme, canonical_key, format_viro, l_curve_bound, plain_digits, plain_real


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
        if self.degree > MAX_DEGREE:
            raise TraceError(f"degree {self.degree} is above the cap of {MAX_DEGREE}")
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
        """Lines of ``a b c coefficient``, exponents in plain digits; '#' comments."""
        coeffs: dict[tuple[int, int, int], float] = {}
        for row, raw in enumerate(text.splitlines(), 1):
            if fields := raw.split("#", 1)[0].split():
                *exponents, value = fields
                if len(fields) != 4 or not all(map(plain_digits, exponents)) or not plain_real(value):
                    raise TraceError(f"poly row {row}: {' '.join(fields)!r} is not 'a b c"
                                     " coefficient' with plain-digit exponents and a plain real")
                key = tuple(map(int, exponents))
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
    def _pq(self) -> tuple[np.ndarray, float]:
        """``[P, Q]``: the coefficient of u^i v^j in P at ``[0, i, j]`` and in Q
        at ``[1, i, j]``, each the exact sum rounded once; and ``evaluate``'s slack."""
        d, terms = self.degree, len(self.coeffs)
        ratios = [coef.as_integer_ratio() for _, coef in self.coeffs]
        scale = max(den for _, den in ratios)  # every denominator is a power of two
        exact: Counter[tuple[int, int, int]] = Counter()
        for ((a, b, c), _), (num, den) in zip(self.coeffs, ratios):
            # w^c = s^k w^odd, s^k = sum of k!/(q! r! (k-q-r)!) (-u^2)^q (-v^2)^r
            k, odd = divmod(c, 2)
            for q in range(k + 1):
                for r in range(k + 1 - q):
                    m = math.comb(k, q) * math.comb(k - q, r) * num * (scale // den)
                    exact[odd, a + 2 * q, b + 2 * r] += -m if (q + r) % 2 else m
        table = np.zeros((2, d + 1, d + 1))
        try:
            for key, num in exact.items():
                table[key] = num / scale  # int division rounds once, correctly
            norm = sum(map(abs, exact.values())) / scale
        except OverflowError:
            norm = math.inf
        total = math.fsum(abs(coef) for _, coef in self.coeffs)
        unit = 2.0**-53 / (1 - (3 * d + terms + 5) * 2.0**-53)  # gamma(k) <= k unit, k <= 3d+T+5
        slack = unit * ((3 * d + 5) * norm + (3.6 * d + terms) * total)
        slack += math.ldexp(5 * (d + 2) ** 2 * (terms + 1), -1075) * (1 + total + norm)
        if not math.isfinite(2 * norm + slack):
            return np.zeros_like(table), math.inf  # every value is refit
        return table, slack

    def evaluate(self, u: np.ndarray, v: np.ndarray, powers: tuple | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Both sheets' f(u, v, +-w) at an ``(r, 1)`` column ``u`` by a ``(1, c)``
        row ``v``, w the upper sheet's as ``_upper_w`` computes it here: ``[0]`` is
        P(u, v) + w Q(u, v) and ``[1]`` is P - w Q, each with the sign of
        ``evaluate_terms`` at its w at every point of the disc, on any BLAS; off
        the disc the values are unspecified.  ``powers`` may give the
        ``_powers`` tables of u and v, and ``out`` a C-contiguous ``(2, r, c)``
        array for the values; neither changes them.  On the sphere w^2 = s = 1
        - u^2 - v^2, so f = sum G_c(u, v) w^c is P + w Q with P = sum G_2k s^k
        and Q = sum G_(2k+1) s^k, as ``_pq`` expands them, and at -w it is P - w Q.

        Why (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
        Lemma 3.1): let F be the exact value at the float coordinates, S =
        sum |coef|, N = sum |exact P and Q coefficients|, T the number of
        terms, gamma(k) = k eps / (1 - k eps), eps = 2^-53; on the disc no
        monomial exceeds 1.  ``evaluate_terms`` rounds a term at most d times
        and its running sum T - 1 times: it is within gamma(d + T - 1) S of F.
        At a disc point this w has |w^2 - s| <= 5 eps (u^2, v^2, their sum, 1
        minus it, exact above 1/2, and the root round once each), so w^c -> s^k
        w^(c - 2k) moves F by at most 2.6 d eps S.  A term u^i v^j rounds once
        as a coefficient, at most i + j <= d times in powers (d - 1 in Q), d + 1
        in each inner product in any order, fused or not (Higham (3.5)), then in
        w Q (Q only) and the sum: within gamma(3d + 4) N.  Underflow adds at
        most 2^-1075 to a product or a rounded coefficient (Higham (2.8)),
        fewer than 5(d + 2)^2 (T + 1) times for both, each scaled by <= 1 + S + N.
        So, with a unit to spare for the slack's own roundings, f keeps the
        nonzero sign of ``evaluate_terms`` where |f| > gamma(3d + 5) N + (2.6
        d eps + gamma(d + T - 1)) S + 5(d + 2)^2 (T + 1)(1 + S + N) 2^-1075,
        and takes its value elsewhere.  The lower sheet obeys the same bound:
        negation is exact, so P - w Q rounds as P + w Q does, ``evaluate_terms``
        at -w forms (-w)^c = +-w^c bit for bit, and (-w)^2 = w^2.  Partial sums
        stay below 2N: where 2N plus that slack overflows, the slack is infinite
        and every value is refit.
        """
        d, (table, slack) = self.degree, self._pq
        pu, pv = (_powers(u.ravel(), d), _powers(v.ravel(), d)) if powers is None else powers
        f = np.matmul(pu[: d + 1].T @ table, pv[: d + 1], out=out)  # P, Q: by u, then v
        wq = _upper_w(pu[2][:, None], pv[2])  # w, then w Q: one band-sized temporary
        np.multiply(f[1], wq, out=wq)
        np.subtract(f[0], wq, out=f[1])
        f[0] += wq
        near = (f <= slack) & (f >= -slack)  # |f| <= slack, with no float temporary
        if near.any():
            w = _upper_w(pu[2][:, None], pv[2])
            at = (np.broadcast_to(x, f.shape)[near] for x in (u, v, np.stack((w, -w))))
            f[near] = self.evaluate_terms(*at)
        return f


def _lines_from_text(text: str) -> list[tuple[float, float, float]]:
    """Lines ax + by + cz = 0 from rows of ``a b c`` in finite plain reals; '#' comments."""
    rows = [(row, raw.split("#", 1)[0].split()) for row, raw in enumerate(text.splitlines(), 1)]
    for row, fields in rows:
        if fields and (len(fields) != 3 or not all(map(plain_real, fields))):
            raise TraceError(f"lines row {row}: {' '.join(fields)!r} is not 'a b c' in plain reals")
        if not all(math.isfinite(float(x)) for x in fields):
            raise TraceError(f"lines row {row}: {' '.join(fields)!r} has a non-finite entry")
    return [tuple(map(float, fields)) for _, fields in rows if fields]


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
# degree-12 six-circle product peaks at 6.4 MB of allocations there.  The contact
# scan and the joins peak at 45-56 bytes a run (random signs, a checkerboard), so
# signs that alternate cell by cell (a checkerboard) would still take gigabytes.
MAX_RESOLUTION = 8192
# The largest degree a trace takes: ``_pq``'s expansion grows as d^3, and the axis
# power table as d.  z^256 - x^256 traces at grids 8 and 16 in 0.4 s; z^1600 - x^1600 took 7 s.
MAX_DEGREE = 256


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


@dataclass
class _PixelTopology:
    forest: RealScheme
    signs: dict[str, int]
    ambiguous: int


_BAND_CELLS = 1 << 14  # cells per evaluated band: 128 KiB per float64 array, cache-sized


def _disc_axis(n: int) -> np.ndarray:
    """Pixel-centre coordinates: odd numerators over n, so ``axis[::-1] == -axis``."""
    return np.arange(1 - n, n, 2) / n


def _powers(x: np.ndarray, d: int) -> np.ndarray:
    """Rows x^0 .. x^max(d, 2) of a vector ``x`` by repeated products: row 1 is x
    and row 2 is x * x, bit for bit."""
    pw = np.ones((max(d, 2) + 1, x.size))
    for e in range(len(pw) - 1):
        np.multiply(pw[e], x, out=pw[e + 1])
    return pw


def _upper_w(uu: np.ndarray, vv: np.ndarray) -> np.ndarray:
    """The upper sheet's w from broadcasting u^2 and v^2: sqrt(1 - (u^2 + v^2)), 0 off the disc."""
    w = uu + vv  # one band-sized array, updated in place
    return np.sqrt(np.maximum(np.subtract(1.0, w, out=w), 0.0, out=w), out=w)


def _disc_reach(n: int) -> tuple[np.ndarray, np.ndarray]:
    """|a| and the largest |b| of each row: row u = a/n holds the cells v = b/n with
    a² + b² <= n².  The grid is square, so |a| is also each column's offset |b|."""
    a = np.abs(np.arange(1 - n, n, 2, dtype=np.int32))  # int32: int64 masks cost twice
    s = np.sqrt(n * n - a * a).astype(np.int32)
    s -= s * s > n * n - a * a  # a correctly rounded root is at most one above isqrt
    return a, s - (s + n + 1) % 2  # b has the parity of a and n + 1, so a² + b² != n²


def _disc_band(offset: np.ndarray, reach: np.ndarray) -> tuple[int, np.ndarray]:
    """First column c0 and in-disc mask of rows of these reaches, cut to columns c0 .. n-1-c0."""
    c0 = (len(offset) - 1 - int(reach.max())) // 2
    return c0, offset[c0 : len(offset) - c0] <= reach[:, None]


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


def _run_contacts(start: np.ndarray, end: np.ndarray, sign: np.ndarray, cols: int):
    """Index pairs ``(a, b)`` of runs with 4-adjacent cells, ``b`` one row
    below ``a`` or right after it in one row, for runs of rows ``cols`` cells
    wide: the joins, of one sign, then the contacts across, of opposite signs."""
    # Runs are disjoint and sorted, so the runs one row down that share a
    # column with run a, those ending at or after a's start and starting at
    # or before a's end shifted by one row, are the k runs from lo on.
    lo = np.searchsorted(end, start + cols)
    k = np.searchsorted(start, end + cols, side="right") - lo
    # Runs that touch in a row have opposite signs; a run that starts a row
    # touches the previous row's last run only in flat order.
    # Run indices are int32: fewer than MAX_RESOLUTION^2 < 2^31 cells.
    beside = np.flatnonzero((end[:-1] + 1 == start[1:]) & (start[1:] % cols != 0)).astype(np.int32)
    a = np.concatenate([np.repeat(np.arange(len(start), dtype=np.int32), k), beside])
    b = np.repeat((lo - (np.cumsum(k) - k)).astype(np.int32), k)
    b = np.concatenate([b + np.arange(len(b), dtype=np.int32), beside + 1])
    same = sign[a] == sign[b]
    return (a[same], b[same]), (a[~same], b[~same])


def _label_runs(sign: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Components of the runs of signs ``sign`` under the joins ``(a, b)``
    of ``_run_contacts``: the 4-connected components of a sign array.

    Ids ``1, 2, ...`` go to the positive components in raster order of their first
    cell, then to the negative ones in the same order.  Returns the int32 id of each
    run and the numbers of positive and negative components.  After He, Chao &
    Suzuki, "A run-based two-scan labeling algorithm", IEEE TIP 17(5), 2008.
    """
    # Hook the larger root of every edge under the smaller, then jump
    # pointers to the roots, until no edge joins two trees.  A root is never
    # hooked under a larger index, so each component's root is its first run.
    parent = np.arange(len(sign))
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
    roots = np.flatnonzero(parent == np.arange(len(sign)))
    pos = sign[roots] > 0
    positive = int(np.count_nonzero(pos))
    rank = np.empty(len(sign), dtype=np.int32)
    rank[roots[pos]] = np.arange(1, 1 + positive)
    rank[roots[~pos]] = np.arange(1 + positive, 1 + len(roots))
    return rank[parent], positive, len(roots) - positive


def _run_ids_at(start: np.ndarray, end: np.ndarray, ids: np.ndarray, cells: np.ndarray):
    """The id of the run that holds each flat cell, 0 where no run does."""
    k = np.searchsorted(start, cells, side="right") - 1  # the last run to start by the cell
    held = np.flatnonzero(k >= 0)
    held = held[end[k[held]] >= cells[held]]
    out = np.zeros(len(cells), dtype=np.int32)
    out[held] = ids[k[held]]
    return out


def _id_pairs(xs: np.ndarray, ys: np.ndarray, base: int) -> list[tuple[int, int]]:
    """Distinct ``(lo, hi)`` id pairs, ascending as keys ``lo * base + hi``, by a sort:
    the first ``np.unique`` in a process imports ``numpy.ma``."""
    xs, ys = xs.astype(np.int64), ys.astype(np.int64)
    keys = np.sort(np.minimum(xs, ys) * base + np.maximum(xs, ys))  # ids, so keys, are >= 0
    return [divmod(k, base) for k in keys[np.diff(keys, prepend=-1) != 0].tolist()]


# perfbench times ``tracer.label``, the union-find alone, through this name of the
# pixel labelling it replaced; the shim goes when perfbench hooks ``_label_runs``.
ndimage = SimpleNamespace(label=_label_runs)


def _trace_once(p: PolySpec, n: int) -> _PixelTopology:
    # Both sheets at the upper half of the rows, by bands of rows of about
    # _BAND_CELLS cells cut to the columns of the band's widest row, so that
    # float values stay in cache.  The lower sheet turned, times (-1)^degree, is
    # the upper one, so a band's lower runs turned are the runs of its turned
    # rows; an odd grid's middle row is its own turn, read on the upper sheet
    # only.  Only sign runs are kept, as flat cells of the n-by-n grid, and cut
    # to each row's disc span at the end: no array of the whole grid is made.
    axis, reach = _disc_axis(n), _disc_reach(n)[1]
    lo, hi = (n - 1 - reach) // 2, (n - 1 + reach) // 2  # each row's disc span
    half, step = (n + 1) // 2, max(1, _BAND_CELLS // n)
    powers = _powers(axis, p.degree)
    values, signs = np.empty(2 * step * n), np.empty(2 * step * n, dtype=np.int8)
    upper, lower = [], []
    for r0 in range(0, half, step):
        r = min(step, half - r0)
        c0 = int(lo[r0 : r0 + r].min())
        rows, cols, c = slice(r0, r0 + r), slice(c0, n - c0), n - 2 * c0
        f = p.evaluate(axis[rows, None], axis[None, cols], (powers[:, rows], powers[:, cols]),
                       values[: 2 * r * c].reshape(2, r, c))
        sg = np.subtract(f > 0, f < 0, dtype=np.int8, out=signs[: 2 * r * c].reshape(2, r, c))
        first, last, s = _sign_runs(sg.reshape(2 * r, c)[: r + min(r, n // 2 - r0)])
        shift = first // c * 2 * c0 + (r0 * n + c0)  # band cell to grid cell
        k = np.searchsorted(first, r * c)  # the lower sheet's runs from k on
        upper.append((first[:k] + shift[:k], last[:k] + shift[:k], s[:k]))
        turn = n * n - 1 + r * n - shift[k:]  # lower band cell to the grid cell of its turn
        lower.append(((turn - last[k:])[::-1], (turn - first[k:])[::-1],
                      (-s[k:] if p.degree % 2 else s[k:])[::-1]))
    start, end, run_sign = (np.concatenate(x) for x in zip(*upper, *lower[::-1]))
    row = start // n
    start, end = np.maximum(start, row * n + lo[row]), np.minimum(end, row * n + hi[row])
    keep = start <= end
    start, end, run_sign = start[keep], end[keep], run_sign[keep]
    zeros = int((reach + 1).sum() - (end - start + 1).sum())  # exact zeros: disc cells off every run

    # One contact scan serves both sheets.  Upper component c has id c, and
    # its turned copy id m + c, sign times (-1)^degree; 0 is curve and outside.
    joins, across = _run_contacts(start, end, run_sign, n)
    ids, positive, negative = ndimage.label(run_sign, *joins)
    m = positive + negative
    sign = [0] + [1] * positive + [-1] * negative
    sign += [-s if p.degree % 2 else s for s in sign[1:]]
    base = len(sign)

    # Rim cells have a 4-neighbour off the disc or grid.  Row i's disc cells
    # are centred and end at hi[i], so its right-hand rim runs on from the
    # interior it shares with both neighbour rows; the left-hand rim is it turned.
    ends = np.concatenate([[-1], hi, [-1]])
    k = hi - np.minimum(hi - 1, np.minimum(ends[:-2], ends[2:]))
    i = np.repeat(np.arange(n), k)
    cells = i * n + np.repeat(hi + 1 - np.cumsum(k), k) + np.arange(len(i))
    x, y = (_run_ids_at(start, end, ids, c) for c in (cells, n * n - 1 - cells))
    x, y = x[(x > 0) & (y > 0)], y[(x > 0) & (y > 0)]

    # The lower id at cell p is m plus the upper id at -p.  Every rim and fold
    # pair lists an upper id first, so roots are upper ids.  Adjacencies are
    # read on the upper sheet; the lower sheet's are these turned.
    rim = _id_pairs(np.concatenate([x, y]), m + np.concatenate([y, x]), base)
    adjacency = _id_pairs(ids[across[0]], ids[across[1]], base)
    fold = [(c, m + c) for c in range(1, m + 1)]
    forest, signs = _region_forest(sign, rim, fold, adjacency, p.degree % 2 == 1)
    return _PixelTopology(forest, signs, 2 * zeros)


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
    if not np.isfinite(arr).all():
        raise TraceError(f"line {np.flatnonzero(~np.isfinite(arr).all(axis=1))[0]} is not finite")
    # Exact power-of-two scaling to a largest |entry| in [1/2, 1): no norm overflows or underflows.
    arr = np.ldexp(arr, -np.frexp(np.abs(arr).max(axis=1))[1][:, None])
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


def l_curve_epsilon(lines: Sequence[tuple[float, float, float]]) -> float:
    """The default epsilon of :func:`l_curve_sample`: 1e-2 of the 10% quantile
    of the nonzero |line product| on a coarse disc sample, below face values."""
    u, v = _disc_axis(64)[:, None], _disc_axis(64)
    f = reduce(poly_mul, (line(*c) for c in lines)).evaluate_terms(u, v, _upper_w(u * u, v * v))
    samples = np.abs(f[_disc_band(*_disc_reach(64))[1]])
    return 1e-2 * float(np.quantile(samples[samples > 0], 0.1))


def l_curve_sample(
    lines: Sequence[tuple[float, float, float]],
    g: PolySpec,
    epsilon: float | None = None,
    grid: GridConfig = GridConfig(),
) -> LCurveResult:
    """Trace the perturbation (product of lines) - epsilon * g.

    The lines must be pairwise distinct with no common triple point and
    g must have the same degree as their number.  When epsilon is not
    given it is :func:`l_curve_epsilon`.  The oval count of a stable
    result must respect the one-third bound; a violation signals a tracer bug.
    """
    m = len(lines)
    if m < 2:
        raise TraceError("need at least two lines")
    if g.degree != m:
        raise TraceError(f"perturbation must have degree {m}, got {g.degree}")
    _check_arrangement(lines)
    if epsilon is None:
        epsilon = l_curve_epsilon(lines)
    f = poly_add(reduce(poly_mul, (line(*c) for c in lines)), g, scale=-epsilon)
    trace = trace_scheme(f, grid)
    if not trace.stable:
        raise UnstableTraceError(f"unstable perturbation trace: {'; '.join(trace.notes)}")
    if not l_curve_bound(trace.scheme, m):
        raise TracerInternalError(
            f"{trace.scheme.oval_count} ovals from {m} lines break the one-third bound"
        )
    return LCurveResult(trace, epsilon)
