"""Numeric extraction of the oval scheme of a real plane curve.

A homogeneous polynomial is sampled on the unit-disc model of the
projective plane: the point (u, v) with u^2 + v^2 <= 1 stands for the
projective point (u : v : w), w = sqrt(1 - u^2 - v^2), with antipodal
points of the rim glued.  Working with both hemispheres keeps the gluing
exact.  The form is evaluated on both sheets band by band: each band of
rows covers about 2^14 cells and only the columns where it meets the
disc, so its float values stay in cache, and only an int8 sign per cell
is kept.  Complement regions come from one union-find pass over the sign
components of both sheets, numbered in one run of ids: rim pairs of equal
sign are stitched into sphere components, whose roots are snapshotted,
then antipodal pairs are folded into projective regions.  Antipodal
pairs are read only at the first cell of each run of equal pairs along a
row; every distinct pair starts some run, so that is the full set.  A
region is one-sided exactly when one sphere component covers it.

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
from typing import ClassVar, Mapping, Sequence

import numpy as np
from scipy import ndimage

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

    def evaluate(
        self, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Values ``(f(u, v, w), f(u, v, -w))`` on both sheets in one pass.

        The arguments broadcast against each other, so ``u`` and ``v`` may
        be an ``(n, 1)`` column and a ``(1, n)`` row.  Each term
        ``coef * u^a * v^b * w^c`` is computed once, in the order the
        one-sheet sum uses, and added to the upper sheet; the lower sheet
        adds it for even ``c`` and subtracts it for odd ``c``.  That is
        exact: ``(-w)^c`` by repeated products is ``+-w^c`` bit for bit,
        since negation is exact and rounding is symmetric in sign, so
        each lower-sheet term is the upper one negated, and ``x - t`` is
        ``x + (-t)`` in IEEE arithmetic.
        """
        pu = [np.ones_like(u)]
        pv = [np.ones_like(v)]
        for _ in range(self.degree):
            pu.append(pu[-1] * u)
            pv.append(pv[-1] * v)
        pw = [None, w]  # terms with c = 0 skip the factor w^0 = 1
        while len(pw) <= self.degree:
            pw.append(pw[-1] * w)
        shape = np.broadcast_shapes(u.shape, v.shape, w.shape)
        upper, lower, term = np.zeros(shape), np.zeros(shape), np.empty(shape)
        for (a, b, c), coef in self.coeffs:
            np.multiply(coef * pu[a], pv[b], out=term)
            if c:
                np.multiply(term, pw[c], out=term)
            upper += term
            if c % 2:
                lower -= term
            else:
                lower += term
        return upper, lower


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


@dataclass(frozen=True)
class GridConfig:
    resolution: int = 512
    cap: int = 4096

    def __post_init__(self):
        if self.resolution < 1 or self.cap < self.resolution:
            raise ValueError(
                f"grid needs 1 <= resolution <= cap, got resolution {self.resolution}"
                f" and cap {self.cap}"
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


def _disc_grid(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pixel centres of an n-by-n grid on the square around the unit disc,
    as an ``(n, 1)`` column ``u`` and a ``(1, n)`` row ``v`` that broadcast
    to the grid, the upper-sheet ``w`` and the mask of centres in the disc."""
    half = np.linspace(-1.0, 1.0, n, endpoint=False) + 1.0 / n
    u, v = np.meshgrid(half, half, indexing="ij")
    rr = u * u + v * v
    return half[:, None], half[None, :], np.sqrt(np.maximum(1.0 - rr, 0.0)), rr <= 1.0


def _trace_once(p: PolySpec, n: int) -> _PixelTopology:
    u, v, w, inside = _disc_grid(n)

    # Signs of both sheets, evaluated band by band: a band is a run of rows
    # of about _BAND_CELLS cells, cut to the columns where it meets the
    # disc (every row does), so its float values stay in cache and only
    # int8 signs outlive it.  NaN and cells outside the disc get sign 0.
    signs = [np.zeros((n, n), dtype=np.int8) for _ in range(2)]
    ambiguous = 0
    step = max(1, _BAND_CELLS // n)
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        hit = np.flatnonzero(inside[rows].any(axis=0))
        cols = slice(hit[0], hit[-1] + 1)
        band = inside[rows, cols]
        for sg, f in zip(signs, p.evaluate(u[rows], v[:, cols], w[rows, cols])):
            np.subtract(f > 0, f < 0, dtype=np.int8, out=sg[rows, cols], where=band)
            ambiguous += int(np.count_nonzero(band & (f == 0.0)))

    # Sign components of both sheets in one run of ids 1, 2, ...; id 0 is
    # the curve and the outside of the disc.
    labels = []
    sign = [0]
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    for sg in signs:
        lab = np.zeros(sg.shape, dtype=np.int32)
        for s, mask in ((1, sg > 0), (-1, sg < 0)):
            comp, count = ndimage.label(mask, structure=structure)
            np.add(comp, len(sign) - 1, out=lab, where=comp > 0)
            sign += [s] * count
        labels.append(lab)
    base = len(sign)

    def pairs(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> list[tuple[int, int]]:
        """Distinct ``(lo, hi)`` label pairs over ``mask``, ascending, found
        as one-dimensional keys ``lo * base + hi``."""
        xs, ys = a[mask].astype(np.int64), b[mask].astype(np.int64)
        keys = np.unique(np.minimum(xs, ys) * base + np.maximum(xs, ys))
        return [divmod(k, base) for k in keys.tolist()]

    # Stitch the two sheets along the rim: same grid point, w of either sign.
    dsu = _Dsu(base)
    rim = inside.copy()
    rim[1:-1, 1:-1] &= ~(
        inside[:-2, 1:-1] & inside[2:, 1:-1] & inside[1:-1, :-2] & inside[1:-1, 2:]
    )
    adjacency: list[tuple[int, int]] = []
    for x, y in pairs(labels[0], labels[1], rim & (signs[0] != 0) & (signs[1] != 0)):
        if sign[x] == sign[y]:
            dsu.union(x, y)
        else:
            adjacency.append((x, y))

    # In-sheet adjacencies across the curve: two 4-adjacent cells off the
    # curve lie in different components exactly when their signs differ.
    for lab, sg in zip(labels, signs):
        for a, b in ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:])):
            adjacency += pairs(lab[a], lab[b], sg[a] * sg[b] < 0)

    # Fold by the antipodal involution: (u, v, w) and (-u, -v, -w) agree.
    # Pairs are read only where the pair differs from the one to its left:
    # each distinct pair fills runs along rows and shows at a run's first
    # cell, so these cells give the full set, in the same sorted order.
    sphere = {dsu.find(i) for i in range(1, base)}
    upper, anti = labels[0], labels[1][::-1, ::-1]
    starts = (signs[0] != 0) & (signs[1][::-1, ::-1] != 0)
    starts[:, 1:] &= (upper[:, 1:] != upper[:, :-1]) | (anti[:, 1:] != anti[:, :-1])
    for x, y in pairs(upper, anti, starts):
        dsu.union(x, y)
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
    return _PixelTopology(forest, signs if p.degree % 2 == 0 else {}, ambiguous)


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
                return TraceResult(
                    current.forest,
                    tuple(sorted(current.signs.items())),
                    n,
                    stable=True,
                    notes=tuple(notes),
                )
        if current is not None:
            last, last_n = current, n
        n *= 2
    if last is None:
        raise UnstableTraceError("; ".join(notes) or "no resolution produced a scheme")
    notes.append("refinement cap reached without agreement")
    return TraceResult(
        last.forest, tuple(sorted(last.signs.items())), last_n, stable=False,
        notes=tuple(notes),
    )


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
    m = len(lines)
    arr = np.asarray(lines, dtype=float)
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms == 0):
        raise TraceError("zero line")
    arr = arr / norms[:, None]
    for i in range(m):
        for j in range(i + 1, m):
            if np.linalg.norm(np.cross(arr[i], arr[j])) < 1e-9:
                raise TraceError(f"lines {i} and {j} coincide")
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
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
        u, v, w, inside = _disc_grid(64)
        samples = np.abs(prod.evaluate(u, v, w)[0][inside])
        epsilon = 1e-2 * float(np.quantile(samples[samples > 0], 0.1))
    f = poly_add(prod, g, scale=-epsilon)
    trace = trace_scheme(f, grid)
    if not trace.stable:
        raise UnstableTraceError(f"unstable perturbation trace: {'; '.join(trace.notes)}")
    if not l_curve_bound(trace.scheme, m):
        raise TracerInternalError(
            f"{trace.scheme.oval_count} ovals from {m} lines break the "
            "one-third bound"
        )
    return LCurveResult(trace, epsilon)
