"""Numeric extraction of the oval scheme of a real plane curve.

A homogeneous polynomial is sampled on the unit-disc model of the
projective plane: the point (u, v) with u^2 + v^2 <= 1 stands for the
projective point (u : v : w), w = sqrt(1 - u^2 - v^2), with antipodal
points of the rim glued.  Working with both hemispheres keeps the gluing
exact: complement regions are connected components of the nonzero-sign
pixels on the two sheets, stitched along the rim and folded by the
antipodal involution.

For disjoint embedded circles the region adjacency graph is a tree whose
edges are the curve components; the root is the unique region whose
double cover stays connected (it carries the one-sided core of the
plane), and the tree below it is exactly the oval nesting forest.  A
region bounded by itself is the one-sided component of an odd-degree
curve.

Every result is re-derived at twice the resolution; a trace is reported
stable only if the two schemes agree, and refinement continues up to a
cap otherwise.  Unstable traces are flagged, never silently guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

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
        for (a, b, c), _ in self.coeffs:
            if a + b + c != self.degree or min(a, b, c) < 0:
                raise TraceError(f"monomial {(a, b, c)} is not of degree {self.degree}")

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

    def evaluate(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        maxdeg = self.degree
        pu = [np.ones_like(u)]
        pv = [np.ones_like(v)]
        pw = [np.ones_like(w)]
        for _ in range(maxdeg):
            pu.append(pu[-1] * u)
            pv.append(pv[-1] * v)
            pw.append(pw[-1] * w)
        out = np.zeros_like(u)
        for (a, b, c), coef in self.coeffs:
            out += coef * pu[a] * pv[b] * pw[c]
        return out


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
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class _PixelTopology:
    forest: RealScheme
    signs: dict[str, int]
    ambiguous: int


def _trace_once(p: PolySpec, n: int) -> _PixelTopology:
    half = np.linspace(-1.0, 1.0, n, endpoint=False) + 1.0 / n
    u, v = np.meshgrid(half, half, indexing="ij")
    rr = u * u + v * v
    inside = rr <= 1.0
    w = np.sqrt(np.maximum(1.0 - rr, 0.0))

    values = [p.evaluate(u, v, w), p.evaluate(u, v, -w)]
    ambiguous = int(sum((inside & (f == 0.0)).sum() for f in values))

    labels = []
    offset = 0
    counts = []
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    for f in values:
        lab = np.zeros(f.shape, dtype=np.int64)
        pos, npos = ndimage.label(inside & (f > 0), structure=structure)
        neg, nneg = ndimage.label(inside & (f < 0), structure=structure)
        lab[pos > 0] = pos[pos > 0] + offset
        offset += npos
        lab[neg > 0] = neg[neg > 0] + offset
        offset += nneg
        labels.append(lab)
        counts.append((npos, nneg))

    def unique_pairs(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> np.ndarray:
        xs, ys = a[mask], b[mask]
        if xs.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        lo, hi = np.minimum(xs, ys), np.maximum(xs, ys)
        return np.unique(np.stack([lo, hi], axis=1), axis=0)

    def label_sign(x: int) -> int:
        if x <= counts[0][0]:
            return 1
        if x <= counts[0][0] + counts[0][1]:
            return -1
        return 1 if x - counts[0][0] - counts[0][1] <= counts[1][0] else -1

    dsu = _Dsu()
    for i in range(1, offset + 1):
        dsu.find(i)

    # Stitch the two sheets along the rim: same grid point, w of either sign.
    rim = inside.copy()
    rim[1:-1, 1:-1] &= ~(
        inside[:-2, 1:-1] & inside[2:, 1:-1] & inside[1:-1, :-2] & inside[1:-1, 2:]
    )
    adjacency: set[tuple[int, int]] = set()
    for x, y in unique_pairs(labels[0], labels[1], rim & (labels[0] > 0) & (labels[1] > 0)).tolist():
        if label_sign(x) == label_sign(y):
            dsu.union(x, y)
        else:
            adjacency.add((x, y))

    # In-sheet adjacencies across the curve.
    for lab in labels:
        for p1, p2 in ((lab[:-1, :], lab[1:, :]), (lab[:, :-1], lab[:, 1:])):
            mask = (p1 > 0) & (p2 > 0) & (p1 != p2)
            adjacency.update(map(tuple, unique_pairs(p1, p2, mask).tolist()))

    # Fold by the antipodal involution: (u, v, w) and (-u, -v, -w) agree.
    anti = labels[1][::-1, ::-1]
    pairs = unique_pairs(labels[0], anti, (labels[0] > 0) & (anti > 0))
    sphere_parent = {i: dsu.find(i) for i in range(1, offset + 1)}
    quotient = _Dsu()
    for i in set(sphere_parent.values()):
        quotient.find(i)
    for x, y in pairs.tolist():
        quotient.union(sphere_parent[x], sphere_parent[y])

    # Projective regions and their sphere preimage component counts.
    regions: dict[int, set[int]] = {}
    for comp in set(sphere_parent.values()):
        regions.setdefault(quotient.find(comp), set()).add(comp)

    edges: dict[tuple[int, int], None] = {}
    loops: set[int] = set()
    for x, y in sorted(adjacency):
        qa = quotient.find(sphere_parent[x])
        qb = quotient.find(sphere_parent[y])
        if qa == qb:
            loops.add(qa)
        else:
            edges[(min(qa, qb), max(qa, qb))] = None

    # Signs per sphere component (well defined for even degree).
    comp_sign: dict[int, int] = {}
    for raw in range(1, offset + 1):
        comp_sign[sphere_parent[raw]] = label_sign(raw)

    graph: dict[int, list[int]] = {r: [] for r in regions}
    for qa, qb in edges:
        graph[qa].append(qb)
        graph[qb].append(qa)

    n_regions = len(regions)
    n_edges = len(edges)
    if p.degree % 2 == 0:
        if loops or n_edges != n_regions - 1:
            raise TraceError("region graph is not a tree")
        roots = [r for r, comps in regions.items() if len(comps) == 1]
        if len(roots) != 1:
            raise TraceError("no unique one-sided region")
        pseudoline = False
    else:
        if len(loops) != 1 or n_edges != n_regions - 1:
            raise TraceError("odd degree curve needs exactly one one-sided component")
        roots = list(loops)
        pseudoline = True
    root = roots[0]

    seen = {root}
    stack = [root]
    children: dict[int, list[int]] = {r: [] for r in regions}
    while stack:
        node = stack.pop()
        for nb in graph[node]:
            if nb in seen:
                continue
            seen.add(nb)
            children[node].append(nb)
            stack.append(nb)
    if len(seen) != n_regions:
        raise TraceError("region graph is disconnected")

    def build(region: int) -> Oval:
        return Oval(tuple(build(c) for c in sorted(children[region])))

    forest = RealScheme(
        tuple(build(c) for c in sorted(children[root])),
        pseudoline,
        CurveType.UNKNOWN,
    )

    signs: dict[str, int] = {}
    if p.degree % 2 == 0:
        def walk(region: int, path: Path | None) -> None:
            comp = next(iter(regions[region]))
            signs[format_path(path)] = comp_sign[comp]
            for k, c in enumerate(sorted(children[region])):
                walk(c, (path or ()) + (k,))
        walk(root, OUTER)

    return _PixelTopology(forest, signs, ambiguous)


def _same_scheme(a: RealScheme, b: RealScheme) -> bool:
    return canonical_key(a) == canonical_key(b)


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
            if _same_scheme(current.forest, last.forest) and current.ambiguous == 0:
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
        raise TraceError("; ".join(notes) or "no resolution produced a scheme")
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
    provenance_tag: str = "L-curve"

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
        k = 64
        half = np.linspace(-1.0, 1.0, k, endpoint=False) + 1.0 / k
        u, v = np.meshgrid(half, half, indexing="ij")
        rr = u * u + v * v
        w = np.sqrt(np.maximum(1.0 - rr, 0.0))
        samples = np.abs(prod.evaluate(u, v, w)[rr <= 1.0])
        epsilon = 1e-2 * float(np.quantile(samples[samples > 0], 0.1))
    f = poly_add(prod, g, scale=-epsilon)
    trace = trace_scheme(f, grid)
    if not trace.stable:
        raise TraceError(f"unstable perturbation trace: {'; '.join(trace.notes)}")
    if not l_curve_bound(trace.scheme, m):
        raise TracerInternalError(
            f"{trace.scheme.oval_count} ovals from {m} lines break the "
            "one-third bound"
        )
    return LCurveResult(trace, epsilon)
