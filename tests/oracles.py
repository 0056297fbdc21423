"""Independent oracles used by the test suite.

These deliberately avoid the library's own formulas: forest isomorphism
is decided by backtracking over child matchings, Euler characteristics
of the domains come from rasterizing an explicit circle realization and
counting cells of the resulting square complex, the values each oval
caches are recomputed by walking its whole subtree, and move enumeration
builds a candidate at every index before deduplicating outcomes.
Derivation search has a reference too: the breadth-first search without
its distance cut, which expands every state up to the step budget.  The
pixel tracer has two references, both of which evaluate and label both
sheets term by term: one on the whole square grid at once, deduplicating
antipodal pairs over every disc cell, and the banded two-sheet tracer
that the one-sheet tracer replaced.  They and the reference for the
tracer's run labeller label pixels with ``scipy.ndimage.label``; the run
labeller's ids are painted over pixels to be compared with it.
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np
from scipy import ndimage

from conjquot.domains import OUTER, Path, TrackedScheme, format_path, iter_ovals
from conjquot.moves import (
    AddEmpty,
    DeleteEmpty,
    FuseParentChild,
    FuseSiblings,
    MoveRecord,
    SplitNest,
    SplitSibling,
    enumerate_moves,
    make_move,
)
from conjquot.propagation import (
    MAX_SEARCH_OVALS,
    SUCC,
    Certificate,
    RelationSpec,
    state_key,
)
from conjquot.schemes import CurveType, Oval, RealScheme, canonical_key, forest_key
from conjquot.tracer import (
    PolySpec,
    TraceError,
    TracerInternalError,
    _Dsu,
    _label_runs,
    _PixelTopology,
    _sign_runs,
)


# ---------------------------------------------------- forest isomorphism


def forests_isomorphic(a: tuple[Oval, ...], b: tuple[Oval, ...]) -> bool:
    """Backtracking matcher on unordered rooted forests."""
    if len(a) != len(b):
        return False
    if not a:
        return True
    first, rest = a[0], a[1:]
    for i, cand in enumerate(b):
        if first.size != cand.size:
            continue
        if forests_isomorphic(first.children, cand.children) and forests_isomorphic(
            rest, b[:i] + b[i + 1 :]
        ):
            return True
    return False


def schemes_isomorphic(a: RealScheme, b: RealScheme) -> bool:
    return (
        a.pseudoline == b.pseudoline
        and a.curve_type == b.curve_type
        and forests_isomorphic(a.roots, b.roots)
    )


# ---------------------------------------------------- cached oval fields


def subtree_size(o: Oval) -> int:
    return 1 + sum(subtree_size(c) for c in o.children)


def subtree_key(o: Oval) -> str:
    return "(" + "".join(sorted(subtree_key(c) for c in o.children)) + ")"


def level_count(o: Oval, depth: int = 1) -> int:
    """Ovals of the subtree at odd depth minus those at even depth, with
    ``o`` itself at ``depth``."""
    own = 1 if depth % 2 else -1
    return own + sum(level_count(c, depth + 1) for c in o.children)


def check_cached_fields(roots: tuple[Oval, ...]) -> None:
    """Assert that every oval's cached size, key and signed level count,
    and the forest's oval count and key, match the walks above."""
    stack = list(roots)
    while stack:
        o = stack.pop()
        assert (o.size, o.key, o.signed) == (subtree_size(o), subtree_key(o), level_count(o))
        stack.extend(o.children)
    s = RealScheme(roots)
    assert s.oval_count == sum(subtree_size(r) for r in roots)
    assert forest_key(s) == "".join(sorted(subtree_key(r) for r in roots))


# -------------------------------------------------------- move enumeration


def _subsets_by_shape(items):
    """One subset of (path, key) items per multiset of keys: the first n
    paths of each key, over every count vector."""
    groups: dict[str, list] = {}
    for path, key in items:
        groups.setdefault(key, []).append(path)
    subsets = [()]
    for key in sorted(groups, reverse=True):
        paths = groups[key]
        subsets = [tuple(paths[:n]) + rest for rest in subsets for n in range(len(paths) + 1)]
    return subsets


def enumerate_unpruned(t: TrackedScheme) -> list[MoveRecord]:
    """Build a candidate at every oval, region, sibling pair and child
    index (splits: every multiset of children or neighbours, keep sets by
    mask), then keep the first candidate of each outcome (kind, successor
    key, classification)."""
    roots = t.scheme.roots
    ovals = list(iter_ovals(t.scheme))
    regions = [None, *(path for path, _ in ovals)]
    by_path = dict(ovals)

    def siblings(prefix):
        return by_path[prefix].children if prefix else roots

    candidates = [AddEmpty(region) for region in regions]
    candidates += [DeleteEmpty(path) for path, oval in ovals if not oval.children]
    for region in regions:
        prefix = region or ()
        n = len(siblings(prefix))
        candidates += [
            FuseSiblings(prefix + (i,), prefix + (j,)) for i in range(n) for j in range(i + 1, n)
        ]
    for path, oval in ovals:
        candidates += [FuseParentChild(path, path + (ci,)) for ci in range(len(oval.children))]
    for path, oval in ovals:
        keeps = [
            tuple(sorted(i for (i,) in s))
            for s in _subsets_by_shape([((i,), c.key) for i, c in enumerate(oval.children)])
        ]
        keeps.sort(key=lambda keep: sum(1 << i for i in keep))
        candidates += [SplitSibling(path, keep) for keep in keeps]
    for path, oval in ovals:
        region = path[:-1]
        neighbours = [
            (region + (k,), o.key) for k, o in enumerate(siblings(region)) if k != path[-1]
        ]
        candidates += [SplitNest(path, s) for s in _subsets_by_shape(neighbours)]

    moves, seen = [], set()
    for rw in candidates:
        m = make_move(t, rw)
        key = (type(rw).__name__, canonical_key(m.successor.scheme), m.classification)
        if key not in seen:
            seen.add(key)
            moves.append(m)
    return moves


# -------------------------------------------------------- derivation search


def relation_search_unpruned(
    source: TrackedScheme,
    target: TrackedScheme,
    rel: RelationSpec = SUCC,
    max_steps: int = 64,
) -> Certificate | None:
    """Breadth-first derivation search over canonical state keys that
    expands every state up to ``max_steps`` moves from the source."""
    if source.degree != target.degree:
        raise ValueError("relation search needs equal degrees")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    goal = state_key(target)
    start = state_key(source)
    if start == goal:
        return Certificate(source, target, (), (source,))
    if target.scheme.oval_count > MAX_SEARCH_OVALS:  # no searched state is the target
        return None
    seen = {start}
    # A node is (state, move into it, parent node, steps from the source);
    # the path is read back through the parents once, at the goal.
    frontier: deque[tuple] = deque([(source, None, None, 0)])
    while frontier:
        node = frontier.popleft()
        state, _, _, steps = node
        if steps >= max_steps:
            continue
        for m in enumerate_moves(state):
            if m.classification not in rel.allowed:
                continue
            nxt = m.successor
            if nxt.scheme.oval_count > MAX_SEARCH_OVALS:
                continue
            key = state_key(nxt)
            if key in seen:
                continue
            seen.add(key)
            child = (nxt, m, node, steps + 1)
            if key == goal:
                moves, states = [], []
                while child is not None:
                    reached, move, child, _ = child
                    states.append(reached)
                    if move is not None:
                        moves.append(move)
                return Certificate(source, target, tuple(moves[::-1]), tuple(states[::-1]))
            frontier.append(child)
    return None


# -------------------------------------------------------- circle layouts


def circle_layout(
    roots: tuple[Oval, ...], center=(0.0, 0.0), radius=1.0
) -> list[tuple[float, float, float]]:
    """Concentric/disjoint circles realizing a forest: one circle per
    oval, children strictly inside their parent, siblings disjoint."""
    circles: list[tuple[float, float, float]] = []

    def place(ovals, cx, cy, r):
        n = len(ovals)
        if n == 0:
            return
        if n == 1:
            rc = 0.72 * r
            circles.append((cx, cy, rc))
            place(ovals[0].children, cx, cy, rc)
            return
        # side-by-side slots along the horizontal diameter
        slot = 1.7 * r / n
        for i, o in enumerate(ovals):
            ox = cx - 0.85 * r + slot * (i + 0.5)
            rc = 0.40 * slot
            circles.append((ox, cy, rc))
            place(o.children, ox, cy, rc)

    place(roots, center[0], center[1], radius)
    return circles


def min_feature_gap(circles) -> float:
    """Smallest circle radius and pairwise boundary gap."""
    best = min((r for _, _, r in circles), default=1.0)
    for i, (x1, y1, r1) in enumerate(circles):
        for x2, y2, r2 in circles[i + 1 :]:
            d = ((x1 - x2) ** 2 + (y1 - y2) ** 2) ** 0.5
            gap = min(abs(d - r1 - r2), abs(abs(d - r2) - r1), abs(abs(d - r1) - r2))
            best = min(best, gap)
    return best


# ------------------------------------------------- pixel Euler characteristic


def pixel_euler_by_side(
    roots: tuple[Oval, ...], n: int, window: float = 1.2
) -> tuple[int, int]:
    """Euler characteristics of the two nesting-parity classes, by cell
    counting on a rasterized circle realization.

    The rectangle is a disc holding all ovals; the part of the plane
    outside it is a band around the one-sided core, which has Euler
    characteristic zero and glues along a circle, so it contributes
    nothing and cell counts over the rectangle already give the projective
    values.  Every class is a union of closed grid squares; its Euler
    characteristic is vertices - edges + squares.
    """
    circles = circle_layout(roots)
    xs = np.linspace(-window, window, n, endpoint=False) + window / n
    u, v = np.meshgrid(xs, xs, indexing="ij")
    depth = np.zeros(u.shape, dtype=np.int64)
    for cx, cy, r in circles:
        depth += ((u - cx) ** 2 + (v - cy) ** 2) < r * r

    def chi_of(mask: np.ndarray) -> int:
        faces = int(mask.sum())
        vert = np.zeros((n + 1, n + 1), dtype=bool)
        for di in (0, 1):
            for dj in (0, 1):
                vert[di : n + di, dj : n + dj] |= mask
        hedge = np.zeros((n, n + 1), dtype=bool)
        hedge[:, 0:n] |= mask
        hedge[:, 1 : n + 1] |= mask
        vedge = np.zeros((n + 1, n), dtype=bool)
        vedge[0:n, :] |= mask
        vedge[1 : n + 1, :] |= mask
        return int(vert.sum()) - int(hedge.sum() + vedge.sum()) + faces

    even = chi_of(depth % 2 == 0)
    odd = chi_of(depth % 2 == 1)
    return even, odd


# ------------------------------------------------------ two-sheet tracers


def disc_grid(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tracer's pixel grid as a whole: an ``(n, 1)`` column ``u``, a
    ``(1, n)`` row ``v``, the upper-sheet ``w`` and the mask of centres in
    the disc, built from a dense meshgrid."""
    half = np.arange(1 - n, n, 2) / n
    u, v = np.meshgrid(half, half, indexing="ij")
    rr = u * u + v * v
    return half[:, None], half[None, :], np.sqrt(np.maximum(1.0 - rr, 0.0)), rr <= 1.0


def evaluate_two_sheets(
    p: PolySpec, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(f(u, v, w), f(u, v, -w))`` term by term in coefficient order, the
    lower sheet adding each upper term for even ``c`` and subtracting it for
    odd ``c``: ``(-w)^c`` by repeated products is ``+-w^c`` bit for bit."""
    pu = [np.ones_like(u)]
    pv = [np.ones_like(v)]
    for _ in range(p.degree):
        pu.append(pu[-1] * u)
        pv.append(pv[-1] * v)
    pw = [None, w]
    while len(pw) <= p.degree:
        pw.append(pw[-1] * w)
    shape = np.broadcast_shapes(u.shape, v.shape, w.shape)
    upper, lower, term = np.zeros(shape), np.zeros(shape), np.empty(shape)
    for (a, b, c), coef in p.coeffs:
        np.multiply(coef * pu[a], pv[b], out=term)
        if c:
            np.multiply(term, pw[c], out=term)
        upper += term
        if c % 2:
            lower -= term
        else:
            lower += term
    return upper, lower


def _unique_pairs(a: np.ndarray, b: np.ndarray, base: int) -> list[tuple[int, int]]:
    """Distinct ``(lo, hi)`` label pairs, ascending, as keys ``lo * base + hi``."""
    a, b = a.astype(np.int64), b.astype(np.int64)
    keys = np.unique(np.minimum(a, b) * base + np.maximum(a, b))
    return [divmod(k, base) for k in keys.tolist()]


def _rim(inside: np.ndarray) -> np.ndarray:
    """Disc cells with a 4-neighbour off the disc or off the grid."""
    rim = inside.copy()
    rim[1:-1, 1:-1] &= ~(
        inside[:-2, 1:-1] & inside[2:, 1:-1] & inside[1:-1, :-2] & inside[1:-1, 2:]
    )
    return rim


def _regions_to_topology(
    p: PolySpec, sign: list[int], dsu: _Dsu, sphere: set[int],
    adjacency: list[tuple[int, int]], ambiguous: int,
) -> _PixelTopology:
    """The forest of the folded regions, as both two-sheet tracers build it."""
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


def trace_once_full_grid(p: PolySpec, n: int) -> _PixelTopology:
    """Both sheets evaluated on the whole square grid at once, labelled from
    the float values, with antipodal pairs read at every disc cell."""
    u, v, w, inside = disc_grid(n)
    values = evaluate_two_sheets(p, u, v, w)
    ambiguous = int(sum((inside & (f == 0.0)).sum() for f in values))

    # Sign components of both sheets in one run of ids 1, 2, ...; id 0 is
    # the curve and the outside of the disc.
    labels = []
    sign = [0]
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    for f in values:
        lab = np.zeros(f.shape, dtype=np.int64)
        for s, mask in ((1, f > 0), (-1, f < 0)):
            comp, count = ndimage.label(inside & mask, structure=structure)
            lab[comp > 0] = comp[comp > 0] + (len(sign) - 1)
            sign += [s] * count
        labels.append(lab)
    base = len(sign)

    # Stitch the two sheets along the rim: same grid point, w of either sign.
    dsu = _Dsu(base)
    adjacency: list[tuple[int, int]] = []
    both = _rim(inside) & (labels[0] > 0) & (labels[1] > 0)
    for x, y in _unique_pairs(labels[0][both], labels[1][both], base):
        if sign[x] == sign[y]:
            dsu.union(x, y)
        else:
            adjacency.append((x, y))

    # In-sheet adjacencies across the curve.
    for lab in labels:
        for p1, p2 in ((lab[:-1, :], lab[1:, :]), (lab[:, :-1], lab[:, 1:])):
            across = (p1 > 0) & (p2 > 0) & (p1 != p2)
            adjacency += _unique_pairs(p1[across], p2[across], base)

    # Fold by the antipodal involution: (u, v, w) and (-u, -v, -w) agree.
    sphere = {dsu.find(i) for i in range(1, base)}
    anti = labels[1][::-1, ::-1]
    both = (labels[0] > 0) & (anti > 0)
    for x, y in _unique_pairs(labels[0][both], anti[both], base):
        dsu.union(x, y)
    return _regions_to_topology(p, sign, dsu, sphere, adjacency, ambiguous)


def trace_once_two_sheets(p: PolySpec, n: int) -> _PixelTopology:
    """The banded two-sheet tracer that the one-sheet ``_trace_once``
    replaced: both sheets evaluated in bands of rows and labelled apart,
    rim pairs stitched, sphere components snapshotted, then antipodal pairs
    read at run starts, checked against the sign rule and folded."""
    u, v, w, inside = disc_grid(n)
    signs = [np.zeros((n, n), dtype=np.int8) for _ in range(2)]
    ambiguous = 0
    step = max(1, (1 << 14) // n)  # bands of rows of about 2^14 cells
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        hit = np.flatnonzero(inside[rows].any(axis=0))
        cols = slice(hit[0], hit[-1] + 1)
        band = inside[rows, cols]
        for sg, f in zip(signs, evaluate_two_sheets(p, u[rows], v[:, cols], w[rows, cols])):
            np.subtract(f > 0, f < 0, dtype=np.int8, out=sg[rows, cols], where=band)
            ambiguous += int(np.count_nonzero(band & (f == 0.0)))

    labels = []
    sign = [0]
    for sg in signs:
        lab, positive, negative = label_signs_by_pixels(sg, len(sign))
        sign += [1] * positive + [-1] * negative
        labels.append(lab)
    base = len(sign)

    dsu = _Dsu(base)
    adjacency: list[tuple[int, int]] = []
    both = _rim(inside) & (signs[0] != 0) & (signs[1] != 0)
    for x, y in _unique_pairs(labels[0][both], labels[1][both], base):
        if sign[x] == sign[y]:
            dsu.union(x, y)
        else:
            adjacency.append((x, y))
    for lab, sg in zip(labels, signs):
        for a, b in ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:])):
            across = sg[a] * sg[b] < 0
            adjacency += _unique_pairs(lab[a][across], lab[b][across], base)

    # Each distinct antipodal pair fills runs along rows and shows at a
    # run's first cell, so these cells give the full set, in sorted order.
    sphere = {dsu.find(i) for i in range(1, base)}
    upper, anti = labels[0], labels[1][::-1, ::-1]
    starts = (signs[0] != 0) & (signs[1][::-1, ::-1] != 0)
    starts[:, 1:] &= (upper[:, 1:] != upper[:, :-1]) | (anti[:, 1:] != anti[:, :-1])
    parity = -1 if p.degree % 2 else 1
    for x, y in _unique_pairs(upper[starts], anti[starts], base):
        if sign[y] != parity * sign[x]:
            raise TracerInternalError(
                f"antipodal cells of components {x} and {y} break the sign rule"
                f" f(-u, -v, -w) = (-1)^{p.degree} f(u, v, w)"
            )
        dsu.union(x, y)
    return _regions_to_topology(p, sign, dsu, sphere, adjacency, ambiguous)


def label_signs_by_runs(sg: np.ndarray, first: int = 1) -> tuple[np.ndarray, int, int]:
    """The tracer's run labeller painted over an int8 sign array: each run's
    id over its cells, 0 where the sign is 0, and the numbers of positive and
    negative components."""
    start, end, sign = _sign_runs(sg)
    ids, positive, negative = _label_runs(start, end, sign, sg.shape[1], first)
    lab = np.zeros(sg.shape, dtype=np.int32)
    lab[sg != 0] = np.repeat(ids, end - start + 1)  # runs tile the nonzero cells in raster order
    return lab, positive, negative


def label_signs_by_pixels(sg: np.ndarray, first: int = 1) -> tuple[np.ndarray, int, int]:
    """Reference for ``label_signs_by_runs``: ``ndimage.label`` on each sign
    of an int8 sign array, positive components first, ids from ``first``."""
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    lab = np.zeros(sg.shape, dtype=np.int32)
    counts = []
    for mask in (sg > 0, sg < 0):
        comp, count = ndimage.label(mask, structure=structure)
        np.add(comp, first - 1, out=lab, where=comp > 0)
        counts.append(count)
        first += count
    return lab, counts[0], counts[1]
