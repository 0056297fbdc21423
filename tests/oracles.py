"""Independent oracles used by the test suite.

These deliberately avoid the library's own formulas: forest isomorphism
is decided by backtracking over child matchings, Euler characteristics
of the domains come from rasterizing an explicit circle realization and
counting cells of the resulting square complex, the values each oval
caches are recomputed by walking its whole subtree, and move enumeration
builds a candidate at every index before deduplicating outcomes.
Derivation search has a reference too: the breadth-first search without
its distance cut, which expands every state up to the step budget.  So
has the fact closure: the same breadth-first closure over every move
``enumerate_moves`` lists at its default arguments, with no family cut,
no depth cap and no ``keep``, each move then filtered by the relation,
the split rule and the landing rule.  The
pixel tracer has two references, both of which evaluate and label both
sheets term by term: one on the whole square grid at once, deduplicating
antipodal pairs over every disc cell, and the banded two-sheet tracer
that the one-sheet tracer replaced.  They and the reference for the
tracer's run labeller label pixels with ``scipy.ndimage.label``; the run
labeller's ids are painted over pixels to be compared with it.  Both
references read their own rim, fold and adjacency pairs, so they check
the tracer's numeric front end, but they hand those pairs to the
tracer's own back end, ``conjquot.region_graph._region_forest``, which imports
no numpy.  That back end is checked exactly, on id graphs synthesized
from every forest of up to seven ovals, by
``tests/test_tracer.py::test_region_forest_rebuilds_every_forest`` and
the tests beside it.
"""

from __future__ import annotations

from collections import deque
from functools import cache

import numpy as np
from scipy import ndimage

from conjquot.domains import TrackedScheme, iter_ovals
from conjquot.moves import (
    SPLITS,
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
    Fact,
    FactTable,
    RelationSpec,
    _lands_on,
    _splits_from,
    state_key,
    state_label,
    typed_key,
)
from conjquot.region_graph import _region_forest
from conjquot.schemes import Oval, RealScheme, canonical_key, forest_key, harnack_bound
from conjquot.tracer import (
    PolySpec,
    TracerInternalError,
    _label_runs,
    _PixelTopology,
    _run_contacts,
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


def unpruned_candidates(t: TrackedScheme) -> list:
    """A rewrite at every oval, region, sibling pair and child index
    (splits: every multiset of children or neighbours, keep sets by mask)."""
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
    return candidates


def enumerate_unpruned(t: TrackedScheme) -> list[MoveRecord]:
    """Build every unpruned candidate, then keep the first candidate of each
    outcome (kind, successor key, classification)."""
    moves, seen = [], set()
    for rw in unpruned_candidates(t):
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
    cap = min(MAX_SEARCH_OVALS, harnack_bound(source.degree))
    if target.scheme.oval_count > cap:  # no searched state is the target
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
            if nxt.scheme.oval_count > cap:
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


# ------------------------------------------------------------ fact closure


@cache
def _all_moves(state: TrackedScheme) -> list[MoveRecord]:
    """``enumerate_moves`` at its default arguments, once per stored state."""
    return enumerate_moves(state)


def propagate_uncut(seeds, axiom_edges, rel: RelationSpec, universe) -> FactTable:
    """Breadth-first closure of the seed facts over every move that
    ``enumerate_moves`` lists at its default arguments and over the axiom
    edges: a move counts if its class is in ``rel``, it is no split from a
    state not of type 2, and it lands on a universe state (forest, type in
    value order, side) not marked yet.  Inputs are taken as valid."""
    types: dict[str, set] = {}
    for e in universe:
        types.setdefault(forest_key(e.scheme), set()).add(e.curve_type)
    table, work = FactTable(), deque()
    for fact in seeds:
        if table.add(fact):
            work.append(fact)
    axioms: dict[tuple, list] = {}
    for src, dst in axiom_edges:
        axioms.setdefault(typed_key(src), []).append(dst)
    while work:
        fact = work.popleft()
        state = fact.state
        source = fact.path[-1]["to"] if fact.path else state_label(state)
        steps = []
        for m in _all_moves(state):
            if m.classification not in rel.allowed:
                continue
            if isinstance(m.rewrite, SPLITS) and not _splits_from(state):
                continue
            after = m.successor.scheme
            for ct in sorted(types.get(forest_key(after), ()), key=lambda c: c.value):
                if _lands_on(after.curve_type, ct):
                    dst = TrackedScheme(after.with_type(ct), state.degree, state.outer_tracked)
                    steps.append((dst, "propagated", {"edge": "move", **m.record()}))
        steps += [(dst, "axiom-edge", {"edge": "axiom"}) for dst in axioms.get(typed_key(state), ())]
        for dst, provenance, head in steps:
            step = {**head, "from": source, "to": state_label(dst)}
            new = Fact(dst, provenance, fact.path + (step,))
            if table.add(new):
                work.append(new)
    return table


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

    # Rim pairs: the two sheets at the same grid point, w of either sign.
    both = _rim(inside) & (labels[0] > 0) & (labels[1] > 0)
    rim = _unique_pairs(labels[0][both], labels[1][both], base)

    # In-sheet adjacencies across the curve.
    adjacency: list[tuple[int, int]] = []
    for lab in labels:
        for p1, p2 in ((lab[:-1, :], lab[1:, :]), (lab[:, :-1], lab[:, 1:])):
            across = (p1 > 0) & (p2 > 0) & (p1 != p2)
            adjacency += _unique_pairs(p1[across], p2[across], base)

    # Fold by the antipodal involution: (u, v, w) and (-u, -v, -w) agree.
    anti = labels[1][::-1, ::-1]
    both = (labels[0] > 0) & (anti > 0)
    fold = _unique_pairs(labels[0][both], anti[both], base)
    return _PixelTopology(*_region_forest(sign, rim, fold, adjacency, p.degree % 2 == 1), ambiguous)


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
        lab, positive, negative = label_signs_by_pixels(sg)
        np.add(lab, len(sign) - 1, out=lab, where=lab > 0)  # ids after the last sheet's
        sign += [1] * positive + [-1] * negative
        labels.append(lab)
    base = len(sign)

    both = _rim(inside) & (signs[0] != 0) & (signs[1] != 0)
    rim = _unique_pairs(labels[0][both], labels[1][both], base)
    adjacency: list[tuple[int, int]] = []
    for lab, sg in zip(labels, signs):
        for a, b in ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:])):
            across = sg[a] * sg[b] < 0
            adjacency += _unique_pairs(lab[a][across], lab[b][across], base)

    # Each distinct antipodal pair fills runs along rows and shows at a
    # run's first cell, so these cells give the full set, in sorted order.
    upper, anti = labels[0], labels[1][::-1, ::-1]
    starts = (signs[0] != 0) & (signs[1][::-1, ::-1] != 0)
    starts[:, 1:] &= (upper[:, 1:] != upper[:, :-1]) | (anti[:, 1:] != anti[:, :-1])
    fold = _unique_pairs(upper[starts], anti[starts], base)
    parity = -1 if p.degree % 2 else 1
    for x, y in fold:
        if sign[y] != parity * sign[x]:
            raise TracerInternalError(
                f"antipodal cells of components {x} and {y} break the sign rule"
                f" f(-u, -v, -w) = (-1)^{p.degree} f(u, v, w)"
            )
    return _PixelTopology(*_region_forest(sign, rim, fold, adjacency, p.degree % 2 == 1), ambiguous)


def label_signs_by_runs(sg: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The tracer's run labeller painted over an int8 sign array: each run's
    id over its cells, 0 where the sign is 0, and the numbers of positive and
    negative components."""
    start, end, sign = _sign_runs(sg)
    ids, positive, negative = _label_runs(sign, *_run_contacts(start, end, sign, sg.shape[1])[0])
    lab = np.zeros(sg.shape, dtype=np.int32)
    lab[sg != 0] = np.repeat(ids, end - start + 1)  # runs tile the nonzero cells in raster order
    return lab, positive, negative


def label_signs_by_pixels(sg: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Reference for ``label_signs_by_runs``: ``ndimage.label`` on each sign
    of an int8 sign array, positive components first, ids from 1."""
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    lab = np.zeros(sg.shape, dtype=np.int32)
    counts = []
    for mask in (sg > 0, sg < 0):
        comp, count = ndimage.label(mask, structure=structure)
        np.add(comp, sum(counts), out=lab, where=comp > 0)
        counts.append(count)
    return lab, counts[0], counts[1]
