"""A trace's back end, ``_region_forest``, sees component ids only; this
module imports no numpy.  Rim pairs of equal sign stitch lifts into sphere
components, then each component's two lifts fold into one projective
region, one-sided exactly when one sphere component covers it.  For
disjoint embedded circles the region graph is a tree whose edges are the
curve components; the root is the unique one-sided region (it carries the
one-sided core of the plane), and the tree below it is the oval nesting
forest, children ordered by region id.  A region bounded by itself is the
one-sided component of an odd curve.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .domains import OUTER, Path, format_path
from .schemes import CurveType, Oval, RealScheme


class TraceError(ValueError):
    pass


def _region_forest(
    sign: Sequence[int], rim: Iterable[tuple[int, int]], fold: Iterable[tuple[int, int]],
    adjacency: Iterable[tuple[int, int]], odd: bool,
) -> tuple[RealScheme, dict[str, int]]:
    """The oval forest of a two-sheet region graph of component ids, as in
    the module docstring, and each region's sign by owner, well defined for
    an even curve (the antipodal map keeps it) and empty for an ``odd`` one.
    Component ``c`` has sign ``sign[c]``; rim pairs of opposite signs are
    adjacent.  Each union keeps the root of its pair's first id."""
    parent = list(range(len(sign)))

    def find(x: int) -> int:
        while x != parent[x]:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = list(adjacency)
    for a, b in rim:
        if sign[a] == sign[b]:
            parent[find(b)] = find(a)  # a union that keeps a's root
        else:
            edges.append((a, b))
    sphere = {find(c) for c in range(1, len(sign))}
    for a, b in fold:
        parent[find(b)] = find(a)
    preimages = Counter(find(c) for c in sphere)

    loops, nbrs = set(), {r: set() for r in preimages}
    for a, b in edges:
        qa, qb = find(a), find(b)
        if qa == qb:
            loops.add(qa)
        else:
            nbrs[qa].add(qb)
            nbrs[qb].add(qa)

    tree = sum(map(len, nbrs.values())) == 2 * (len(nbrs) - 1)
    if odd and (len(loops) != 1 or not tree):
        raise TraceError("odd degree curve needs exactly one one-sided component")
    if not odd and (loops or not tree):
        raise TraceError("region graph is not a tree")
    roots = loops if odd else [r for r, k in preimages.items() if k == 1]
    if len(roots) != 1:
        raise TraceError("no unique one-sided region")
    (root,) = roots
    signs: dict[str, int] = {}
    seen = {root}  # children go in ascending root id

    def build(region: int, path: Path | None) -> tuple[Oval, ...]:
        signs[format_path(path)] = sign[region]
        kids = sorted(nbrs[region] - seen)
        seen.update(kids)
        return tuple(Oval(build(c, (path or ()) + (k,))) for k, c in enumerate(kids))

    forest = RealScheme(build(root, OUTER), odd, CurveType.UNKNOWN)
    if len(seen) != len(nbrs):
        raise TraceError("region graph is disconnected")
    return forest, {} if odd else signs
