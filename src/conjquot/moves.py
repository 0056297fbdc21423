"""Elementary moves on tracked schemes.

A generic one-parameter family of curves crosses the wall of singular
curves at isolated nodes, and each crossing rewrites the oval forest in
one of six ways:

* ``AddEmpty`` / ``DeleteEmpty``     an empty oval is born in a region, or
  a childless oval dies (solitary node);
* ``FuseSiblings`` / ``SplitSibling``  two ovals sharing an ambient region
  merge through a cross node, or one oval splits into two siblings with
  its children divided between them;
* ``FuseParentChild`` / ``SplitNest``  an oval merges with one of its
  children (the child's own children escape to the ambient region), or an
  oval grows a new child around a chosen set of its neighbours.

A seventh kind is left out: a top-level oval turned inside out.  Its
children move to the top level and its former siblings become its
children; the oval count stays the same and the tracked side flips.
``enumerate_moves`` does not list it, because every listed move keeps the
side, and ``relation_search``'s bound relies on that.  The sweep's axiom
edge ``<9>_2+`` -> ``<1<8>>_1-`` is such a flip.

Every rewrite moves the tracked Euler characteristic by exactly one, and
the classification follows the sign and the locus:

* birth of a tracked disc is ``M0`` and its death ``M0^-1``;
* a band move is ``M1`` when the tracked side loses Euler characteristic
  and ``M1^-1`` when it gains;
* death of a non-tracked disc is ``M2``, its birth ``M2^-1``.

A kind's class, in the kind table :data:`KINDS`, is read off the depth
parity of the level it changes before it applies; the result's chi checks it.

Thus {M0^-1, M1, M2^-1} are the moves with delta = -1 on the tracked
side.  After any fusion the curve is of dividing type 2; every other move
leaves the type unknown.

Rewrites address ovals by index paths into the stored forest, so records
replay deterministically.  Each rewrite is one edit of one sibling list:
it drops some siblings, may rebuild one in place (only a parent-child
fusion does) and appends new ovals, each described by its children.
Application and key splicing (one splice, two readers), classification,
the enumeration filter, path transport and inversion all read that one
description.  Enumeration lists one representative per distinct
outcome: it skips a candidate that a swap of identical siblings maps onto
an earlier one, and never generates a family of a class not asked for.
It dedupes the rest on the successor's forest key, spliced from cached
keys with no oval built, and lets its caller refuse a candidate on that
key; only the listed moves are built, each carrying its successor.  That
dedupe alone picks a sibling split's keep set: of a keep set and its
complement, which split alike, the one of least mask comes first.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, chain, product
from operator import getitem
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

from ._values import asdict, dataclass, field, fields
from .domains import OUTER, Path, Side, TrackedScheme, euler_W, format_path, parse_path
# canonical_key is not called here; perfbench's key span hooks this module's name.
from .schemes import CurveType, Oval, RealScheme, canonical_key, forest_key, tree_key


class Classification(Enum):
    M0 = "M0"
    M0_INV = "M0^-1"
    M1 = "M1"
    M1_INV = "M1^-1"
    M2 = "M2"
    M2_INV = "M2^-1"

    @property
    def inverse(self) -> "Classification":
        return _INVERSE[self]


_INVERSE = {
    Classification.M0: Classification.M0_INV,
    Classification.M0_INV: Classification.M0,
    Classification.M1: Classification.M1_INV,
    Classification.M1_INV: Classification.M1,
    Classification.M2: Classification.M2_INV,
    Classification.M2_INV: Classification.M2,
}

DECREASING = frozenset(
    {Classification.M0_INV, Classification.M1, Classification.M2_INV}
)
ALL_CLASSES = frozenset(Classification)


class MoveError(ValueError):
    pass


@dataclass(frozen=True)
class AddEmpty:
    region: Path | None  # owning oval, or None for the outer region


@dataclass(frozen=True)
class DeleteEmpty:
    oval: Path


@dataclass(frozen=True)
class FuseSiblings:
    first: Path
    second: Path


@dataclass(frozen=True)
class FuseParentChild:
    parent: Path
    child: Path


@dataclass(frozen=True)
class SplitSibling:
    oval: Path
    keep: tuple[int, ...]  # child indices staying with the first copy


@dataclass(frozen=True)
class SplitNest:
    oval: Path
    enclosed: tuple[Path, ...]  # neighbours pulled inside the new child


Rewrite = AddEmpty | DeleteEmpty | FuseSiblings | FuseParentChild | SplitSibling | SplitNest

# One row per rewrite kind: its record name, its level as a depth below
# its edited list, its class at a tracked level and at another, and its
# change of oval count.  The level is the one a birth or death changes, or
# that a band move takes Euler characteristic from: the fused ovals'
# interiors, a sibling split's region, a nest split's oval.
BAND = (Classification.M1, Classification.M1_INV)
KINDS = {
    AddEmpty: ("add_empty", 0, Classification.M2_INV, Classification.M0, 1),
    DeleteEmpty: ("delete_empty", 1, Classification.M0_INV, Classification.M2, -1),
    FuseSiblings: ("fuse_siblings", 1, *BAND, -1),
    FuseParentChild: ("fuse_parent_child", 2, *BAND, -1),
    SplitSibling: ("split_sibling", 0, *BAND, 1),
    SplitNest: ("split_nest", 1, *BAND, 1),
}
# A band move fuses two ovals into one or splits one in two.
FUSIONS = tuple(k for k, row in KINDS.items() if row[2:4] == BAND and row[4] < 0)
SPLITS = tuple(k for k, row in KINDS.items() if row[2:4] == BAND and row[4] > 0)

# ------------------------------------------------------------ record codec

_NAMED = {row[0]: kind for kind, row in KINDS.items()}


def _indices(values: list) -> tuple[int, ...]:
    """Decode sibling indices: ints only, and a bool is not one."""
    if any(type(v) is not int for v in values):
        raise TypeError(f"indices must be integers, got {values!r}")
    return tuple(values)


# Fields other than a single oval path, held as lists: (encode, decode).
_FIELD_CODECS = {
    "keep": (list, _indices),
    "enclosed": (
        lambda paths: [format_path(p) for p in paths],
        lambda texts: tuple(parse_path(t) for t in texts),
    ),
}
_PATH_CODEC = (format_path, parse_path)


def rewrite_record(rw: Rewrite) -> dict:
    """The external record of a rewrite: its kind, then its fields."""
    rec = {"kind": KINDS[type(rw)][0]}
    for f in fields(rw):
        encode, _ = _FIELD_CODECS.get(f.name, _PATH_CODEC)
        rec[f.name] = encode(getattr(rw, f.name))
    return rec


def rewrite_from_record(rec: dict) -> Rewrite:
    """Inverse of :func:`rewrite_record`; a malformed record raises
    :class:`MoveError`.  Whether the rewrite applies is checked later."""
    try:
        cls = _NAMED[rec["kind"]]
        args = {}
        for f in fields(cls):
            value = rec[f.name]
            if f.name in _FIELD_CODECS and not isinstance(value, list):
                raise TypeError(f"{f.name} must be a list")
            _, decode = _FIELD_CODECS.get(f.name, _PATH_CODEC)
            args[f.name] = decode(value)
        if cls is not AddEmpty and OUTER in (*args.values(), *args.get("enclosed", ())):
            raise ValueError("only add_empty's region may be 'outer'")
        return cls(**args)
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise MoveError(f"bad rewrite record {rec!r}: {err!r}") from None


@dataclass(frozen=True)
class MoveRecord:
    rewrite: Rewrite
    classification: Classification
    delta_chi_tracked: int
    # The state the move leads to from the state it was made on; None on a
    # decoded record.  It takes no part in equality, hashing or record().
    successor: TrackedScheme | None = field(default=None, compare=False, repr=False)

    def record(self) -> dict:
        return {
            "rewrite": rewrite_record(self.rewrite),
            "classification": self.classification.value,
            "delta_chi": self.delta_chi_tracked,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "MoveRecord":
        """Inverse of :meth:`record`; raises KeyError or ValueError on a
        malformed record."""
        rewrite = rewrite_from_record(rec["rewrite"])
        delta = rec["delta_chi"]
        if type(delta) is not int:
            raise MoveError(f"delta_chi must be an integer, got {delta!r}")
        return cls(rewrite, Classification(rec["classification"]), delta)


# ---------------------------------------------------------------- surgery


def _get(roots: tuple[Oval, ...], path: Path) -> Oval:
    node: Oval | None = None
    siblings = roots
    for i in path:
        if i >= len(siblings):
            raise MoveError(f"no oval at path {format_path(path)}")
        node = siblings[i]
        siblings = node.children
    if node is None:
        raise MoveError("empty path does not address an oval")
    return node


def _siblings(roots: tuple[Oval, ...], region: Path) -> tuple[Oval, ...]:
    return _get(roots, region).children if region else roots


def _edit(
    roots: tuple[Oval, ...], rw: Rewrite
) -> tuple[Path, set[int], dict[int, tuple[Oval, ...]], tuple[tuple[Oval, ...], ...]]:
    """A rewrite as one edit of one sibling list: ``(region, drop, rebuilt,
    added)`` drops the siblings indexed by ``drop`` from the list under
    ``region``, replaces sibling ``k`` by an oval with children ``rebuilt[k]``
    and appends an oval for each children tuple in ``added``.  Only a nest
    split's inner oval is built here: readers build the rest or key them."""
    if isinstance(rw, AddEmpty):
        if rw.region is not None:
            _get(roots, rw.region)
        return rw.region or (), set(), {}, ((),)

    if isinstance(rw, DeleteEmpty):
        if _get(roots, rw.oval).children:
            raise MoveError("only a childless oval can be deleted")
        return rw.oval[:-1], {rw.oval[-1]}, {}, ()

    if isinstance(rw, FuseSiblings):
        a, b = rw.first, rw.second
        if a[:-1] != b[:-1] or a == b:
            raise MoveError("fusion needs two distinct ovals in one region")
        oa, ob = _get(roots, a), _get(roots, b)
        return a[:-1], {a[-1], b[-1]}, {}, (oa.children + ob.children,)

    if isinstance(rw, FuseParentChild):
        if rw.child[:-1] != rw.parent:
            raise MoveError("child path must extend the parent path by one step")
        parent, child = _get(roots, rw.parent), _get(roots, rw.child)
        ci = rw.child[-1]
        fused = parent.children[:ci] + parent.children[ci + 1 :]
        # the child's own children escape to the ambient region
        return rw.parent[:-1], set(), {rw.parent[-1]: fused}, tuple(c.children for c in child.children)

    if isinstance(rw, SplitSibling):
        oval = _get(roots, rw.oval)
        keep = set(rw.keep)
        if not keep <= set(range(len(oval.children))):
            raise MoveError("keep indices out of range")
        if len(keep) != len(rw.keep):
            raise MoveError("keep indices must be distinct")
        first = tuple(c for k, c in enumerate(oval.children) if k in keep)
        second = tuple(c for k, c in enumerate(oval.children) if k not in keep)
        return rw.oval[:-1], {rw.oval[-1]}, {}, (first, second)

    if isinstance(rw, SplitNest):
        region = rw.oval[:-1]
        for p in rw.enclosed:
            if p[:-1] != region or p == rw.oval:
                raise MoveError("enclosed ovals must share the ambient region")
        if len(set(rw.enclosed)) != len(rw.enclosed):
            raise MoveError("enclosed ovals must be distinct")
        oval = _get(roots, rw.oval)
        enclosed = tuple(_get(roots, p) for p in rw.enclosed)
        drop = {rw.oval[-1], *(p[-1] for p in rw.enclosed)}
        return region, drop, {}, (oval.children + (Oval(enclosed),),)

    raise MoveError(f"unknown rewrite {rw!r}")


def _splice(roots: tuple[Oval, ...], edit: tuple, node: Callable, read: Callable) -> list:
    """The successor's top-level list under an ``_edit`` description, as
    values: ``read`` gives a sibling tuple's values, and ``node`` a new oval's
    from its children's.  Only the edited list and its ancestors are walked;
    ``_BUILD`` gives ovals and ``_KEY`` keys spliced from cached ones."""
    region, drop, rebuilt, added = edit
    lists = list(accumulate(region, lambda sibs, i: sibs[i].children, initial=roots))
    out = [node(read(rebuilt[k])) if k in rebuilt else v
           for k, v in enumerate(read(lists.pop())) if k not in drop]
    out += (node(read(kids)) for kids in added)
    for i in reversed(region):
        out = [node(tuple(out)) if k == i else v for k, v in enumerate(read(lists.pop()))]
    return out


_BUILD = (Oval, tuple)
_KEY = (tree_key, lambda sibs: [o.key for o in sibs])


def _successor_key(roots: tuple[Oval, ...], rw: Rewrite) -> str:
    """The forest key of the successor :func:`make_move` would build."""
    return "".join(sorted(_splice(roots, _edit(roots, rw), *_KEY)))


def _class_at(t: TrackedScheme, kind: type, region: Path) -> Classification:
    _, level, tracked, other, _ = KINDS[kind]
    return tracked if t.is_tracked_level(len(region) + level) else other


def type_after(rw: Rewrite) -> CurveType:
    """A successor's dividing type: 2 after a fusion, otherwise unknown."""
    return CurveType.TWO if isinstance(rw, FUSIONS) else CurveType.UNKNOWN


def make_move(t: TrackedScheme, rw: Rewrite) -> MoveRecord:
    """Classify a rewrite on this state, checked by the successor's Euler
    characteristic; the record carries the successor."""
    edit = _edit(t.scheme.roots, rw)
    roots = tuple(_splice(t.scheme.roots, edit, *_BUILD))
    after = TrackedScheme(
        RealScheme(roots, t.scheme.pseudoline, type_after(rw)), t.degree, t.outer_tracked
    )
    delta = euler_W(after, Side.TRACKED) - euler_W(t, Side.TRACKED)
    cls = _class_at(t, type(rw), edit[0])
    expected = -1 if cls in DECREASING else 1
    if delta != expected:
        raise MoveError(f"{cls.value} must have delta {expected}, got {delta}")
    return MoveRecord(rw, cls, delta, after)


def apply(t: TrackedScheme, m: MoveRecord) -> TrackedScheme:
    """Apply a move; the tracked class follows through the rewrite."""
    check = make_move(t, m.rewrite)
    if check.classification is not m.classification or check.delta_chi_tracked != m.delta_chi_tracked:
        raise MoveError(
            f"record says {m.classification.value}/{m.delta_chi_tracked}, "
            f"state gives {check.classification.value}/{check.delta_chi_tracked}"
        )
    return check.successor


# ------------------------------------------------------------ enumeration


def _grouped_subsets(items: Sequence[tuple[object, str]]) -> Iterator[tuple]:
    """Subsets of items, one per multiset of shapes: the first n of each
    shape, shapes in key order, the first shape's count varying fastest."""
    groups: dict[str, list] = {}
    for item, key in items:
        groups.setdefault(key, []).append(item)
    if not groups:
        yield ()
        return
    first, *rest = [tuple(g) for _, g in sorted(groups.items())]
    # product varies its last factor fastest: give it the shapes reversed
    for counts in product(*[range(len(g) + 1) for g in reversed(rest)]):
        tail = tuple(chain.from_iterable(map(getitem, rest, map(slice, reversed(counts)))))
        for n in range(len(first) + 1):
            yield first[:n] + tail


def _keep_sets(kids: tuple[Oval, ...]) -> Iterator[tuple[int, ...]]:
    """A sibling split's keep sets, one per multiset of shapes (the first
    children of each shape), in mask order with no mask built.  The next
    set adds the lowest child the last one left out and keeps every kept
    child above it; below it, it keeps exactly the children of the shapes
    it keeps, that child's among them."""
    shapes = [c.key for c in kids]
    keep: tuple[int, ...] = ()
    while True:
        yield keep
        i = next((k for k, kept in enumerate(keep) if k != kept), len(keep))
        if i == len(kids):
            return
        above = keep[i:]
        live = {shapes[k] for k in above} | {shapes[i]}
        keep = (*(k for k in range(i) if shapes[k] in live), i, *above)


def _ranks(siblings: tuple[Oval, ...]) -> list[int]:
    """For each sibling, how many earlier siblings have its shape."""
    seen: dict[str, int] = {}
    ranks = []
    for o in siblings:
        ranks.append(seen.get(o.key, 0))
        seen[o.key] = ranks[-1] + 1
    return ranks


def _canonical_ovals(siblings: tuple[Oval, ...], prefix: Path = ()):
    """Yield (path, oval) pairs depth first in stored order, over the
    canonical paths only: those on which no oval has an earlier sibling of
    its shape.  Every oval is the image of exactly one canonical oval under
    swaps of identical siblings, and that one comes first."""
    for i, (o, rank) in enumerate(zip(siblings, _ranks(siblings))):
        if not rank:
            path = prefix + (i,)
            yield path, o
            yield from _canonical_ovals(o.children, path)


def enumerate_moves(
    t: TrackedScheme, allowed: frozenset[Classification] = ALL_CLASSES, *, splits: bool = True,
    keep: Callable[[Rewrite, str], bool] | None = None, depth_cap: int | None = None,
) -> list[MoveRecord]:
    """All applicable rewrites of a class in ``allowed`` (no split unless
    ``splits``), deduplicated up to identical-sibling symmetry, in a
    deterministic order.

    A candidate is skipped before it is built when a swap of identical
    siblings maps it onto an earlier candidate: single-oval rewrites
    address canonical paths only, a fusion takes the first pair of each
    pair of shapes, and a split keeps the first ovals of each shape.  A
    family whose class, read off depth parity, is not allowed is never
    generated (births in a region, deaths of an oval, fusions in a region
    or with a child, splits at a level).  A dedupe on the kind and the
    spliced successor forest key, which fix the class, drops coincidences
    no symmetry explains, so the list is each outcome's first candidate,
    as without pruning, and alone picks each sibling split's keep set, of
    it and its complement the one of least mask.  Each candidate is deduped
    as it is generated, so no candidate list is held, and the dedupe set
    starts afresh at each kind: a kind's candidates come out together.  Only
    listed moves are built.  ``keep(rewrite, key)``, if given, is asked
    first; a refused candidate is not listed.

    ``depth_cap``, if given, leaves out candidates whose successor nests
    deeper than it: births at a level at or below the cap, nest splits of
    an oval at level L with L + 1 > cap, and their non-empty enclosures
    with L + 2 > cap.  For a caller whose ``keep`` refuses every successor
    deeper than the cap the list is unchanged: a candidate left out can
    only have deduped candidates of its kind and key, which share its
    successor and are refused.
    """
    roots = t.scheme.roots
    ovals = list(_canonical_ovals(roots))
    regions = [(), *(path for path, _ in ovals)]
    cap = float("inf") if depth_cap is None else depth_cap

    def allows(kind: type, region: Path) -> bool:
        return _class_at(t, kind, region) in allowed

    def candidates() -> Iterator[Rewrite]:
        for region in regions:
            if len(region) < cap and allows(AddEmpty, region):
                yield AddEmpty(region or None)

        for path, oval in ovals:
            if not oval.children and allows(DeleteEmpty, path[:-1]):
                yield DeleteEmpty(path)

        for region in regions:
            if not allows(FuseSiblings, region):
                continue
            sibs = _siblings(roots, region)
            ranks = _ranks(sibs)
            for i in range(len(sibs)):
                if ranks[i]:
                    continue
                for j in range(i + 1, len(sibs)):
                    if not ranks[j] or (ranks[j] == 1 and sibs[j].key == sibs[i].key):
                        yield FuseSiblings(region + (i,), region + (j,))

        for path, oval in ovals:
            if allows(FuseParentChild, path[:-1]):
                for ci, rank in enumerate(_ranks(oval.children)):
                    if not rank:
                        yield FuseParentChild(path, path + (ci,))

        if not splits:
            return
        for path, oval in ovals:
            # No rule skips a keep set's complement: timed, it cost what it saved.
            if allows(SplitSibling, path[:-1]):
                for kept in _keep_sets(oval.children):
                    yield SplitSibling(path, kept)

        for path, _ in ovals:
            region = path[:-1]
            if len(path) + 1 > cap or not allows(SplitNest, region):
                continue
            if len(path) + 2 > cap:  # the new child encloses nothing
                yield SplitNest(path, ())
                continue
            neighbours = [
                (region + (k,), o.key)
                for k, o in enumerate(_siblings(roots, region))
                if k != path[-1]
            ]
            for subset in _grouped_subsets(neighbours):
                yield SplitNest(path, subset)

    moves = []
    kind, seen = None, set()
    for rw in candidates():
        if type(rw) is not kind:
            kind, seen = type(rw), set()
        fk = _successor_key(roots, rw)
        if fk in seen:
            continue
        seen.add(fk)
        if keep is None or keep(rw, fk):
            moves.append(make_move(t, rw))
    return moves


def inverse_move(t: TrackedScheme, m: MoveRecord) -> MoveRecord:
    """The move on apply(t, m) that restores the forest of t."""
    after = apply(t, m)
    rw = m.rewrite
    region, drop, _, added = _edit(t.scheme.roots, rw)
    n = len(_siblings(t.scheme.roots, region)) - len(drop) + len(added)
    appended = tuple(region + (k,) for k in range(n - len(added), n))
    inv: Rewrite
    if isinstance(rw, AddEmpty):
        inv = DeleteEmpty(appended[0])
    elif isinstance(rw, DeleteEmpty):
        inv = AddEmpty(region or None)
    elif isinstance(rw, FuseSiblings):
        oa = _get(t.scheme.roots, rw.first)
        inv = SplitSibling(appended[0], tuple(range(len(oa.children))))
    elif isinstance(rw, FuseParentChild):
        inv = SplitNest(rw.parent, appended)
    elif isinstance(rw, SplitSibling):
        inv = FuseSiblings(*appended)
    else:  # SplitNest
        grown, oval = appended[0], _get(t.scheme.roots, rw.oval)
        inv = FuseParentChild(grown, grown + (len(oval.children),))
    record = make_move(after, inv)
    if forest_key(record.successor.scheme) != forest_key(t.scheme):
        raise MoveError("inverse does not restore the forest")
    return record


# ----------------------------------------------------------- effect ledger


@dataclass(frozen=True)
class EffectRecord:
    arnold_effect: str
    y_effect: str
    xr_effect: str

    def record(self) -> dict:
        return asdict(self)


_BLOW_UP = EffectRecord("# RP2bar (real blow-up)", "# CP2bar (blow-up)", "Morse index 2")
_BLOW_DOWN = EffectRecord(
    "split off RP2bar (inverse real blow-up)",
    "split off CP2bar (blow-down)",
    "Morse index 1",
)
_EFFECTS = {
    Classification.M0_INV: _BLOW_UP,
    Classification.M1: _BLOW_UP,
    Classification.M2: EffectRecord(
        "real rational blow-down",
        "rational blow-down of degree 2",
        "Morse index 3 (sphere component dies)",
    ),
    Classification.M0: _BLOW_DOWN,
    Classification.M1_INV: _BLOW_DOWN,
    Classification.M2_INV: EffectRecord(
        "inverse real rational blow-down",
        "inverse rational blow-down of degree 2",
        "Morse index 0 (sphere component born)",
    ),
}


def ledger_effect(c: Classification) -> EffectRecord:
    """Symbolic effect of a move on the Arnold surface, the quotient and
    the real part; inverse classifications carry the formal opposites."""
    return _EFFECTS[c]


# --------------------------------------------------- logarithmic transforms


@dataclass(frozen=True)
class LogTransformEvent:
    fuse_step: int
    delete_step: int
    note: ClassVar[str] = "log transform multiplicity 2 along torus component of X_R"

    def record(self) -> dict:
        return {**asdict(self), "note": self.note}


def _transport(
    path: Path, region: Path, drop: set[int], rebuilt: dict[int, tuple[Oval, ...]]
) -> Path | None:
    """Follow an oval's path through a sibling-list edit; None if the edit
    drops or rebuilds the oval or an ancestor."""
    d = len(region)
    if len(path) <= d or path[:d] != region:
        return path
    i = path[d]
    if i in drop or i in rebuilt:
        return None
    return path[:d] + (i - sum(1 for k in drop if k < i),) + path[d + 1 :]


def detect_log_transform(
    steps: Sequence[tuple[TrackedScheme, MoveRecord]]
) -> list[LogTransformEvent]:
    """Find fuse-then-delete pairs that kill an annulus of the non-tracked
    class: an M1 fusion of an oval with its only child, followed by an M2
    death of the very oval that fusion produced."""
    events = []
    pending: list[tuple[int, Path]] = []  # (fuse step, current path of product)
    for step, (state, move) in enumerate(steps):
        rw = move.rewrite
        region, drop, rebuilt, _ = _edit(state.scheme.roots, rw)
        survivors = []
        for start, path in pending:
            if (
                isinstance(rw, DeleteEmpty)
                and move.classification is Classification.M2
                and rw.oval == path
            ):
                events.append(LogTransformEvent(start, step))
                continue
            moved = _transport(path, region, drop, rebuilt)
            if moved is not None:
                survivors.append((start, moved))
        pending = survivors
        if (
            isinstance(rw, FuseParentChild)
            and move.classification is Classification.M1
            and len(_get(state.scheme.roots, rw.parent).children) == 1
            and not state.is_tracked_level(len(rw.parent))
        ):
            # The region between parent and child is a non-tracked annulus.
            pending.append((step, rw.parent))
    return events


def trace_records(states: Sequence[TrackedScheme], moves: Iterable[MoveRecord]) -> list[dict]:
    """Serialized move trace in the external record format; move i leads
    from ``states[i]`` to ``states[i + 1]``."""
    return [
        {
            "step": step,
            **m.record(),
            **ledger_effect(m.classification).record(),
            "scheme_before": str(before.scheme),
            "scheme_after": str(after.scheme),
        }
        for step, (m, before, after) in enumerate(zip(moves, states, states[1:]))
    ]
