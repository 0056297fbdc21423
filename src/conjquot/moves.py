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

Every rewrite moves the tracked Euler characteristic by exactly one, and
the classification follows the sign and the locus:

* birth of a tracked disc is ``M0`` and its death ``M0^-1``;
* a band move is ``M1`` when the tracked side loses Euler characteristic
  and ``M1^-1`` when it gains;
* death of a non-tracked disc is ``M2``, its birth ``M2^-1``.

Thus {M0^-1, M1, M2^-1} are the moves with delta = -1 on the tracked
side.  After any fusion the curve is of dividing type 2; every other move
leaves the type unknown.

Rewrites address ovals by index paths into the stored forest, so records
replay deterministically.  Enumeration lists one representative per
combinatorially distinct outcome (identical siblings are interchangeable).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, Sequence

from .domains import Path, Side, TrackedScheme, euler_W, format_path, iter_ovals, parse_path
from .schemes import CurveType, Oval, RealScheme, canonical_key, forest_key, subtree_key


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

FUSIONS = (FuseSiblings, FuseParentChild)
SPLITS = (SplitSibling, SplitNest)

# ------------------------------------------------------------ record codec

_KINDS = {
    "add_empty": AddEmpty,
    "delete_empty": DeleteEmpty,
    "fuse_siblings": FuseSiblings,
    "fuse_parent_child": FuseParentChild,
    "split_sibling": SplitSibling,
    "split_nest": SplitNest,
}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}

# Fields other than a single oval path, held as lists: (encode, decode).
_FIELD_CODECS = {
    "keep": (list, tuple),
    "enclosed": (
        lambda paths: [format_path(p) for p in paths],
        lambda texts: tuple(parse_path(t) for t in texts),
    ),
}
_PATH_CODEC = (format_path, parse_path)


def rewrite_record(rw: Rewrite) -> dict:
    """The external record of a rewrite: its kind, then its fields."""
    rec = {"kind": _KIND_OF[type(rw)]}
    for f in fields(rw):
        encode, _ = _FIELD_CODECS.get(f.name, _PATH_CODEC)
        rec[f.name] = encode(getattr(rw, f.name))
    return rec


def rewrite_from_record(rec: dict) -> Rewrite:
    """Inverse of :func:`rewrite_record`; a malformed record raises
    :class:`MoveError`.  Whether the rewrite applies is checked later."""
    try:
        cls = _KINDS[rec["kind"]]
        args = {}
        for f in fields(cls):
            value = rec[f.name]
            if f.name in _FIELD_CODECS and not isinstance(value, list):
                raise TypeError(f"{f.name} must be a list")
            _, decode = _FIELD_CODECS.get(f.name, _PATH_CODEC)
            args[f.name] = decode(value)
        return cls(**args)
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise MoveError(f"bad rewrite record {rec!r}: {err!r}") from None


@dataclass(frozen=True)
class MoveRecord:
    rewrite: Rewrite
    classification: Classification
    delta_chi_tracked: int

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
        return cls(rewrite, Classification(rec["classification"]), rec["delta_chi"])


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


def _edit_siblings(roots, region: Path | None, func):
    """Rebuild the forest, applying func to the sibling list of a region."""
    if region is None or region == ():
        target: Path = ()
    else:
        target = region

    def walk(ovals: tuple[Oval, ...], prefix: Path) -> tuple[Oval, ...]:
        if prefix == target:
            return tuple(func(ovals))
        if len(prefix) >= len(target):
            return ovals
        i = target[len(prefix)]
        if i >= len(ovals):
            raise MoveError(f"no region at {format_path(target)}")
        o = ovals[i]
        new = Oval(walk(o.children, prefix + (i,)))
        return ovals[:i] + (new,) + ovals[i + 1 :]

    return walk(roots, ())


def _ambient(path: Path) -> Path | None:
    return path[:-1] or None


def _apply_rewrite(scheme: RealScheme, rw: Rewrite) -> tuple[Oval, ...]:
    roots = scheme.roots
    if isinstance(rw, AddEmpty):
        if rw.region is not None:
            _get(roots, rw.region)
        return _edit_siblings(roots, rw.region, lambda sibs: sibs + (Oval(),))

    if isinstance(rw, DeleteEmpty):
        oval = _get(roots, rw.oval)
        if oval.children:
            raise MoveError("only a childless oval can be deleted")
        idx = rw.oval[-1]
        return _edit_siblings(
            roots, _ambient(rw.oval), lambda sibs: sibs[:idx] + sibs[idx + 1 :]
        )

    if isinstance(rw, FuseSiblings):
        a, b = rw.first, rw.second
        if a[:-1] != b[:-1] or a == b:
            raise MoveError("fusion needs two distinct ovals in one region")
        oa, ob = _get(roots, a), _get(roots, b)
        i, j = a[-1], b[-1]

        def fuse(sibs):
            keep = [o for k, o in enumerate(sibs) if k not in (i, j)]
            return keep + [Oval(oa.children + ob.children)]

        return _edit_siblings(roots, _ambient(a), fuse)

    if isinstance(rw, FuseParentChild):
        if rw.child[:-1] != rw.parent:
            raise MoveError("child path must extend the parent path by one step")
        parent, child = _get(roots, rw.parent), _get(roots, rw.child)
        ci = rw.child[-1]
        fused = Oval(parent.children[:ci] + parent.children[ci + 1 :])
        pi = rw.parent[-1]

        def fuse(sibs):
            out = list(sibs)
            out[pi] = fused
            out.extend(child.children)  # escape to the ambient region
            return out

        return _edit_siblings(roots, _ambient(rw.parent), fuse)

    if isinstance(rw, SplitSibling):
        oval = _get(roots, rw.oval)
        if not set(rw.keep) <= set(range(len(oval.children))):
            raise MoveError("keep indices out of range")
        keep = set(rw.keep)
        first = Oval(tuple(c for k, c in enumerate(oval.children) if k in keep))
        second = Oval(tuple(c for k, c in enumerate(oval.children) if k not in keep))
        idx = rw.oval[-1]

        def split(sibs):
            return sibs[:idx] + sibs[idx + 1 :] + (first, second)

        return _edit_siblings(roots, _ambient(rw.oval), split)

    if isinstance(rw, SplitNest):
        ambient = _ambient(rw.oval)
        for p in rw.enclosed:
            if _ambient(p) != ambient or p == rw.oval:
                raise MoveError("enclosed ovals must share the ambient region")
        if len(set(rw.enclosed)) != len(rw.enclosed):
            raise MoveError("enclosed ovals must be distinct")
        oval = _get(roots, rw.oval)
        enclosed = tuple(_get(roots, p) for p in rw.enclosed)
        drop = {p[-1] for p in rw.enclosed}
        idx = rw.oval[-1]

        def split(sibs):
            out = [o for k, o in enumerate(sibs) if k not in drop and k != idx]
            grown = Oval(oval.children + (Oval(enclosed),))
            return out + [grown]

        return _edit_siblings(roots, ambient, split)

    raise MoveError(f"unknown rewrite {rw!r}")


def _classify(t: TrackedScheme, rw: Rewrite, delta: int) -> Classification:
    if isinstance(rw, AddEmpty):
        level = 0 if rw.region is None else len(rw.region)
        return Classification.M2_INV if t.is_tracked_level(level) else Classification.M0
    if isinstance(rw, DeleteEmpty):
        disc_level = len(rw.oval)
        return Classification.M0_INV if t.is_tracked_level(disc_level) else Classification.M2
    if delta == -1:
        return Classification.M1
    if delta == 1:
        return Classification.M1_INV
    raise MoveError(f"band move with delta {delta}")


def _move(t: TrackedScheme, rw: Rewrite) -> tuple[MoveRecord, TrackedScheme]:
    """Classify a rewrite on this state; also return the state it leads to."""
    roots = _apply_rewrite(t.scheme, rw)
    curve_type = CurveType.TWO if isinstance(rw, FUSIONS) else CurveType.UNKNOWN
    after = TrackedScheme(
        RealScheme(roots, t.scheme.pseudoline, curve_type), t.degree, t.outer_tracked
    )
    delta = euler_W(after, Side.TRACKED) - euler_W(t, Side.TRACKED)
    if abs(delta) != 1:
        raise MoveError(f"rewrite changes tracked Euler characteristic by {delta}")
    cls = _classify(t, rw, delta)
    expected = -1 if cls in DECREASING else 1
    if delta != expected:
        raise MoveError(f"{cls.value} must have delta {expected}, got {delta}")
    return MoveRecord(rw, cls, delta), after


def make_move(t: TrackedScheme, rw: Rewrite) -> MoveRecord:
    """Classify a rewrite on this state and package it as a record."""
    return _move(t, rw)[0]


def apply(t: TrackedScheme, m: MoveRecord) -> TrackedScheme:
    """Apply a move; the tracked class follows through the rewrite."""
    check, after = _move(t, m.rewrite)
    if check.classification is not m.classification or check.delta_chi_tracked != m.delta_chi_tracked:
        raise MoveError(
            f"record says {m.classification.value}/{m.delta_chi_tracked}, "
            f"state gives {check.classification.value}/{check.delta_chi_tracked}"
        )
    return after


# ------------------------------------------------------------ enumeration


def _sibling_paths(scheme: RealScheme, region: Path | None) -> list[Path]:
    prefix = () if region is None else region
    sibs = scheme.roots if region is None else _get(scheme.roots, region).children
    return [prefix + (i,) for i in range(len(sibs))]


def _grouped_subsets(items: Sequence[tuple[Path, str]]) -> Iterable[tuple[Path, ...]]:
    """Subsets of addressed ovals, one per multiset of subtree shapes."""
    groups: dict[str, list[Path]] = {}
    for path, key in items:
        groups.setdefault(key, []).append(path)
    keys = sorted(groups)

    def rec(i: int) -> Iterable[tuple[Path, ...]]:
        if i == len(keys):
            yield ()
            return
        paths = groups[keys[i]]
        for rest in rec(i + 1):
            for n in range(len(paths) + 1):
                yield tuple(paths[:n]) + rest

    return rec(0)


def enumerate_moves(t: TrackedScheme) -> list[MoveRecord]:
    """All applicable rewrites, deduplicated up to identical-sibling
    symmetry, in a deterministic order."""
    scheme = t.scheme
    ovals = list(iter_ovals(scheme))
    regions = [None, *(path for path, _ in ovals)]
    candidates: list[Rewrite] = []

    for region in regions:
        candidates.append(AddEmpty(region))

    for path, oval in ovals:
        if not oval.children:
            candidates.append(DeleteEmpty(path))

    for region in regions:
        sibs = _sibling_paths(scheme, region)
        for i in range(len(sibs)):
            for j in range(i + 1, len(sibs)):
                candidates.append(FuseSiblings(sibs[i], sibs[j]))

    for path, oval in ovals:
        for ci in range(len(oval.children)):
            candidates.append(FuseParentChild(path, path + (ci,)))

    for path, oval in ovals:
        n = len(oval.children)
        child_keys = [subtree_key(c) for c in oval.children]
        seen_parts = set()
        for mask in range(2 ** n):
            keep = tuple(i for i in range(n) if mask >> i & 1)
            rest = tuple(i for i in range(n) if not mask >> i & 1)
            part_key = frozenset(
                (
                    tuple(sorted(child_keys[i] for i in keep)),
                    tuple(sorted(child_keys[i] for i in rest)),
                )
            )
            if part_key in seen_parts:
                continue
            seen_parts.add(part_key)
            candidates.append(SplitSibling(path, keep))

    for path, oval in ovals:
        region = _ambient(path)
        neighbours = [
            (p, subtree_key(_get(scheme.roots, p)))
            for p in _sibling_paths(scheme, region)
            if p != path
        ]
        for subset in _grouped_subsets(neighbours):
            candidates.append(SplitNest(path, subset))

    moves = []
    seen: set[tuple[str, str, Classification]] = set()
    for rw in candidates:
        m, after = _move(t, rw)
        key = (type(rw).__name__, canonical_key(after.scheme), m.classification)
        if key in seen:
            continue
        seen.add(key)
        moves.append(m)
    return moves


def inverse_move(t: TrackedScheme, m: MoveRecord) -> MoveRecord:
    """The move on apply(t, m) that restores the forest of t."""
    after = apply(t, m)
    rw = m.rewrite
    inv: Rewrite
    if isinstance(rw, AddEmpty):
        inv = DeleteEmpty(_sibling_paths(after.scheme, rw.region)[-1])
    elif isinstance(rw, DeleteEmpty):
        inv = AddEmpty(_ambient(rw.oval))
    elif isinstance(rw, FuseSiblings):
        oa = _get(t.scheme.roots, rw.first)
        merged = _sibling_paths(after.scheme, _ambient(rw.first))[-1]
        inv = SplitSibling(merged, tuple(range(len(oa.children))))
    elif isinstance(rw, FuseParentChild):
        region = _ambient(rw.parent)
        n_before = len(_sibling_paths(t.scheme, region))
        escaped = tuple(_sibling_paths(after.scheme, region)[n_before:])
        inv = SplitNest(rw.parent, escaped)
    elif isinstance(rw, SplitSibling):
        *_, first, second = _sibling_paths(after.scheme, _ambient(rw.oval))
        inv = FuseSiblings(first, second)
    elif isinstance(rw, SplitNest):
        grown = _sibling_paths(after.scheme, _ambient(rw.oval))[-1]
        oval = _get(t.scheme.roots, rw.oval)
        inv = FuseParentChild(grown, grown + (len(oval.children),))
    else:
        raise MoveError(f"unknown rewrite {rw!r}")
    record, back = _move(after, inv)
    if forest_key(back.scheme) != forest_key(t.scheme):
        raise MoveError("inverse does not restore the forest")
    return record


# ----------------------------------------------------------- effect ledger


@dataclass(frozen=True)
class EffectRecord:
    arnold_effect: str
    y_effect: str
    xr_effect: str

    def record(self) -> dict:
        return {
            "arnold_effect": self.arnold_effect,
            "y_effect": self.y_effect,
            "xr_effect": self.xr_effect,
        }


_FORWARD_EFFECTS = {
    Classification.M0_INV: EffectRecord(
        "# RP2bar (real blow-up)", "# CP2bar (blow-up)", "Morse index 2"
    ),
    Classification.M1: EffectRecord(
        "# RP2bar (real blow-up)", "# CP2bar (blow-up)", "Morse index 2"
    ),
    Classification.M2: EffectRecord(
        "real rational blow-down",
        "rational blow-down of degree 2",
        "Morse index 3 (sphere component dies)",
    ),
}

_OPPOSITE_EFFECTS = {
    Classification.M0: EffectRecord(
        "split off RP2bar (inverse real blow-up)",
        "split off CP2bar (blow-down)",
        "Morse index 1",
    ),
    Classification.M1_INV: EffectRecord(
        "split off RP2bar (inverse real blow-up)",
        "split off CP2bar (blow-down)",
        "Morse index 1",
    ),
    Classification.M2_INV: EffectRecord(
        "inverse real rational blow-down",
        "inverse rational blow-down of degree 2",
        "Morse index 0 (sphere component born)",
    ),
}


def ledger_effect(c: Classification) -> EffectRecord:
    """Symbolic effect of a move on the Arnold surface, the quotient and
    the real part; inverse classifications carry the formal opposites."""
    if c in _FORWARD_EFFECTS:
        return _FORWARD_EFFECTS[c]
    return _OPPOSITE_EFFECTS[c]


# --------------------------------------------------- logarithmic transforms


@dataclass(frozen=True)
class LogTransformEvent:
    fuse_step: int
    delete_step: int
    note: str = "log transform multiplicity 2 along torus component of X_R"

    def record(self) -> dict:
        return {
            "fuse_step": self.fuse_step,
            "delete_step": self.delete_step,
            "note": self.note,
        }


def _transport(path: Path, rw: Rewrite) -> Path | None:
    """Follow an untouched oval's path through a rewrite; None if the
    rewrite involves it or an ancestor."""

    def shifted(p: Path, region: Path | None, removed: list[int]) -> Path:
        prefix = () if region is None else region
        d = len(prefix)
        idx = p[d]
        shift = sum(1 for r in removed if r < idx)
        return p[:d] + (idx - shift,) + p[d + 1 :]

    def in_region(p: Path, region: Path | None) -> bool:
        prefix = () if region is None else region
        return len(p) > len(prefix) and p[: len(prefix)] == prefix

    if isinstance(rw, AddEmpty):
        return path  # appended at the end, nothing shifts
    if isinstance(rw, DeleteEmpty):
        if path == rw.oval:
            return None
        if in_region(path, _ambient(rw.oval)):
            return shifted(path, _ambient(rw.oval), [rw.oval[-1]])
        return path
    if isinstance(rw, (FuseSiblings, FuseParentChild, SplitSibling, SplitNest)):
        touched = {
            FuseSiblings: lambda r: [r.first, r.second],
            FuseParentChild: lambda r: [r.parent],
            SplitSibling: lambda r: [r.oval],
            SplitNest: lambda r: [r.oval, *r.enclosed],
        }[type(rw)](rw)
        for tp in touched:
            if path[: len(tp)] == tp:
                return None
        if isinstance(rw, FuseParentChild):
            return path  # fused oval replaces the parent in place
        region = _ambient(touched[0])
        if in_region(path, region):
            return shifted(path, region, sorted(p[-1] for p in touched))
        return path
    return None


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
        survivors = []
        for start, path in pending:
            if (
                isinstance(rw, DeleteEmpty)
                and move.classification is Classification.M2
                and rw.oval == path
            ):
                events.append(LogTransformEvent(start, step))
                continue
            moved = _transport(path, rw)
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
            fused_path = rw.parent
            pending.append((step, fused_path))
    return events


def trace_records(
    start: TrackedScheme, moves: Iterable[MoveRecord]
) -> list[dict]:
    """Serialized move trace in the external record format."""
    out = []
    state = start
    for step, m in enumerate(moves):
        eff = ledger_effect(m.classification)
        rec = {"step": step, **m.record(), **eff.record()}
        rec["scheme_before"] = str(state.scheme)
        state = apply(state, m)
        rec["scheme_after"] = str(state.scheme)
        out.append(rec)
    return out
