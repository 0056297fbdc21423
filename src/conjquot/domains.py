"""Region structure of the projective plane cut along a scheme's ovals.

The ovals of an even-degree scheme cut the projective plane into one
region per oval (the part of its interior outside the children) plus the
outer region.  Regions are two-colored by nesting parity; the two color
classes are the domains where the defining polynomial has constant sign.
The class not containing the outer region is orientable.  A
:class:`TrackedScheme` fixes which class is being followed.

Euler characteristics are combinatorial: the outer region contributes
``1 - #roots`` and the region inside an oval ``1 - #children``; the total
over all regions is 1, the Euler characteristic of the projective plane.
Summed over the orientable class this is the p - n count behind
Petrovskii's inequality: ovals at odd depth minus ovals at even depth.
Each oval caches its subtree's share of that count (``Oval.signed``), so
:func:`euler_W` sums over the roots alone and walks no forest.  Each
region is a disc minus its child discs, so a class has
``(#ovals + euler + [holds the outer region]) / 2`` components.
"""

from __future__ import annotations

from enum import Enum

from ._values import dataclass
from .schemes import Oval, RealScheme, plain_digits

OUTER = None  # region owner marker

Path = tuple[int, ...]


def format_path(path: Path | None) -> str:
    """``"outer"`` for the outer region, else the dotted child indices."""
    return "outer" if path is OUTER else ".".join(map(str, path))


def parse_path(text: str) -> Path | None:
    """Inverse of :func:`format_path`; raises ValueError on anything else."""
    if text == "outer":
        return OUTER
    parts = text.split(".")
    if not all(map(plain_digits, parts)):
        raise ValueError(f"bad oval path {text!r}")
    return tuple(map(int, parts))


class Side(Enum):
    TRACKED = "tracked"
    NONTRACKED = "nontracked"


class Orientability(Enum):
    ORIENTABLE = "orientable"
    NON_ORIENTABLE = "non-orientable"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class TrackedScheme:
    """A scheme of a fixed even degree with one domain class singled out.

    ``outer_tracked`` is True when the tracked class contains the outer
    region; for a nonempty scheme that class is the non-orientable one.
    """

    scheme: RealScheme
    degree: int
    outer_tracked: bool = False

    def __post_init__(self):
        if self.degree < 2 or self.degree % 2:
            raise ValueError(f"degree must be even and >= 2, got {self.degree}")

    @property
    def half_degree(self) -> int:
        return self.degree // 2

    @property
    def tracked_label(self) -> str:
        """'+' when the orientable domain is tracked, '-' otherwise."""
        return "-" if self.outer_tracked else "+"

    @property
    def quotient_label(self) -> str:
        """Label of the quotient branched along the tracked surface."""
        return "Y-" if not self.outer_tracked else "Y+"

    def is_tracked_level(self, level: int) -> bool:
        return (level % 2 == 0) == self.outer_tracked


@dataclass(frozen=True)
class Region:
    owner: Path | None  # OUTER or the path of the owning oval
    level: int
    euler: int
    tracked: bool

    def record(self) -> dict:
        return {
            "owner": format_path(self.owner),
            "level": self.level,
            "euler": self.euler,
            "tracked": self.tracked,
        }


def iter_ovals(scheme: RealScheme):
    """Yield (path, oval) pairs, depth first in stored order."""

    def walk(ovals: tuple[Oval, ...], prefix: Path):
        for i, o in enumerate(ovals):
            path = prefix + (i,)
            yield path, o
            yield from walk(o.children, path)

    yield from walk(scheme.roots, ())


def _require_two_sided(t: TrackedScheme) -> None:
    if t.scheme.pseudoline:
        raise ValueError("region structure is defined for schemes without a one-sided component")


def regions(t: TrackedScheme) -> tuple[Region, ...]:
    """One region per oval plus the outer one, with Euler data."""
    _require_two_sided(t)
    out = [
        Region(OUTER, 0, 1 - len(t.scheme.roots), t.is_tracked_level(0))
    ]
    for path, oval in iter_ovals(t.scheme):
        level = len(path)
        out.append(
            Region(path, level, 1 - len(oval.children), t.is_tracked_level(level))
        )
    return tuple(out)


def euler_W(t: TrackedScheme, side: Side = Side.TRACKED) -> int:
    _require_two_sided(t)
    chi = sum(r.signed for r in t.scheme.roots)
    return 1 - chi if side_contains_outer(t, side) else chi


def components_W(t: TrackedScheme, side: Side = Side.TRACKED) -> int:
    return (t.scheme.oval_count + euler_W(t, side) + side_contains_outer(t, side)) // 2


def side_contains_outer(t: TrackedScheme, side: Side) -> bool:
    return t.outer_tracked == (side is Side.TRACKED)


@dataclass(frozen=True)
class SurfaceDescriptor:
    """A closed surface, or one sitting in a four-manifold, by its
    numerical data."""

    euler: int
    orientability: Orientability
    components: int = 1
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.components < 0:
            raise ValueError("components must be >= 0")
        if self.components == 1:
            if self.orientability is Orientability.ORIENTABLE:
                if self.euler % 2 or self.euler > 2:
                    raise ValueError(f"no connected orientable surface has euler {self.euler}")
            if self.orientability is Orientability.NON_ORIENTABLE and self.euler > 1:
                raise ValueError(f"no connected non-orientable surface has euler {self.euler}")

    @property
    def genus(self) -> int:
        if self.orientability is not Orientability.ORIENTABLE or self.components != 1:
            raise ValueError("genus is defined for connected orientable surfaces")
        return (2 - self.euler) // 2

    def record(self) -> dict:
        rec = {
            "euler": self.euler,
            "orientability": self.orientability.value,
            "components": self.components,
        }
        if self.notes:
            rec["notes"] = list(self.notes)
        return rec


def curve_euler(degree: int) -> int:
    """Euler characteristic of a nonsingular plane curve of this degree."""
    return 2 - (degree - 1) * (degree - 2)


def real_part_X(t: TrackedScheme, covered: Side) -> tuple[SurfaceDescriptor, ...]:
    """Components of the real part of the double plane covering one domain.

    The covering is two-sheeted, glued along the boundary ovals, so every
    region of the covered class contributes one closed component of twice
    its Euler characteristic.  For odd half-degree the covering orients;
    for even half-degree the double of the outer region stays one-sided.
    With no ovals at even half-degree the sheets never meet and the plane
    lifts to two projective planes: the one case where the part count
    exceeds :func:`components_W`.
    """
    k = t.half_degree
    parts = []
    for r in regions(t):
        if r.tracked != (covered is Side.TRACKED):
            continue
        if k % 2 or r.owner is not OUTER:
            parts.append(SurfaceDescriptor(2 * r.euler, Orientability.ORIENTABLE))
        elif t.scheme.roots:
            parts.append(SurfaceDescriptor(2 * r.euler, Orientability.NON_ORIENTABLE))
        else:
            parts += [SurfaceDescriptor(1, Orientability.NON_ORIENTABLE)] * 2
    return tuple(parts)


def arnold_descriptor(t: TrackedScheme) -> SurfaceDescriptor:
    """The closed surface obtained by gluing the tracked domain to the
    curve quotient along all ovals, inside the quotient of the plane.

    Connectivity comes from the incidence of tracked regions and ovals:
    the curve quotient is connected and meets every region that has a
    boundary oval, so only a region with no boundary at all (the whole
    plane, for the empty scheme) adds a component.  Orientability is left
    undetermined; no general rule is assumed.
    """
    euler = euler_W(t, Side.TRACKED) + curve_euler(t.degree) // 2
    isolated = int(t.outer_tracked and not t.scheme.roots)
    notes = ()
    if t.scheme.is_empty:
        notes = ("real part empty: decomposition claims do not apply",)
    return SurfaceDescriptor(
        euler,
        Orientability.UNDETERMINED,
        components=isolated + 1,
        notes=notes,
    )
