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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .schemes import Oval, RealScheme

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
    if not all(p.isdigit() for p in parts):
        raise ValueError(f"bad oval path {text!r}")
    return tuple(map(int, parts))


class Side(Enum):
    TRACKED = "tracked"
    NONTRACKED = "nontracked"

    @property
    def other(self) -> "Side":
        return Side.NONTRACKED if self is Side.TRACKED else Side.TRACKED


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


@dataclass(frozen=True)
class RegionSet:
    regions: tuple[Region, ...]

    def __iter__(self):
        return iter(self.regions)

    def side(self, tracked: bool) -> tuple[Region, ...]:
        return tuple(r for r in self.regions if r.tracked == tracked)

    def records(self) -> list[dict]:
        return [r.record() for r in self.regions]


def iter_ovals(scheme: RealScheme):
    """Yield (path, oval) pairs, depth first in stored order."""

    def walk(ovals: tuple[Oval, ...], prefix: Path):
        for i, o in enumerate(ovals):
            path = prefix + (i,)
            yield path, o
            yield from walk(o.children, path)

    yield from walk(scheme.roots, ())


def regions(t: TrackedScheme) -> RegionSet:
    """One region per oval plus the outer one, with Euler data."""
    if t.scheme.pseudoline:
        raise ValueError("region structure is defined for schemes without a one-sided component")
    out = [
        Region(OUTER, 0, 1 - len(t.scheme.roots), t.is_tracked_level(0))
    ]
    for path, oval in iter_ovals(t.scheme):
        level = len(path)
        out.append(
            Region(path, level, 1 - len(oval.children), t.is_tracked_level(level))
        )
    return RegionSet(tuple(out))


def euler_W(t: TrackedScheme, side: Side = Side.TRACKED) -> int:
    tracked = side is Side.TRACKED
    return sum(r.euler for r in regions(t).side(tracked))


def components_W(t: TrackedScheme, side: Side = Side.TRACKED) -> int:
    tracked = side is Side.TRACKED
    return len(regions(t).side(tracked))


def side_contains_outer(t: TrackedScheme, side: Side) -> bool:
    return t.outer_tracked == (side is Side.TRACKED)


def side_orientable(t: TrackedScheme, side: Side) -> bool:
    """The class with the outer region holds the one-sided core of the
    plane, hence is never orientable; the other class always is."""
    return not side_contains_outer(t, side)


@dataclass(frozen=True)
class SurfaceDescriptor:
    """A closed surface, or one sitting in a four-manifold, by its
    numerical data.  ``normal_data`` lists normal Euler numbers when the
    surface is embedded somewhere."""

    euler: int
    orientability: Orientability
    components: int = 1
    normal_data: tuple[int, ...] | None = None
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

    @property
    def crosscaps(self) -> int:
        if self.orientability is not Orientability.NON_ORIENTABLE or self.components != 1:
            raise ValueError("crosscap count is defined for connected non-orientable surfaces")
        return 2 - self.euler

    def record(self) -> dict:
        rec = {
            "euler": self.euler,
            "orientability": self.orientability.value,
            "components": self.components,
        }
        if self.normal_data is not None:
            rec["normal_data"] = list(self.normal_data)
        if self.notes:
            rec["notes"] = list(self.notes)
        return rec


def curve_euler(degree: int) -> int:
    """Euler characteristic of a nonsingular plane curve of this degree."""
    return 2 - (degree - 1) * (degree - 2)


def real_part_X(
    t: TrackedScheme, covered: Side, half_degree: int | None = None
) -> tuple[SurfaceDescriptor, ...]:
    """Components of the real part of the double plane covering one domain.

    The covering is two-sheeted, glued along the boundary ovals, so every
    region of the covered class contributes one closed component of twice
    its Euler characteristic.  For odd half-degree the covering orients;
    for even half-degree the double of the outer region stays one-sided.
    """
    k = t.half_degree if half_degree is None else half_degree
    parts = []
    for r in regions(t).side(covered is Side.TRACKED):
        if k % 2 or r.owner is not OUTER:
            orient = Orientability.ORIENTABLE
        else:
            orient = Orientability.NON_ORIENTABLE
        parts.append(SurfaceDescriptor(2 * r.euler, orient))
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
    if curve_euler(t.degree) % 2:
        raise ValueError("curve Euler characteristic must be even")
    isolated = sum(
        1
        for r in regions(t).side(True)
        if r.owner is OUTER and not t.scheme.roots
    )
    notes = ()
    if t.scheme.is_empty:
        notes = ("real part empty: decomposition claims do not apply",)
    return SurfaceDescriptor(
        euler,
        Orientability.UNDETERMINED,
        components=isolated + 1,
        notes=notes,
    )
