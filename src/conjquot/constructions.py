"""Scheme-level perturbation constructions and fibered-surface quotients.

Two pencil perturbations turn a base curve B with marked basepoints into
an even curve whose Arnold surface bounds a handlebody:

* the *v*-curve: one small oval around each of the d basepoints;
* the *u*-curve: B with every unmarked oval doubled into a nested pair
  and every oval carrying r basepoints replaced by r small ovals.

The handlebody is orientable for v always, and for u exactly when B is
of dividing type 1; the quotient on the other side is then
2Q # R # (k-1)(S1xS3) with R completely decomposable.

For surfaces fibered over a curve, a branch locus made of r double real
fibers and s conjugate imaginary fiber pairs gives the same shape with
r+s-1 extra 1-handles, while the other quotient is described by Z/2
surgeries on the fibers (type 1 along the doubled real fibers, type 2
for the imaginary pairs).
"""

from __future__ import annotations

from typing import Mapping

from ._values import asdict, dataclass, field
from .domains import Path, format_path, iter_ovals
from .fourman import FourManifoldWord, word
from .schemes import MAX_OVALS, CurveType, Oval, RealScheme, format_viro

PSEUDOLINE = "pseudoline"


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class BaseCurveSpec:
    """A base curve with basepoints distributed over its components.

    ``basepoints`` maps an oval path (or the PSEUDOLINE marker) to a
    count; unmapped components carry zero.  The total must be the
    self-intersection :attr:`d` of the pencil class in the plane.
    """

    scheme: RealScheme
    degree: int
    basepoints: Mapping[Path | str, int] | None = field(default=None, hash=False)

    def __post_init__(self):
        if self.degree < 1:
            raise ConstructionError(f"a base curve needs degree >= 1, got {self.degree}")
        object.__setattr__(self, "basepoints", dict(self.basepoints or {}))
        paths = {path for path, _ in iter_ovals(self.scheme)}
        for key, n in sorted(self.basepoints.items(), key=str):
            if type(n) is not int:  # a bool is not one
                raise ConstructionError(f"basepoint counts must be integers, got {n!r}")
            if n < 0:
                raise ConstructionError("basepoint counts must be >= 0")
            if key == PSEUDOLINE:
                if not self.scheme.pseudoline:
                    raise ConstructionError("no pseudoline to carry basepoints")
            elif key not in paths:
                raise ConstructionError(f"no oval at path {format_path(key)}")

    @property
    def d(self) -> int:
        """Self-intersection of the pencil class: degree * degree."""
        return self.degree * self.degree

    @property
    def total_basepoints(self) -> int:
        return sum(self.basepoints.values())


@dataclass(frozen=True)
class PerturbResult:
    scheme: RealScheme
    handlebody_orientable: bool
    notes: tuple[str, ...] = ()

    def record(self) -> dict:
        return {
            "scheme": format_viro(self.scheme),
            "handlebody_orientable": self.handlebody_orientable,
            "notes": list(self.notes),
        }


def _require_codable(kind: str, ovals: int) -> None:
    if ovals > MAX_OVALS:
        raise ConstructionError(f"the {kind}-curve has {ovals} ovals, more than {MAX_OVALS}")


def _require_total(b: BaseCurveSpec) -> None:
    if b.total_basepoints != b.d:
        raise ConstructionError(f"basepoints total {b.total_basepoints}, expected d = {b.d}")


def perturb_v(b: BaseCurveSpec) -> PerturbResult:
    """The v-curve: d disjoint empty ovals around the basepoints.

    Always of type 1; its Arnold surface on the orientable side is
    isotopic to the base curve and bounds an orientable handlebody.
    """
    _require_total(b)
    _require_codable("v", b.d)
    scheme = RealScheme(tuple(Oval() for _ in range(b.d)), False, CurveType.ONE)
    return PerturbResult(
        scheme,
        handlebody_orientable=True,
        notes=("arnold surface isotopic to the base curve",),
    )


def perturb_u(b: BaseCurveSpec) -> PerturbResult:
    """The u-curve: doubled unmarked ovals, marked ovals traded for beads.

    An oval with r >= 1 basepoints becomes r empty ovals in its ambient
    region and its former children move out there too; an unmarked oval
    becomes a nested pair with the transformed children inside the inner
    copy.  A marked pseudoline becomes its beads at top level; an
    unmarked one leaves the boundary of its one-sided neighbourhood.
    """
    if b.scheme.pseudoline and b.degree % 2 == 0:
        raise ConstructionError("an even-degree base curve has no pseudoline")
    _require_total(b)
    # Every basepoint becomes a bead, every unmarked oval a nested pair.
    marked = {key for key, n in b.basepoints.items() if key != PSEUDOLINE and n}
    rp = b.basepoints.get(PSEUDOLINE, 0)
    lone_pseudoline = b.scheme.pseudoline and not rp
    _require_codable("u", b.d + 2 * (b.scheme.oval_count - len(marked)) + lone_pseudoline)
    if any(path[:i] in marked for path in marked for i in range(1, len(path))):
        raise ConstructionError(
            "basepoints on nested ovals: the bead region of the inner "
            "oval is not well defined"
        )

    def transform(path: Path, oval: Oval) -> list[Oval]:
        kids: list[Oval] = []
        for i, child in enumerate(oval.children):
            kids.extend(transform(path + (i,), child))
        r = b.basepoints.get(path, 0)
        if r >= 1:
            return [Oval() for _ in range(r)] + kids
        return [Oval((Oval(tuple(kids)),))]

    roots: list[Oval] = []
    for i, r in enumerate(b.scheme.roots):
        roots.extend(transform((i,), r))
    if b.scheme.pseudoline:  # its beads, or the boundary of its one-sided neighbourhood
        roots.extend(Oval() for _ in range(max(rp, 1)))
    return PerturbResult(
        RealScheme(tuple(roots), False, b.scheme.curve_type),
        handlebody_orientable=b.scheme.curve_type is CurveType.ONE,
        notes=("arnold surface isotopic to the base curve",)
        if b.scheme.curve_type is CurveType.ONE
        else (),
    )


def quotient_Y_minus(
    q: FourManifoldWord,
    b_genus: int,
    b_type: CurveType,
    kind: str,
    components_k: int = 1,
) -> FourManifoldWord:
    """Quotient on the non-handlebody side for a v- or u-curve over a
    simply connected quotient Q: 2Q # R # (k-1)(S1xS3) where R is g
    copies of S2xS2, or of CP2 # CP2bar for a u-curve of type 2."""
    if kind not in ("v", "u"):
        raise ConstructionError(f"kind must be 'v' or 'u', not {kind!r}")
    if q.simply_connected is False:
        raise ConstructionError("the ambient quotient must be simply connected")
    if components_k < 1:
        raise ConstructionError("the branch surface needs a component")
    if kind == "u" and b_type is CurveType.UNKNOWN:
        raise ConstructionError("the u-curve quotient needs the base type")
    piece = CurveType.TWO if kind == "u" and b_type is CurveType.TWO else CurveType.ONE
    return _handlebody_side(q, b_genus, [piece], components_k - 1)


def _handlebody_side(
    q: FourManifoldWord, genus: int, types: list[CurveType], handles: int
) -> FourManifoldWord:
    """2Q # R_1 # ... # handles(S1xS3): R_i is g copies of CP2 # CP2bar for
    a piece of type 2 and of S2xS2 for a piece of type 1."""
    r = word()
    for t in dict.fromkeys(types):  # one word per type, in the pieces' order
        if t not in (CurveType.ONE, CurveType.TWO):
            raise ConstructionError("doubled fibers need a known dividing type")
        n = genus * types.count(t)
        r = r + (word(cp2=n, cp2bar=n) if t is CurveType.TWO else word(s2xs2=n))
    return q.doubled() + r + word(s1xs3=handles)


@dataclass(frozen=True)
class FiberedSpec:
    """Branch data on a fibered real surface.

    ``double_fiber_types`` lists the dividing type of the real part of
    each doubled real fiber (length r); ``imaginary_pairs`` counts the
    conjugate fiber pairs (s).  The standing hypotheses are assumed,
    not checked: nonsingular connected total space, fiber and base;
    nonempty real part; an even branch locus; doubled fibers close
    together with nonempty real parts.
    """

    quotient_q: FourManifoldWord
    fiber_genus: int
    double_fiber_types: tuple[CurveType, ...]
    imaginary_pairs: int = 0
    elliptic_name: str | None = None

    def __post_init__(self):
        if self.fiber_genus < 0:
            raise ConstructionError(f"fiber genus must be >= 0, got {self.fiber_genus}")
        if self.imaginary_pairs < 0:
            raise ConstructionError("imaginary pair count must be >= 0")
        if self.r + self.s > MAX_OVALS:  # one printed surgery per fiber
            raise ConstructionError(f"{self.r + self.s} fibers, more than {MAX_OVALS}")
        if self.elliptic_name is not None and self.fiber_genus != 1:
            raise ConstructionError("a named elliptic surface has fiber genus 1")

    @property
    def r(self) -> int:
        return len(self.double_fiber_types)

    @property
    def s(self) -> int:
        return self.imaginary_pairs


@dataclass(frozen=True)
class SurgeryDescriptor:
    surgeries: tuple[tuple[str, int], ...]  # (fiber id, surgery type)
    result: str | None = None  # named result when known
    notes: tuple[str, ...] = ()

    def record(self) -> dict:
        return {
            "surgeries": [list(s) for s in self.surgeries],
            "result": self.result,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class FiberedResult:
    y_minus: FourManifoldWord
    y_plus: SurgeryDescriptor


def fibered_quotient(f: FiberedSpec) -> FiberedResult:
    """Both quotients for a fibered branch locus.

    The handlebody side gives 2Q # R # (r+s-1)(S1xS3); each doubled real
    fiber contributes g(S2xS2) when its real part divides it and
    g(CP2 # CP2bar) otherwise, and each imaginary pair contributes
    g(S2xS2).  The other quotient is the base surface modified by r
    type-1 and s type-2 surgeries along fibers; for a named elliptic
    surface the type-1 surgery is a multiplicity-zero torus modification,
    appending 0 to the multiplicity list.
    """
    if f.r + f.s < 1:
        raise ConstructionError("the branch locus needs at least one fiber")
    if f.quotient_q.simply_connected is False:
        raise ConstructionError("the quotient of the total space must be simply connected")
    types = [*f.double_fiber_types, *[CurveType.ONE] * f.s]
    y_minus = _handlebody_side(f.quotient_q, f.fiber_genus, types, f.r + f.s - 1)

    surgeries = [(f"A{i + 1}", 1) for i in range(f.r)]
    surgeries += [(f"B{j + 1}", 2) for j in range(f.s)]
    notes = []
    result = None
    if f.elliptic_name is not None:
        base, _, tail = f.elliptic_name.partition("_")
        multiplicities = [m for m in tail.split(",") if m] + ["0"] * f.r
        result = f"{base}_{','.join(multiplicities)}"
        notes.append("type-1 surgery on an elliptic fiber is a multiplicity-0 torus modification")
        notes.append("completely decomposable if simply connected")
    return FiberedResult(
        y_minus,
        SurgeryDescriptor(tuple(surgeries), result, tuple(notes)),
    )


@dataclass(frozen=True)
class ImaginaryImageStatement:
    embedded: bool
    bounds_handlebody: bool
    standard: bool | None
    note: str

    def record(self) -> dict:
        return asdict(self)


def imaginary_curve_image(
    degree_k: int, real_intersections: int, q_simply_connected: bool = True
) -> ImaginaryImageStatement:
    """What the quotient map does to an imaginary curve meeting the real
    plane transversally.

    With the full k*k real intersection points the image bounds a
    handlebody (standard when the ambient quotient is simply connected,
    an unknot for genus zero); with fewer the image is not embedded.
    """
    expected = degree_k * degree_k
    if degree_k < 1:
        raise ConstructionError(f"an imaginary curve needs degree >= 1, got {degree_k}")
    # By Bezout the real points lie among the k*k points of C and conj(C).
    if not 0 <= real_intersections <= expected:
        raise ConstructionError(
            f"a curve of degree {degree_k} has 0 to {expected} real points, "
            f"not {real_intersections}"
        )
    if real_intersections != expected:
        return ImaginaryImageStatement(
            False, False, None,
            f"{real_intersections} real points instead of {expected}: "
            "the image is not an embedded surface",
        )
    genus = (degree_k - 1) * (degree_k - 2) // 2
    standard = True if q_simply_connected else None
    note = "image bounds a handlebody"
    if standard and genus == 0:
        note += "; an unknotted sphere"
    elif standard:
        note += "; standard"
    return ImaginaryImageStatement(True, True, standard, note)
