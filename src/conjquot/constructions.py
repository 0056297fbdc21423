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

from dataclasses import dataclass
from typing import Mapping

from .domains import Path, iter_ovals
from .fourman import FourManifoldWord, word
from .schemes import CurveType, Oval, RealScheme, format_viro

PSEUDOLINE = "pseudoline"


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class BaseCurveSpec:
    """A base curve with basepoints distributed over its components.

    ``basepoints`` maps an oval path (or the PSEUDOLINE marker) to a
    count; unmapped components carry zero.  The total must be the
    self-intersection d of the pencil class, k*k in the plane case.
    """

    scheme: RealScheme
    degree: int
    basepoints: tuple[tuple[Path | str, int], ...]
    d: int | None = None

    def __init__(
        self,
        scheme: RealScheme,
        degree: int,
        basepoints: Mapping[Path | str, int] | None = None,
        d: int | None = None,
    ):
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "degree", degree)
        items = tuple(sorted((basepoints or {}).items(), key=str))
        object.__setattr__(self, "basepoints", items)
        object.__setattr__(self, "d", degree * degree if d is None else d)
        for key, n in items:
            if n < 0:
                raise ConstructionError("basepoint counts must be >= 0")
            if key == PSEUDOLINE:
                if not scheme.pseudoline:
                    raise ConstructionError("no pseudoline to carry basepoints")
            elif key not in {path for path, _ in iter_ovals(scheme)}:
                raise ConstructionError(f"no oval at path {key}")

    @property
    def total_basepoints(self) -> int:
        return sum(n for _, n in self.basepoints)

    def count_at(self, key: Path | str) -> int:
        for k, n in self.basepoints:
            if k == key:
                return n
        return 0


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


def perturb_v(b: BaseCurveSpec) -> PerturbResult:
    """The v-curve: d disjoint empty ovals around the basepoints.

    Always of type 1; its Arnold surface on the orientable side is
    isotopic to the base curve and bounds an orientable handlebody.
    """
    if b.total_basepoints != b.d:
        raise ConstructionError(
            f"basepoints total {b.total_basepoints}, expected d = {b.d}"
        )
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
    if b.total_basepoints != b.d:
        raise ConstructionError(
            f"basepoints total {b.total_basepoints}, expected d = {b.d}"
        )

    def transform(path: Path, oval: Oval) -> list[Oval]:
        r = b.count_at(path)
        kids: list[Oval] = []
        for i, child in enumerate(oval.children):
            kids.extend(transform(path + (i,), child))
        if r >= 1:
            if any(b.count_at(path + sub) for sub, _ in iter_ovals(RealScheme(oval.children))):
                raise ConstructionError(
                    "basepoints on nested ovals: the bead region of the inner "
                    "oval is not well defined"
                )
            return [Oval() for _ in range(r)] + kids
        return [Oval((Oval(tuple(kids)),))]

    roots: list[Oval] = []
    for i, r in enumerate(b.scheme.roots):
        roots.extend(transform((i,), r))
    if b.scheme.pseudoline:
        rp = b.count_at(PSEUDOLINE)
        if rp >= 1:
            roots.extend(Oval() for _ in range(rp))
        else:
            roots.append(Oval())  # boundary of the one-sided neighbourhood
    curve_type = (
        CurveType.ONE if b.scheme.curve_type is CurveType.ONE else
        CurveType.TWO if b.scheme.curve_type is CurveType.TWO else CurveType.UNKNOWN
    )
    return PerturbResult(
        RealScheme(tuple(roots), False, curve_type),
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
    if kind == "u" and b_type is CurveType.TWO:
        r = word(cp2=b_genus, cp2bar=b_genus)
    else:
        r = word(s2xs2=b_genus)
    return q.doubled() + r + word(s1xs3=components_k - 1)


@dataclass(frozen=True)
class FiberedSpec:
    """Branch data on a fibered real surface.

    ``double_fiber_types`` lists the dividing type of the real part of
    each doubled real fiber (length r); ``imaginary_pairs`` counts the
    conjugate fiber pairs (s).  The standing hypotheses are asserted:
    nonsingular connected total space, fiber and base; nonempty real
    part; an even branch locus; doubled fibers close together with
    nonempty real parts.
    """

    quotient_q: FourManifoldWord
    fiber_genus: int
    double_fiber_types: tuple[CurveType, ...]
    imaginary_pairs: int = 0
    base_nonsingular_connected: bool = True
    real_part_nonempty: bool = True
    double_fibers_real_nonempty: bool = True
    elliptic_name: str | None = None

    def __post_init__(self):
        if self.imaginary_pairs < 0:
            raise ConstructionError("imaginary pair count must be >= 0")
        if not self.base_nonsingular_connected:
            raise ConstructionError("the fibration data must be nonsingular and connected")
        if not self.real_part_nonempty:
            raise ConstructionError("the total space needs a nonempty real part")
        if self.double_fiber_types and not self.double_fibers_real_nonempty:
            raise ConstructionError("doubled real fibers need nonempty real parts")
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
    g = f.fiber_genus
    r_word = word()
    for ct in f.double_fiber_types:
        if ct is CurveType.TWO:
            r_word = r_word + word(cp2=g, cp2bar=g)
        elif ct is CurveType.ONE:
            r_word = r_word + word(s2xs2=g)
        else:
            raise ConstructionError("doubled fibers need a known dividing type")
    r_word = r_word + word(s2xs2=g * f.s)
    y_minus = f.quotient_q.doubled() + r_word + word(s1xs3=f.r + f.s - 1)

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


def rational_fiber_surgery_note(real_part_empty: bool) -> str:
    """Effect of a type-1 surgery on a rational fiber."""
    if real_part_empty:
        return "replaces fiber x D2 by (RP3 - D3) x S1"
    return "index-2 surgery along the fiber"


@dataclass(frozen=True)
class ImaginaryImageStatement:
    embedded: bool
    bounds_handlebody: bool
    standard: bool | None
    note: str

    def record(self) -> dict:
        return {
            "embedded": self.embedded,
            "bounds_handlebody": self.bounds_handlebody,
            "standard": self.standard,
            "note": self.note,
        }


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
