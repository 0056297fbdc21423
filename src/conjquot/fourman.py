"""Connected-sum words of four-manifolds and branched-cover arithmetic.

A :class:`FourManifoldWord` is a formal connected sum over the generators
CP2, CP2bar, S2xS2, S1xS3 plus opaque named blocks.  The sphere summand
is the identity and is never stored.  Betti numbers are read off the
counts; named blocks are opaque and block the accounting.

The invariant formulas tie a double plane to its quotients.  With X the
double cover of the plane branched along a degree-2k curve and Y the
quotient of X by the conjugation whose Arnold surface is the tracked one:

    chi(X)   = 2 chi(P) - chi(A)            sigma(X) = 2 sigma(P) - 2 k^2
    b2+(Y)   = (b2+(X) - 1) / 2             b2-(Y) = (b2-(X) + chi(XR) - 1) / 2
    sigma(X) = 2 sigma(Y) - XR.XR           chi(X) = 2 chi(Y) - chi(XR)

where XR, the real part sitting inside Y, covers the non-tracked domain
and XR.XR = -chi(XR).  The sigma convention (twice the self-intersection
of the half-class, 2 k^2) is pinned by the degree-6 values
chi(X) = 24 and sigma(X) = -16, the K3 lattice (3, 19).
"""

from __future__ import annotations


from ._values import asdict, dataclass, replace
from .domains import (
    Orientability,
    Side,
    SurfaceDescriptor,
    TrackedScheme,
    curve_euler,
    euler_W,
)
from .schemes import harnack_bound, plain_digits


class WordError(ValueError):
    pass


@dataclass(frozen=True)
class FourManifoldWord:
    cp2: int = 0
    cp2bar: int = 0
    s2xs2: int = 0
    s1xs3: int = 0
    named: tuple[str, ...] = ()

    def __post_init__(self):
        if min(self.cp2, self.cp2bar, self.s2xs2, self.s1xs3) < 0:
            raise WordError("summand counts must be >= 0")

    @property
    def simply_connected(self) -> bool | None:
        """Unknown through named blocks; otherwise no S1xS3 summand."""
        return None if self.named else self.s1xs3 == 0

    def _require_plain(self, what: str) -> None:
        if self.named:
            raise WordError(f"{what} is not tracked through named blocks")

    @property
    def b2plus(self) -> int:
        self._require_plain("b2+")
        return self.cp2 + self.s2xs2

    @property
    def b2minus(self) -> int:
        self._require_plain("b2-")
        return self.cp2bar + self.s2xs2

    @property
    def b1(self) -> int:
        self._require_plain("b1")
        return self.s1xs3

    @property
    def sigma(self) -> int:
        self._require_plain("sigma")
        return self.cp2 - self.cp2bar

    @property
    def chi(self) -> int:
        self._require_plain("chi")
        return 2 + self.cp2 + self.cp2bar + 2 * self.s2xs2 - 2 * self.s1xs3

    def __add__(self, other: "FourManifoldWord") -> "FourManifoldWord":
        return FourManifoldWord(
            self.cp2 + other.cp2,
            self.cp2bar + other.cp2bar,
            self.s2xs2 + other.s2xs2,
            self.s1xs3 + other.s1xs3,
            self.named + other.named,
        )

    def doubled(self) -> "FourManifoldWord":
        return self + self

    def __str__(self) -> str:
        def part(name: str, n: int) -> list[str]:
            if n == 0:
                return []
            return [name if n == 1 else f"{name}^{n}"]

        parts = (
            part("CP2", self.cp2)
            + part("CP2bar", self.cp2bar)
            + part("(S2xS2)", self.s2xs2)
            + part("(S1xS3)", self.s1xs3)
            + [f"Named[{n}]" for n in self.named]
        )
        return " # ".join(parts) if parts else "S4"


S4 = FourManifoldWord()
CP2 = FourManifoldWord(cp2=1)


def word(cp2=0, cp2bar=0, s2xs2=0, s1xs3=0, named=()) -> FourManifoldWord:
    return FourManifoldWord(cp2, cp2bar, s2xs2, s1xs3, tuple(named))


def parse_word(text: str) -> FourManifoldWord:
    """Parse the serialization format; unknown tokens become named blocks."""
    text = text.strip()
    if text in ("S4", ""):
        return S4
    counts = {"CP2": 0, "CP2bar": 0, "S2xS2": 0, "S1xS3": 0}
    named: list[str] = []
    for raw in text.split("#"):
        tok = raw.strip()
        count = 1
        head, caret, tail = tok.rpartition("^")
        if caret and plain_digits(tail):
            tok, count = head.strip(), int(tail)
        if tok.startswith("(") and tok.endswith(")") and tok[1:-1] in counts:
            tok = tok[1:-1]
        if tok.startswith("Named[") and tok.endswith("]"):
            tok = tok[6:-1]
        if not tok:
            raise WordError(f"bad word token {raw!r}")
        if tok in counts:
            counts[tok] += count
        elif tok == "S4":
            continue
        else:
            named.extend([tok] * count)
    return word(counts["CP2"], counts["CP2bar"], counts["S2xS2"], counts["S1xS3"], named)


# ------------------------------------------------------- double planes


@dataclass(frozen=True)
class DoublePlaneInvariants:
    chi_X: int
    sigma_X: int
    b2plus_X: int
    b2minus_X: int
    chi_XR: int
    b2plus_Y: int
    b2minus_Y: int
    sigma_Y: int
    chi_Y: int

    def record(self) -> dict:
        return asdict(self)


def require_curve(t: TrackedScheme) -> None:
    """Raise WordError when no curve of the degree has this many ovals."""
    bound = harnack_bound(t.degree)
    if t.scheme.oval_count > bound:
        raise WordError(
            f"{t.scheme.oval_count} ovals exceed the Harnack bound {bound} of degree {t.degree}"
        )


def double_plane_invariants(t: TrackedScheme) -> DoublePlaneInvariants:
    """Numerical invariants of the double plane over a tracked scheme.

    Y is the quotient branched along the tracked Arnold surface; the real
    part inside it covers the non-tracked domain.  The covering identities
    hold by construction: sigma(Y) and chi(Y) are the halves they invert.
    A scheme with more ovals than the Harnack bound of its degree has no
    curve, and raises.
    """
    require_curve(t)
    k = t.half_degree
    chi_x = 2 * 3 - curve_euler(t.degree)
    sigma_x = 2 * 1 - 2 * k * k
    b2 = chi_x - 2
    chi_xr = 2 * euler_W(t, Side.NONTRACKED)
    # Every halving is exact: b2 + sigma(X) = 2k^2 - 6k + 6,
    # b2 - sigma(X) = 6k^2 - 6k + 2, b2+(X) - 1 = (k-1)(k-2),
    # b2-(X) - 1 = 3k(k-1), and sigma(X), chi(X) and chi(XR) = 2 chi(W) are even.
    b2plus_x = (b2 + sigma_x) // 2
    b2minus_x = (b2 - sigma_x) // 2
    return DoublePlaneInvariants(
        chi_x, sigma_x, b2plus_x, b2minus_x, chi_xr,
        (b2plus_x - 1) // 2, (b2minus_x + chi_xr - 1) // 2,
        (sigma_x - chi_xr) // 2, (chi_x + chi_xr) // 2,
    )


# -------------------------------------------------- standard-form algebra


@dataclass(frozen=True)
class StandardSurfaceForm:
    """A standard surface in the four-sphere: a connected sum of standard
    tori and projective planes with normal numbers -2 or +2."""

    orientable: bool
    tori: int = 0
    rp2: int = 0
    rp2bar: int = 0
    note: str = ""

    def __post_init__(self):
        if self.orientable and (self.rp2 or self.rp2bar):
            raise WordError("an orientable standard surface has no crosscaps")
        if not self.orientable and self.rp2 + self.rp2bar == 0:
            raise WordError("a non-orientable standard surface needs a crosscap")


class FormError(ValueError):
    """Arithmetically impossible standard form: signals a modeling bug."""


def predict_standard_form(
    chi_a: int,
    b2plus_y: int,
    b2minus_y: int,
    orientability: Orientability = Orientability.UNDETERMINED,
) -> tuple[StandardSurfaceForm, ...]:
    """Standard forms of a connected surface consistent with the Betti
    numbers of its double branched cover.

    Orientable: genus g tori with b2+ = b2- = g.  Non-orientable: b2+
    planes of normal number +2 and b2- of normal number -2, with total
    crosscaps 2 - chi.  With orientability undetermined, all consistent
    candidates are returned, the non-orientable one first, flagged when
    there are two.
    """
    candidates = []
    p, q = b2plus_y, b2minus_y
    if p + q == 2 - chi_a and p + q >= 1 and p >= 0 and q >= 0:
        candidates.append(StandardSurfaceForm(False, rp2=p, rp2bar=q))
    if chi_a % 2 == 0 and chi_a <= 2:
        g = (2 - chi_a) // 2
        if b2plus_y == b2minus_y == g:
            candidates.append(StandardSurfaceForm(True, tori=g))
    if orientability is Orientability.ORIENTABLE:
        candidates = [c for c in candidates if c.orientable]
    elif orientability is Orientability.NON_ORIENTABLE:
        candidates = [c for c in candidates if not c.orientable]
    if not candidates:
        raise FormError(
            f"no standard form matches chi={chi_a}, b=({b2plus_y},{b2minus_y}), "
            f"{orientability.value}"
        )
    if len(candidates) == 2:
        candidates = [replace(c, note="parity undetermined") for c in candidates]
    return tuple(candidates)


def branch_cover_word(form: StandardSurfaceForm, ambient: FourManifoldWord) -> FourManifoldWord:
    """Double cover of an ambient word branched along a standard surface.

    Each standard torus lifts to S2xS2, each projective plane of normal
    number +2 to CP2 and of normal number -2 to CP2bar; ambient summands
    away from the branch set double.
    """
    return ambient.doubled() + word(cp2=form.rp2, cp2bar=form.rp2bar, s2xs2=form.tori)


def k3_classify(
    xr: tuple[SurfaceDescriptor, ...] | list[SurfaceDescriptor],
    class_vanishes: bool,
) -> FourManifoldWord:
    """Quotient of a real K3 surface from its real part.

    The real part must be S_g together with k spheres (g + k <= 11) or a
    pair of tori, and Comessatti's bound 2 - h^{1,1} <= chi(XR) <= h^{1,1}
    holds with h^{1,1} = 20.  The quotient is CP2 # k CP2bar with
    k = 9 + chi(XR) / 2, except for the two spin cases: a genus-10
    component with a sphere, or a genus-9 real part whose mod-2 class
    vanishes, where it is S2xS2.
    """
    parts = tuple(xr)
    if not parts:
        raise WordError("empty real part: the quotient does not decompose")
    if any(p.orientability is not Orientability.ORIENTABLE for p in parts):
        raise WordError("a K3 real part is orientable")
    genera = sorted((p.genus for p in parts), reverse=True)
    spheres = sum(1 for g in genera if g == 0)
    big = [g for g in genera if g > 0]
    if len(big) > 1 and genera != [1, 1]:
        raise WordError(f"not a K3 real part: genera {genera}")
    if big and genera != [1, 1] and big[0] + spheres > 11:
        raise WordError(f"not a K3 real part: genera {genera}")
    chi_xr = sum(p.euler for p in parts)  # even: each part has a genus
    if not -18 <= chi_xr <= 20:
        raise WordError(f"chi(XR) = {chi_xr} breaks Comessatti's bound -18 <= chi(XR) <= 20")
    if genera == [10, 0]:
        return word(s2xs2=1)
    if genera == [9] and class_vanishes:
        return word(s2xs2=1)
    return word(cp2=1, cp2bar=9 + chi_xr // 2)  # Comessatti's bound keeps it >= 0
