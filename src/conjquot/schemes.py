"""Oval schemes of real plane curves and their ASCII codes.

A *real scheme* records the mutual position of the components of a real
plane curve: a finite forest of ovals (an oval's children are the ovals
directly inside it), an optional one-sided component for odd degree, and
an optional dividing-type flag.

Codes follow the classical angle-bracket notation::

    <0>            empty scheme
    <10>_2         ten disjoint empty ovals, dividing type 2
    <1 u 1<9>>_1   one empty oval next to an oval with nine empty ovals
                   inside, dividing type 1
    <1<1<1>>>      a nest of three ovals

Grammar: ``Code := "<" Body ">" ["_1"|"_2"]``,
``Body := "0" | Item {" u " Item}``, ``Item := COUNT | COUNT "<" Body ">"``
with a positive COUNT meaning that many disjoint copies.  The separator is
exactly ``" u "``; no other whitespace is allowed.  As an extension for
odd-degree inputs, a single ``J`` item at top level marks the one-sided
component (it never nests and carries no count).

Counts expand eagerly: the in-memory forest has no multiplicities.
All values here are immutable and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Iterable, Iterator


class CurveType(Enum):
    """Dividing type of a real curve: type 1 splits its complexification."""

    ONE = "1"
    TWO = "2"
    UNKNOWN = "?"

    @property
    def suffix(self) -> str:
        return "" if self is CurveType.UNKNOWN else "_" + self.value


@dataclass(frozen=True)
class Oval:
    """A two-sided component; ``children`` are the ovals directly inside."""

    children: tuple["Oval", ...] = ()

    @property
    def size(self) -> int:
        return 1 + sum(c.size for c in self.children)

    @property
    def depth(self) -> int:
        return 1 + max((c.depth for c in self.children), default=0)


@dataclass(frozen=True)
class RealScheme:
    roots: tuple[Oval, ...] = ()
    pseudoline: bool = False
    curve_type: CurveType = CurveType.UNKNOWN

    @property
    def oval_count(self) -> int:
        return sum(r.size for r in self.roots)

    @property
    def depth(self) -> int:
        return max((r.depth for r in self.roots), default=0)

    @property
    def is_empty(self) -> bool:
        return not self.roots and not self.pseudoline

    def with_type(self, curve_type: CurveType) -> "RealScheme":
        return RealScheme(self.roots, self.pseudoline, curve_type)

    def __str__(self) -> str:
        return format_viro(self)


# Deepest nest a code may describe: the nest-depth bound d/2 for every
# degree d <= 256, and shallow enough for the recursive key and format.
MAX_DEPTH = 128


class ViroSyntaxError(ValueError):
    """Raised on malformed codes; carries the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise ViroSyntaxError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def parse_count(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        digits = self.text[start : self.pos]
        if not digits:
            raise ViroSyntaxError("expected a count", self.pos)
        if digits != "0" and digits.startswith("0"):
            raise ViroSyntaxError("count has a leading zero", start)
        return int(digits)

    def parse_body(self, depth: int) -> tuple[tuple[Oval, ...], bool]:
        """Parse a body whose ovals sit ``depth`` deep (1 at top level)."""
        ovals: list[Oval] = []
        pseudoline = False
        first = True
        while True:
            item_start = self.pos
            if self.peek() == "J":
                self.pos += 1
                if depth > 1:
                    raise ViroSyntaxError("J is only allowed at top level", item_start)
                if pseudoline:
                    raise ViroSyntaxError("duplicate J", item_start)
                pseudoline = True
            else:
                count = self.parse_count()
                if count == 0:
                    if first and self.peek() == ">":
                        # "0" alone denotes the empty body.
                        return (), pseudoline
                    raise ViroSyntaxError("count 0 inside a body", item_start)
                children: tuple[Oval, ...] = ()
                if self.peek() == "<":
                    if depth == MAX_DEPTH:
                        raise ViroSyntaxError(f"nest deeper than {MAX_DEPTH}", self.pos)
                    self.pos += 1
                    children, _ = self.parse_body(depth + 1)
                    self.expect(">")
                ovals.extend(Oval(children) for _ in range(count))
            first = False
            if self.text.startswith(" u ", self.pos):
                self.pos += 3
                continue
            return tuple(ovals), pseudoline


def parse_viro(code: str) -> RealScheme:
    """Parse an angle-bracket code into a :class:`RealScheme`.

    Raises :class:`ViroSyntaxError` with the offending position on bad
    input, including a nest deeper than :data:`MAX_DEPTH`.  A ``_1``/``_2``
    suffix is allowed on any body, including the empty one.
    """
    p = _Parser(code)
    p.expect("<")
    roots, pseudoline = p.parse_body(depth=1)
    p.expect(">")
    curve_type = CurveType.UNKNOWN
    if p.peek() == "_":
        p.pos += 1
        flag = p.peek()
        if flag not in ("1", "2"):
            raise ViroSyntaxError("type suffix must be _1 or _2", p.pos)
        p.pos += 1
        curve_type = CurveType(flag)
    if p.pos != len(p.text):
        raise ViroSyntaxError("trailing input", p.pos)
    return RealScheme(roots, pseudoline, curve_type)


def subtree_key(o: Oval) -> str:
    """Canonical encoding of one oval with everything inside it."""
    return "(" + "".join(sorted(subtree_key(c) for c in o.children)) + ")"


def forest_key(s: RealScheme) -> str:
    """Canonical encoding of the forest alone, ignoring flags."""
    return "".join(sorted(subtree_key(r) for r in s.roots))


def canonical_key(s: RealScheme) -> str:
    """Equal keys iff the forests are isomorphic and both flags agree."""
    j = "J" if s.pseudoline else "-"
    return f"{forest_key(s)}|{j}|T{s.curve_type.value}"


def _format_group(o: Oval, count: int) -> str:
    if not o.children:
        return str(count)
    return f"{count}<{_format_forest(o.children)}>"


def _format_forest(ovals: tuple[Oval, ...]) -> str:
    groups: dict[str, tuple[Oval, int]] = {}
    for o in ovals:
        k = subtree_key(o)
        rep, n = groups.get(k, (o, 0))
        groups[k] = (rep, n + 1)
    ordered = sorted(groups.values(), key=lambda g: (g[0].size, subtree_key(g[0])))
    return " u ".join(_format_group(o, n) for o, n in ordered)


def format_viro(s: RealScheme) -> str:
    """Canonical code: identical siblings grouped, small subtrees first."""
    parts = []
    if s.pseudoline:
        parts.append("J")
    if s.roots:
        parts.append(_format_forest(s.roots))
    body = " u ".join(parts) if parts else "0"
    return f"<{body}>{s.curve_type.suffix}"


def harnack_bound(degree: int) -> int:
    return (degree - 1) * (degree - 2) // 2 + 1


@dataclass(frozen=True)
class Violation:
    check: str
    detail: str

    def record(self) -> dict:
        return {"check": self.check, "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    code: str
    degree: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def records(self) -> list[dict]:
        return [v.record() for v in self.violations]


def validate(s: RealScheme, degree: int) -> ValidationReport:
    """Check the necessary bounds for a scheme of an even-degree curve.

    An empty report means the scheme passes the necessary conditions; it
    is not a realizability proof.  Violations are data, not exceptions.
    """
    if degree < 2 or degree % 2:
        raise ValueError(f"degree must be even and >= 2, got {degree}")
    violations = []
    if s.pseudoline:
        violations.append(
            Violation("pseudoline", "one-sided component is illegal for even degree")
        )
    bound = harnack_bound(degree)
    if s.oval_count > bound:
        violations.append(
            Violation("harnack", f"{s.oval_count} ovals exceed the bound {bound}")
        )
    if s.depth > degree // 2:
        violations.append(
            Violation(
                "nest-depth",
                f"nest of depth {s.depth} needs a line meeting the curve in "
                f"{2 * s.depth} > {degree} points",
            )
        )
    return ValidationReport(format_viro(s), degree, tuple(violations))


def l_curve_bound(s: RealScheme, degree: int) -> bool:
    """True iff the oval count is within m(m-1)/3 for degree m.

    The bound constrains curves obtained by perturbing a union of lines in
    general position; it is vacuous for degree < 3 (returns True: the
    bound is not applicable there).
    """
    if degree < 3:
        return True
    return 3 * s.oval_count <= degree * (degree - 1)


@dataclass(frozen=True)
class SchemeCatalogEntry:
    """One realizable (scheme, type) pair of a fixed degree.

    The shipped sextic catalog is external classification data; rows
    named by the derivation drivers carry their own provenance tags.
    """

    code: str
    degree: int
    curve_type: CurveType
    provenance_tag: str
    scheme: RealScheme = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.curve_type is CurveType.UNKNOWN:
            raise ValueError("catalog entries carry a definite type")
        s = parse_viro(self.code).with_type(self.curve_type)
        if s.oval_count > harnack_bound(self.degree):
            raise ValueError(f"{self.code} violates the Harnack bound")
        object.__setattr__(self, "scheme", s)

    @property
    def typed_code(self) -> str:
        return format_viro(self.scheme)


def load_catalog(lines: Iterable[str]) -> tuple[SchemeCatalogEntry, ...]:
    """Read ``code<TAB>degree<TAB>type<TAB>provenance`` lines; '#' comments."""
    entries = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"bad catalog row: {raw!r}")
        code, degree, curve_type, tag = fields
        entries.append(
            SchemeCatalogEntry(code, int(degree), CurveType(curve_type), tag)
        )
    return tuple(entries)


def default_catalog() -> tuple[SchemeCatalogEntry, ...]:
    """The packaged catalog of nonempty sextic schemes with types."""
    text = resources.files("conjquot.data").joinpath("sextics.tsv").read_text("utf-8")
    return load_catalog(text.splitlines())


def iter_forests(max_ovals: int) -> Iterator[tuple[Oval, ...]]:
    """All unordered forests with at most ``max_ovals`` ovals, one per
    isomorphism class."""

    def trees(n: int) -> list[Oval]:
        if n == 1:
            return [Oval()]
        out = []
        for forest in forests(n - 1):
            out.append(Oval(forest))
        return out

    def forests(n: int) -> list[tuple[Oval, ...]]:
        # Multisets of trees with n total ovals, built in key order to
        # avoid duplicates.
        if n == 0:
            return [()]
        out = []
        for k in range(1, n + 1):
            for t in trees(k):
                tk = subtree_key(t)
                for rest in forests(n - k):
                    if rest and subtree_key(rest[0]) < tk:
                        continue
                    out.append((t, *rest))
        # Dedupe by key; recursion above can still repeat mixed sizes.
        seen = {}
        for f in out:
            seen.setdefault(forest_key(RealScheme(f)), f)
        return list(seen.values())

    for n in range(0, max_ovals + 1):
        for f in forests(n):
            yield f
