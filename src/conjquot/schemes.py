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
All values here are immutable and safe to share between workers.  Each
oval caches its size, key and signed level count, so forest keys, oval
counts and Euler characteristics (:mod:`conjquot.domains`) read only roots.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import cache
from typing import Iterable, Iterator

from ._values import dataclass, field


class CurveType(Enum):
    """Dividing type of a real curve: type 1 splits its complexification."""

    ONE = "1"
    TWO = "2"
    UNKNOWN = "?"

    @property
    def suffix(self) -> str:
        return "" if self is CurveType.UNKNOWN else "_" + self.value


def tree_key(child_keys: Iterable[str]) -> str:
    """An oval's canonical (AHU) key from its children's: one ``(`` per oval."""
    return "(" + "".join(sorted(child_keys)) + ")"


@dataclass(frozen=True, slots=True)
class Oval:
    """A two-sided component; ``children`` are the ovals directly inside.
    ``size``, the canonical ``key`` and ``signed`` (the subtree's odd minus
    even depth count, this oval at odd depth) are built from the children's."""

    children: tuple["Oval", ...] = ()
    size: int = field(init=False, repr=False, compare=False)
    key: str = field(init=False, repr=False, compare=False)
    signed: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size, signed, keys = 1, 1, []
        for c in self.children:
            size, signed = size + c.size, signed - c.signed
            keys.append(c.key)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "key", tree_key(keys))
        object.__setattr__(self, "signed", signed)

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
# degree d <= 256, and shallow enough for the recursive format and equality.
MAX_DEPTH = 128

# Most ovals a code may describe: harnack_bound(256), for the same degree
# range.  Counts multiply through nesting, so the parser counts as it goes.
MAX_OVALS = 32386


class ViroSyntaxError(ValueError):
    """Raised on malformed codes; carries the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def plain_digits(text: str) -> bool:
    """The one rule for an integer typed by hand: ASCII digits only, after a
    leading ``-`` where a sign is allowed.  ``int`` also reads ``+``, ``_``
    and spaces, and ``str.isdigit`` other scripts' digits."""
    return text.isascii() and text.isdigit()


def plain_real(text: str) -> bool:
    """The one rule for a real typed by hand: ``float``'s, in ASCII without ``_``."""
    try:
        float(text)
    except ValueError:
        return False
    return text.isascii() and "_" not in text


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.ovals = 0  # ovals parsed so far, copies included

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise ViroSyntaxError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def parse_count(self) -> int:
        start = self.pos
        while plain_digits(self.peek()):
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
                before = self.ovals
                if self.peek() == "<":
                    if depth == MAX_DEPTH:
                        raise ViroSyntaxError(f"nest deeper than {MAX_DEPTH}", self.pos)
                    self.pos += 1
                    children, _ = self.parse_body(depth + 1)
                    self.expect(">")
                self.ovals = before + count * (1 + self.ovals - before)
                if self.ovals > MAX_OVALS:
                    raise ViroSyntaxError(f"more than {MAX_OVALS} ovals", item_start)
                ovals += [Oval(children)] * count  # immutable: copies share one node
            first = False
            if self.text.startswith(" u ", self.pos):
                self.pos += 3
                continue
            return tuple(ovals), pseudoline


def parse_viro(code: str) -> RealScheme:
    """Parse an angle-bracket code into a :class:`RealScheme`.

    Raises :class:`ViroSyntaxError` with the offending position on bad
    input, including a nest deeper than :data:`MAX_DEPTH` or more than
    :data:`MAX_OVALS` ovals.  A ``_1``/``_2``
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


def forest_key(s: RealScheme) -> str:
    """Canonical encoding of the forest alone, ignoring flags: the sorted
    cached keys of its roots."""
    return "".join(sorted(r.key for r in s.roots))


def canonical_key(s: RealScheme) -> str:
    """Equal keys iff the forests are isomorphic and both flags agree."""
    j = "J" if s.pseudoline else "-"
    return f"{forest_key(s)}|{j}|T{s.curve_type.value}"


def _format_group(o: Oval, count: int) -> str:
    if not o.children:
        return str(count)
    return f"{count}<{_format_forest(o.children)}>"


def _format_forest(ovals: tuple[Oval, ...]) -> str:
    counts = Counter(o.key for o in ovals)
    reps = sorted({o.key: o for o in ovals}.values(), key=lambda o: (o.size, o.key))
    return " u ".join(_format_group(o, counts[o.key]) for o in reps)


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
    return ValidationReport(tuple(violations))


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
    """Read ``code<TAB>degree<TAB>type<TAB>provenance`` lines, the degree in
    plain digits; '#' comments."""
    entries = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4 or not plain_digits(fields[1]):
            raise ValueError(f"bad catalog row: {line!r}")
        code, degree, curve_type, tag = fields
        try:
            if curve_type not in ("1", "2"):
                raise ValueError(f"type must be 1 or 2, got {curve_type!r}")
            entries.append(SchemeCatalogEntry(code, int(degree), CurveType(curve_type), tag))
        except ValueError as err:
            raise ValueError(f"bad catalog row: {line!r}: {err}") from None
    return tuple(entries)


def default_catalog() -> tuple[SchemeCatalogEntry, ...]:
    """The packaged catalog of nonempty sextic schemes with types."""
    from importlib import resources
    text = resources.files("conjquot.data").joinpath("sextics.tsv").read_text("utf-8")
    return load_catalog(text.splitlines())


def iter_forests(max_ovals: int) -> Iterator[tuple[Oval, ...]]:
    """All unordered forests with at most ``max_ovals`` ovals, one per
    isomorphism class."""

    @cache
    def trees(n: int) -> list[Oval]:
        return [Oval(forest) for forest in forests(n - 1)] if n > 1 else [Oval()]

    @cache
    def forests(n: int) -> list[tuple[Oval, ...]]:
        # Multisets of trees with n total ovals.  Each forest lists a tree
        # of least key first, so a multiset arises once, from its least tree.
        if n == 0:
            return [()]
        out = []
        for k in range(1, n + 1):
            for t in trees(k):
                for rest in forests(n - k):
                    if rest and rest[0].key < t.key:
                        continue
                    out.append((t, *rest))
        return out

    for n in range(0, max_ovals + 1):
        yield from forests(n)
