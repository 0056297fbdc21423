"""Derivation search and fact propagation over move graphs.

Two relations order tracked domains: SUCC, generated by the moves
{M0^-1, M1} (so the tracked Euler characteristic strictly drops along
it), and RHD, generated by every move except M2^-1.  Standardness of
Arnold surfaces propagates along SUCC; vanishing of gauge-theoretic
invariants propagates along RHD.

Two graph semantics are exposed:

* :func:`relation_search` walks the raw combinatorial move graph on
  (forest, tracked side) states, ignoring dividing types, and returns a
  replayable certificate.

* :func:`propagate` closes a set of facts over the catalog of realizable
  (scheme, type) states.  Here edges are discriminant walls, and the
  types matter: the merged side of every cross-node wall is of dividing
  type 2, so a fusion step always lands on the type-2 entry, and a split
  step (a fusion read backwards) is only available from a type-2 state,
  fanning out to every realizable type of the target scheme.  Births and
  deaths of empty ovals do not constrain the type and fan out likewise.
  This asymmetry is what keeps facts at a type-1 state from leaking to
  the type-2 state of the same forest.

Facts always carry a replayable path: a chain of move records and axiom
edges back to a seed.  One replay check serves search certificates and
fact paths; a fact's path must end on its typed state (forest, dividing
type and side), so a fact does not replay after its side or type changes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Sequence

from . import fourman
from .domains import Orientability, Side, SurfaceDescriptor, TrackedScheme, euler_W
from .moves import (
    FUSIONS,
    SPLITS,
    Classification,
    MoveError,
    MoveRecord,
    apply,
    enumerate_moves,
)
from .schemes import (
    CurveType,
    RealScheme,
    SchemeCatalogEntry,
    forest_key,
    format_viro,
    parse_viro,
)


class Predicate(Enum):
    ARNOLD_STANDARD = "ArnoldStandard"
    SW_VANISH = "SWVanish"


@dataclass(frozen=True)
class RelationSpec:
    name: str
    allowed: frozenset[Classification]


SUCC = RelationSpec("succ", frozenset({Classification.M0_INV, Classification.M1}))
RHD = RelationSpec(
    "rhd",
    frozenset(c for c in Classification if c is not Classification.M2_INV),
)

RELATIONS = {"succ": SUCC, "rhd": RHD}


def state_key(t: TrackedScheme) -> tuple[str, bool]:
    """Search identity: forest up to isomorphism plus the tracked side."""
    return forest_key(t.scheme), t.outer_tracked


def typed_key(t: TrackedScheme) -> tuple[str, str, bool]:
    return forest_key(t.scheme), t.scheme.curve_type.value, t.outer_tracked


def state_label(t: TrackedScheme) -> str:
    return f"{format_viro(t.scheme)}{t.tracked_label}"


def parse_state_label(label: str, degree: int) -> TrackedScheme:
    """Inverse of :func:`state_label`: a typed code followed by its side."""
    if label[-1:] not in ("+", "-"):
        raise ValueError(f"state label {label!r} does not end in a side")
    return TrackedScheme(parse_viro(label[:-1]), degree, label[-1] == "-")


# ------------------------------------------------------------- certificates


def _replay(
    start: TrackedScheme,
    steps: Iterable[tuple[MoveRecord | None, TrackedScheme]],
    rel: RelationSpec,
) -> TrackedScheme | None:
    """Run (move, expected state) steps, a None move being a trusted axiom
    edge.  A move must apply, be in ``rel``, reach the expected forest and
    side with a compatible type (a fusion lands on type 2) and, along
    SUCC, strictly drop the tracked Euler characteristic.  Returns the end
    state, typed as the steps say, or None at the first failing step."""
    state, chi = start, euler_W(start, Side.TRACKED)
    for m, expected in steps:
        if m is None:
            state, chi = expected, euler_W(expected, Side.TRACKED)
            continue
        if m.classification not in rel.allowed:
            return None
        try:
            after = apply(state, m)
        except MoveError:
            return None
        if state_key(after) != state_key(expected):
            return None
        curve_type = expected.scheme.curve_type
        if after.scheme.curve_type not in (CurveType.UNKNOWN, curve_type):
            return None
        new_chi = euler_W(after, Side.TRACKED)
        if rel is SUCC and new_chi >= chi:
            return None
        # Keep the stored forest: later steps address ovals by index paths.
        state, chi = replace(after, scheme=after.scheme.with_type(curve_type)), new_chi
    return state


@dataclass(frozen=True)
class Certificate:
    source: TrackedScheme
    target: TrackedScheme
    moves: tuple[MoveRecord, ...]
    states: tuple[TrackedScheme, ...]  # includes source and final state

    def replay(self, rel: RelationSpec = SUCC) -> bool:
        start = self.states[0]
        if state_key(start) != state_key(self.source) or len(self.states) != len(self.moves) + 1:
            return False
        end = _replay(start, zip(self.moves, self.states[1:]), rel)
        return end is not None and state_key(end) == state_key(self.target)

    def records(self) -> list[dict]:
        return [
            {"step": i, "state": state_label(s), **m.record()}
            for i, (m, s) in enumerate(zip(self.moves, self.states[1:]))
        ]


def relation_search(
    source: TrackedScheme,
    target: TrackedScheme,
    rel: RelationSpec = SUCC,
    max_steps: int = 64,
    max_ovals: int = 11,
) -> Certificate | None:
    """Breadth-first derivation search over canonical state keys.

    Returns a replayable certificate, or None when no path of at most
    ``max_steps`` moves exists inside the oval bound; absence of a
    certificate never means the relation fails to hold.
    """
    if source.degree != target.degree:
        raise ValueError("relation search needs equal degrees")
    goal = state_key(target)
    start = state_key(source)
    if start == goal:
        return Certificate(source, target, (), (source,))
    seen = {start}
    frontier: deque[tuple[TrackedScheme, tuple[MoveRecord, ...], tuple[TrackedScheme, ...]]]
    frontier = deque([(source, (), (source,))])
    while frontier:
        state, path, states = frontier.popleft()
        if len(path) >= max_steps:
            continue
        for m in enumerate_moves(state):
            if m.classification not in rel.allowed:
                continue
            nxt = apply(state, m)
            if nxt.scheme.oval_count > max_ovals:
                continue
            key = state_key(nxt)
            if key in seen:
                continue
            seen.add(key)
            if key == goal:
                return Certificate(source, target, path + (m,), states + (nxt,))
            frontier.append((nxt, path + (m,), states + (nxt,)))
    return None


# ------------------------------------------------------------------- facts


@dataclass(frozen=True)
class Fact:
    """A predicate attached to one realizable typed state, with the chain
    of walls (or axiom edges) that established it."""

    state: TrackedScheme
    predicate: Predicate
    provenance: str  # "lcurve-seed" | "pencil-perturbation-seed" | "axiom-edge" | "propagated"
    path: tuple[dict, ...] = ()
    orientable_arnold: bool | None = None

    def record(self) -> dict:
        return {
            "scheme": format_viro(self.state.scheme),
            "side": self.state.tracked_label,
            "predicate": self.predicate.value,
            "provenance": self.provenance,
            "path": list(self.path),
        }


FactKey = tuple[str, str, str, bool]


def fact_key(fact: Fact) -> FactKey:
    return (fact.predicate.value, *typed_key(fact.state))


@dataclass
class FactTable:
    facts: dict[FactKey, Fact] = field(default_factory=dict)

    def add(self, fact: Fact) -> bool:
        key = fact_key(fact)
        if key in self.facts:
            return False
        self.facts[key] = fact
        return True

    def marked(
        self,
        scheme: RealScheme,
        outer_tracked: bool,
        predicate: Predicate = Predicate.ARNOLD_STANDARD,
    ) -> Fact | None:
        return self.facts.get(
            (predicate.value, forest_key(scheme), scheme.curve_type.value, outer_tracked)
        )

    def __len__(self) -> int:
        return len(self.facts)

    def records(self) -> list[dict]:
        return [f.record() for _, f in sorted(self.facts.items())]


def _universe_keys(
    universe: Sequence[SchemeCatalogEntry],
) -> tuple[set[tuple[str, str, bool]], dict[str, set[CurveType]], int]:
    keys = set()
    types_by_forest: dict[str, set[CurveType]] = {}
    degrees = {e.degree for e in universe}
    if len(degrees) != 1:
        raise ValueError("the universe must have a single degree")
    for e in universe:
        fk = forest_key(e.scheme)
        types_by_forest.setdefault(fk, set()).add(e.curve_type)
        for side in (False, True):
            keys.add((fk, e.curve_type.value, side))
    return keys, types_by_forest, degrees.pop()


def propagate(
    seeds: Iterable[Fact],
    axiom_edges: Iterable[tuple[TrackedScheme, TrackedScheme]],
    rel: RelationSpec,
    universe: Sequence[SchemeCatalogEntry],
) -> FactTable:
    """Close the seed facts under wall edges and axiom edges inside the
    universe of realizable typed states.

    Monotone and idempotent: rerunning on its own output adds nothing.
    """
    keys, types_by_forest, degree = _universe_keys(universe)
    table = FactTable()
    work: deque[Fact] = deque()
    for fact in seeds:
        if typed_key(fact.state) not in keys:
            raise ValueError(f"seed {state_label(fact.state)} is not in the universe")
        if table.add(fact):
            work.append(fact)
    axioms: dict[tuple[str, str, bool], list[TrackedScheme]] = {}
    for src, dst in axiom_edges:
        axioms.setdefault(typed_key(src), []).append(dst)

    while work:
        fact = work.popleft()
        state = fact.state
        src_type = state.scheme.curve_type
        for m in enumerate_moves(state):
            if m.classification not in rel.allowed:
                continue
            if isinstance(m.rewrite, SPLITS) and src_type is not CurveType.TWO:
                continue  # a split runs a fusion backwards, from its type-2 side
            after = apply(state, m)
            fk = forest_key(after.scheme)
            if isinstance(m.rewrite, FUSIONS):
                target_types: Iterable[CurveType] = (CurveType.TWO,)
            else:
                target_types = sorted(
                    types_by_forest.get(fk, ()), key=lambda c: c.value
                )
            for ct in target_types:
                key = (fk, ct.value, after.outer_tracked)
                if key not in keys or (fact.predicate.value, *key) in table.facts:
                    continue
                target = TrackedScheme(
                    after.scheme.with_type(ct), degree, after.outer_tracked
                )
                step = {
                    "edge": "move",
                    **m.record(),
                    "from": state_label(state),
                    "to": state_label(target),
                }
                new = Fact(target, fact.predicate, "propagated", fact.path + (step,))
                if table.add(new):
                    work.append(new)
        for dst in axioms.get(typed_key(state), ()):  # trusted non-move edges
            key = typed_key(dst)
            if key in keys and (fact.predicate.value, *key) not in table.facts:
                step = {
                    "edge": "axiom",
                    "from": state_label(state),
                    "to": state_label(dst),
                }
                new = Fact(dst, fact.predicate, "axiom-edge", fact.path + (step,))
                if table.add(new):
                    work.append(new)
    return table


def replay_fact(fact: Fact, rel: RelationSpec = SUCC, degree: int = 6) -> bool:
    """Re-run a fact's path with the one replay check; each step must start
    where the last one ended, and the path must end on the fact's typed
    state (forest, dividing type and side).  A malformed or non-applying
    path gives False, never an error."""
    if not fact.path:  # a seed: nothing to replay
        return True
    try:
        label = fact.path[0]["from"]
        start = parse_state_label(label, degree)
        steps = []
        for step in fact.path:
            if step["from"] != label:
                return False
            label = step["to"]
            m = None if step["edge"] == "axiom" else MoveRecord.from_record(step)
            steps.append((m, parse_state_label(label, degree)))
    except (KeyError, TypeError, ValueError):
        return False
    end = _replay(start, steps, rel)
    return end is not None and typed_key(end) == typed_key(fact.state)


# ------------------------------------------------------------------- sweep


EXPECTED_MINUS_EXCEPTIONS = (
    "<1 u 1<9>>_1",
    "<1 u 1<8>>_2",
    "<1<9>>_2",
    "<1<8>>_2",
)


@dataclass(frozen=True)
class SweepRow:
    code: str
    side: str
    standard: bool
    provenance: str
    path_length: int
    b2plus_y: int
    b2minus_y: int
    quotient: str
    words: tuple[str, ...]

    def record(self) -> dict:
        return {
            "scheme": self.code,
            "side": self.side,
            "standard": self.standard,
            "provenance": self.provenance,
            "path_length": self.path_length,
            "b2plus_Y": self.b2plus_y,
            "b2minus_Y": self.b2minus_y,
            "quotient": self.quotient,
            "words": list(self.words),
        }


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    minus_exceptions: tuple[str, ...]
    plus_exceptions: tuple[str, ...]
    table: FactTable

    def records(self) -> list[dict]:
        return [r.record() for r in self.rows]


def _entry(catalog: Sequence[SchemeCatalogEntry], code: str) -> SchemeCatalogEntry:
    want = parse_viro(code)
    for e in catalog:
        if forest_key(e.scheme) == forest_key(want) and e.curve_type is want.curve_type:
            return e
    raise ValueError(f"catalog is missing the required entry {code}")


def sextic_sweep(catalog: Sequence[SchemeCatalogEntry]) -> SweepReport:
    """Propagate standardness over the whole sextic catalog.

    Seeds: the two line-perturbation curves (ten empty ovals, the deep
    nest) on both sides, and the two pencil-perturbation curves (nine
    empty ovals of type 1, and the nine-plus-nest scheme) on the
    orientable side, where their Arnold surfaces bound orientable
    handlebodies.  One trusted axiom edge crosses sides into the type-1
    nest-of-nine state.  The closure marks the orientable-side surface
    standard for every entry and the other side for all but four.
    """
    degree = 6

    def tracked(code: str, outer: bool) -> TrackedScheme:
        return TrackedScheme(_entry(catalog, code).scheme, degree, outer)

    seeds = [
        Fact(tracked("<10>_2", False), Predicate.ARNOLD_STANDARD, "lcurve-seed"),
        Fact(tracked("<10>_2", True), Predicate.ARNOLD_STANDARD, "lcurve-seed"),
        Fact(tracked("<1<1<1>>>_1", False), Predicate.ARNOLD_STANDARD, "lcurve-seed"),
        Fact(tracked("<1<1<1>>>_1", True), Predicate.ARNOLD_STANDARD, "lcurve-seed"),
        Fact(
            tracked("<9>_1", False),
            Predicate.ARNOLD_STANDARD,
            "pencil-perturbation-seed",
            orientable_arnold=True,
        ),
        Fact(
            tracked("<9 u 1<1>>_1", False),
            Predicate.ARNOLD_STANDARD,
            "pencil-perturbation-seed",
            orientable_arnold=True,
        ),
    ]
    for exc in EXPECTED_MINUS_EXCEPTIONS:
        _entry(catalog, exc)  # required rows, even though never marked
    axiom_edges = [
        # A hand-verified deformation crossing sides: from the type-2
        # nine-oval state on the orientable side to the type-1 nest of
        # nine on the other side.
        (tracked("<9>_2", False), tracked("<1<8>>_1", True)),
    ]
    table = propagate(seeds, axiom_edges, SUCC, catalog)

    seed_orientable = {
        typed_key(f.state): f.orientable_arnold for f in seeds if f.orientable_arnold
    }
    rows = []
    minus_exc, plus_exc = [], []
    # Type 2 sorts before type 1 of one code, as the packaged catalog lists them.
    for e in sorted(
        catalog, key=lambda e: (e.scheme.oval_count, e.code, e.curve_type is not CurveType.TWO)
    ):
        for outer in (False, True):
            t = TrackedScheme(e.scheme, degree, outer)
            fact = table.marked(e.scheme, outer)
            inv = fourman.double_plane_invariants(t)
            if typed_key(t) in seed_orientable and inv.b2plus_Y == inv.b2minus_Y:
                words = (str(fourman.word(s2xs2=inv.b2plus_Y)),)
            else:
                words = tuple(
                    str(w)
                    for w in fourman.decomposition(inv.b2plus_Y, inv.b2minus_Y, None)
                )
            rows.append(
                SweepRow(
                    e.typed_code,
                    t.tracked_label,
                    fact is not None,
                    fact.provenance if fact else "",
                    len(fact.path) if fact else -1,
                    inv.b2plus_Y,
                    inv.b2minus_Y,
                    t.quotient_label,
                    words,
                )
            )
            if fact is None:
                (minus_exc if outer else plus_exc).append(e.typed_code)
    return SweepReport(tuple(rows), tuple(minus_exc), tuple(plus_exc), table)


# ------------------------------------------------------------- adjunction


def adjunction_predicates(
    xr: Sequence[SurfaceDescriptor], simple_type: bool = False
) -> list[dict]:
    """Symbolic consequences of the adjunction inequality for the
    components of a real part sitting inside the quotient.

    A component's normal bundle is its tangent bundle rotated a quarter
    turn, so its self-intersection is minus its Euler characteristic.
    """
    preds = []
    if not xr:
        return [
            {
                "component": None,
                "statement": "quotient does not decompose; gauge invariants vanish",
                "basis": "empty real part",
            }
        ]
    for i, comp in enumerate(xr):
        self_int = -comp.euler
        preds.append(
            {
                "component": i,
                "statement": f"self-intersection {self_int}",
                "basis": "normal bundle is i times tangent",
            }
        )
        if comp.orientability is Orientability.ORIENTABLE and comp.euler <= -2:
            preds.append(
                {
                    "component": i,
                    "statement": "polynomial invariants of the quotient vanish",
                    "basis": f"orientable component of genus {(2 - comp.euler) // 2} >= 2",
                }
            )
        if (
            simple_type
            and comp.orientability is Orientability.ORIENTABLE
            and comp.euler <= 0
        ):
            preds.append(
                {
                    "component": i,
                    "statement": "orthogonal to all basic classes",
                    "basis": f"orientable component of genus {(2 - comp.euler) // 2} >= 1",
                }
            )
        if comp.orientability is Orientability.ORIENTABLE and comp.euler == 2:
            preds.append(
                {
                    "component": i,
                    "statement": "|pairing with any basic class| <= 2",
                    "basis": "sphere component",
                }
            )
    return preds
