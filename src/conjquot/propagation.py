"""Derivation search and fact propagation over move graphs.

Two relations order tracked domains: SUCC, generated by the moves
{M0^-1, M1} (so the tracked Euler characteristic strictly drops along
it), and RHD, generated by every move except M2^-1.  Standardness of
Arnold surfaces propagates along SUCC; vanishing of gauge-theoretic
invariants propagates along RHD.

Two graph semantics are exposed:

* :func:`relation_search` walks the raw combinatorial move graph on
  (forest, tracked side) states, ignoring dividing types, and returns a
  replayable certificate.  Every move keeps the tracked side and changes
  the oval count and the tracked Euler characteristic by exactly one
  each, so those two integers bound the moves left to the target from
  below (exactly along SUCC, where each move lowers the Euler
  characteristic).  The search skips every state whose bound exceeds the
  steps left; a state on a shortest path never does, so the certificate
  is the one the uncut search finds.  The same bound cuts before a
  successor exists: a move's class fixes how it changes both integers, up
  to fusion or split, so the search generates only the move families, and
  builds only the successors, that can still reach the target.  Anything
  cut would fail the state cut, and no move onto the target is cut, so the
  certificate stays the same.

* :func:`propagate` closes a set of facts over the catalog of realizable
  (scheme, type) states.  Here edges are discriminant walls, and the
  types matter: the merged side of every cross-node wall is of dividing
  type 2, so a fusion step always lands on the type-2 entry, and a split
  step (a fusion read backwards) is only available from a type-2 state,
  fanning out to every realizable type of the target scheme.  Births and
  deaths of empty ovals do not constrain the type and fan out likewise.
  This asymmetry is what keeps facts at a type-1 state from leaking to
  the type-2 state of the same forest.  A fact carries one label, printed
  as ArnoldStandard under either relation.

Both enumerate only the relation's move families that can still matter,
through one family cut over :data:`_CLASS_STEPS`, read off the kind
table :data:`moves.KINDS`: the search those that can reach its target,
the closure those whose successors' cell holds a state not marked yet,
and births and nest splits only as deep as that cell's forests.
Propagation splits only from a type-2 state, and both judge a successor
by its key before building it.

Facts always carry a replayable path: a chain of move records and axiom
edges back to a seed.  One step check serves search certificates and
fact paths, with the one type rule that :func:`propagate` closes under;
a fact's path must end on its typed state (forest, dividing type and
side), so a fact does not replay after its side or type changes.
A fact's path is its parent's plus one step, so fact replay resumes
after the longest prefix its declaration has verified (the declaration
holds the states reached, never a verdict): one step check per fact.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from functools import cache
from typing import Callable, Iterable, Sequence

from . import fourman
from ._values import dataclass, field
from .domains import Orientability, Side, TrackedScheme, arnold_descriptor, euler_W
from .moves import (
    BAND,
    DECREASING,
    KINDS,
    SPLITS,
    Classification,
    MoveError,
    MoveRecord,
    Rewrite,
    apply,
    enumerate_moves,
    type_after,
)
from .schemes import (
    CurveType,
    RealScheme,
    SchemeCatalogEntry,
    forest_key,
    format_viro,
    harnack_bound,
    parse_viro,
)


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

# Search never leaves the sextic Harnack bound, 11 ovals, nor its own degree's.
MAX_SEARCH_OVALS = 11

# What a move of each class changes, read off the kind table: (class, oval
# count, tracked Euler characteristic, whether it is a split), once each.
_CLASS_STEPS = tuple(dict.fromkeys(
    (c, dn, -1 if c in DECREASING else 1, kind in SPLITS)
    for kind, (_, _, *classes, dn) in KINDS.items() for c in classes
))


def _family_cut(
    allowed: frozenset[Classification], n: int, chi: int, lands: Callable[[int, int, bool], bool]
) -> tuple[frozenset[Classification], bool]:
    """The classes of ``allowed``, and whether splits, with a row of
    :data:`_CLASS_STEPS` whose successor from a state with n ovals and
    tracked chi ``lands(n', chi', fusion)`` admits: n' ovals and tracked
    chi', reached by a fusion or not."""
    near = [(c, split) for c, dn, dchi, split in _CLASS_STEPS
            if c in allowed and lands(n + dn, chi + dchi, c in BAND and not split)]
    return frozenset(c for c, _ in near), any(split for _, split in near)


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


def _lands_on(after: CurveType, curve_type: CurveType) -> bool:
    """Whether a move's successor, of type ``after`` (:func:`type_after`),
    may be read as a state of ``curve_type``."""
    return after in (CurveType.UNKNOWN, curve_type)


def _splits_from(state: TrackedScheme) -> bool:
    """A split runs a fusion backwards, so it only leaves a type-2 state."""
    return state.scheme.curve_type is CurveType.TWO


def _step(
    state: TrackedScheme,
    m: MoveRecord | None,
    expected: TrackedScheme,
    rel: RelationSpec,
) -> TrackedScheme | None:
    """Check one replay step from ``state``; a None move is a trusted axiom
    edge to ``expected``.  A move must be in ``rel``, apply (which checks the
    record's class and Euler characteristic change on both forests), and
    reach the expected forest and side, landing on its type.  Returns the
    state reached, typed as expected, or None if a check fails."""
    if m is None:
        return expected
    if m.classification not in rel.allowed:
        return None
    try:
        after = apply(state, m)
    except MoveError:
        return None
    curve_type = expected.scheme.curve_type
    if state_key(after) != state_key(expected) or not _lands_on(after.scheme.curve_type, curve_type):
        return None
    # Keep the stored forest: later steps address ovals by index paths.
    return TrackedScheme(after.scheme.with_type(curve_type), after.degree, after.outer_tracked)


@dataclass(frozen=True)
class Certificate:
    source: TrackedScheme
    target: TrackedScheme
    moves: tuple[MoveRecord, ...]
    states: tuple[TrackedScheme, ...]  # includes source and final state

    def replay(self, rel: RelationSpec = SUCC) -> bool:
        state = self.states[0]
        start = (state_key(state), state.degree) == (state_key(self.source), self.source.degree)
        if not start or len(self.states) != len(self.moves) + 1:
            return False
        for m, expected in zip(self.moves, self.states[1:]):
            state = _step(state, m, expected, rel)
            if state is None:
                return False
        return (state_key(state), state.degree) == (state_key(self.target), self.target.degree)

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
) -> Certificate | None:
    """Breadth-first derivation search over canonical state keys.

    Returns a replayable certificate, or None when no path of at most
    ``max_steps`` moves exists within :data:`MAX_SEARCH_OVALS` ovals and
    the degree's Harnack bound; absence of a certificate never means the
    relation fails to hold.

    The search never expands a state that cannot reach the target in the
    steps left.  Every move keeps the tracked side and changes the oval
    count n and the tracked Euler characteristic chi by exactly one each,
    so with dn = |n(u) - n(t)| and dchi = chi(u) - chi(t) a state u other
    than the target t is at least max(dn, |dchi|) moves away (2 when both
    are 0).  When every allowed move
    lowers chi, as along SUCC, u is exactly dchi moves away and unreachable
    unless 0 < dchi and dn <= dchi.  A state on a path of length L found
    at depth d is L - d moves from the target, so it and every state
    before it pass the cut: the search meets the target through the same
    parents, in the same order, as the search without the cut.

    The bound also cuts before successors exist.  A move's class fixes its
    change of chi (-1 for the DECREASING classes, +1 otherwise) and its
    change of n up to two values (+1 for a birth, -1 for a death, -1 for a
    fusion and +1 for a split), so an expansion generates only the classes,
    and splits only if some split, whose successors can be the target or
    within the steps left of it.  A successor whose spliced key is not the
    target's is built only if its oval count is within the steps left of
    the target's, and at least one step is left.  States leave the queue
    in depth order, so the steps left never grow: a successor cut at one
    expansion fails the state cut wherever it is met later, and the queue
    receives the same states in the same order.  A move onto the target
    has the target's n and chi, so it is never cut, and the first one
    enumerated is still the one found.
    """
    if source.degree != target.degree:
        raise ValueError("relation search needs equal degrees")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    goal = state_key(target)
    start = state_key(source)
    if start == goal:
        return Certificate(source, target, (), (source,))
    cap = min(MAX_SEARCH_OVALS, harnack_bound(source.degree))
    if target.scheme.oval_count > cap:  # no searched state is the target
        return None
    if source.outer_tracked != target.outer_tracked:  # no move changes the side
        return None
    goal_n, goal_chi = target.scheme.oval_count, euler_W(target, Side.TRACKED)
    graded = rel.allowed <= DECREASING

    def bound(n: int, chi: int) -> float:
        """Fewest moves to the target from a state with n ovals and tracked
        Euler characteristic chi that is not the target."""
        dn, dchi = abs(n - goal_n), chi - goal_chi
        if graded:
            return dchi if 0 < dchi and dn <= dchi else math.inf
        return max(dn, abs(dchi)) or 2

    chi = euler_W(source, Side.TRACKED)
    if bound(source.scheme.oval_count, chi) > max_steps:
        return None
    seen = {start}

    def reaches(n: int, chi: int) -> bool:
        """Whether a successor with n ovals and tracked chi can be the
        target or reach it in the ``left`` steps after it."""
        return (n, chi) == (goal_n, goal_chi) or bound(n, chi) <= left

    def keep(rw: Rewrite, fk: str) -> bool:
        """Claim a forest within the oval cap (one ``(`` per oval), first
        time only; build it only if it is the target or its oval count is
        within the steps left of the target's, and at least one step away."""
        key = (fk, source.outer_tracked)
        n = fk.count("(")
        fresh = n <= cap and key not in seen
        seen.add(key)
        return fresh and (key == goal or max(abs(n - goal_n), 1) <= left)

    # A node is (state, move into it, parent node, steps from the source,
    # tracked chi); the path is read back through the parents once, at the goal.
    frontier: deque[tuple] = deque([(source, None, None, 0, chi)])
    while frontier:
        node = frontier.popleft()
        state, _, _, steps, chi = node
        left = max_steps - steps - 1
        allowed, splits = _family_cut(
            rel.allowed, state.scheme.oval_count, chi, lambda n, chi, _: reaches(n, chi)
        )
        for m in enumerate_moves(state, allowed, splits=splits, keep=keep):
            nxt = m.successor
            nxt_chi = chi + m.delta_chi_tracked
            child = (nxt, m, node, steps + 1, nxt_chi)
            if state_key(nxt) == goal:
                moves, states = [], []
                while child is not None:
                    reached, move, child, _, _ = child
                    states.append(reached)
                    if move is not None:
                        moves.append(move)
                return Certificate(source, target, tuple(moves[::-1]), tuple(states[::-1]))
            if bound(nxt.scheme.oval_count, nxt_chi) <= left:
                frontier.append(child)
    return None


# ------------------------------------------------------------------- facts

PREDICATE = "ArnoldStandard"  # the one property a fact carries, under either relation


@dataclass(frozen=True)
class Fact:
    """Standardness of the Arnold surface at one realizable typed state,
    with the chain of walls (or axiom edges) that established it."""

    state: TrackedScheme
    provenance: str  # "lcurve-seed" | "pencil-perturbation-seed" | "axiom-edge" | "propagated"
    path: tuple[dict, ...] = ()

    def record(self) -> dict:
        return {
            "scheme": format_viro(self.state.scheme),
            "side": self.state.tracked_label,
            "predicate": PREDICATE,
            "provenance": self.provenance,
            "path": list(self.path),
        }


# A cell of states: tracked side, oval count and tracked Euler characteristic.
Cell = tuple[bool, int, int]


@dataclass
class FactTable:
    facts: dict[tuple[str, str, bool], Fact] = field(default_factory=dict)

    def add(self, fact: Fact) -> tuple[str, str, bool] | None:
        """Add a fact new to the table and return its typed key; None if it is there."""
        key = typed_key(fact.state)
        if key in self.facts:
            return None
        self.facts[key] = fact
        return key

    def marked(self, scheme: RealScheme, outer_tracked: bool) -> Fact | None:
        return self.facts.get((forest_key(scheme), scheme.curve_type.value, outer_tracked))

    def __len__(self) -> int:
        return len(self.facts)

    def records(self) -> list[dict]:
        return [f.record() for _, f in sorted(self.facts.items())]


@cache
def _universe(entries: frozenset[SchemeCatalogEntry]) -> tuple[int, dict, Counter, Counter]:
    """The universe of realizable typed states a catalog's entries give,
    built once per distinct catalog: its one degree; each typed state's
    cell by its :func:`typed_key`; per cell and "of type 2 only", how many
    states it holds; per cell, its deepest forest."""
    degrees = {e.degree for e in entries}
    if len(degrees) != 1:
        raise ValueError("the universe must have a single degree")
    degree = degrees.pop()
    forests: dict[str, tuple[RealScheme, set[str]]] = {}  # each forest with its types
    for e in entries:
        forests.setdefault(forest_key(e.scheme), (e.scheme, set()))[1].add(e.curve_type.value)
    cells: dict[tuple[str, str, bool], Cell] = {}
    deepest: Counter = Counter()
    for fk, (scheme, types) in forests.items():
        for outer in (False, True):
            cell = (outer, scheme.oval_count, euler_W(TrackedScheme(scheme, degree, outer)))
            cells.update(((fk, ct, outer), cell) for ct in types)
            deepest[cell] = max(deepest[cell], scheme.depth)
    states = Counter((*cell, False) for cell in cells.values())
    states.update((*cell, True) for (_, ct, _), cell in cells.items() if ct == CurveType.TWO.value)
    return degree, cells, states, deepest


def propagate(
    seeds: Iterable[Fact],
    axiom_edges: Iterable[tuple[TrackedScheme, TrackedScheme]],
    rel: RelationSpec,
    universe: Sequence[SchemeCatalogEntry],
) -> FactTable:
    """Close the seed facts under wall edges and axiom edges inside the
    universe of realizable typed states, built once per catalog: a second
    closure over the same entries, in any order, reuses their cells.

    Monotone and idempotent: rerunning on its own output adds nothing.

    A move is enumerated only if it can still mark a state.  Its class
    fixes the cell, (side, oval count, tracked chi), its successor lands
    in (:data:`_CLASS_STEPS`, read off :data:`moves.KINDS`), so a family is
    generated only if its cell holds a universe state not marked yet, of
    type 2 after a fusion; and births and nest splits, the only moves that
    nest deeper, only up to the deepest universe forest in the cells the
    relation's growing families reach.  Each
    candidate cut lands outside the universe or on marked states, so
    ``keep`` would refuse it, and it could only have deduped candidates of
    its kind and successor key, refused alike: the listed moves, their
    order and the facts are those of the uncut closure.
    """
    degree, cells, states, deepest = _universe(frozenset(universe))
    unmarked = states.copy()  # by cell and "of type 2 only", as ``states`` counts the universe

    def check(t: TrackedScheme, what: str) -> None:
        if t.degree != degree or typed_key(t) not in cells:
            raise ValueError(f"{what}{state_label(t)} is not in the degree-{degree} universe")

    growing = [(dn, dchi) for c, dn, dchi, _ in _CLASS_STEPS if dn > 0 and c in rel.allowed]

    table = FactTable()
    work: deque[tuple[Fact, Cell]] = deque()

    def mark(fact: Fact) -> None:
        """Add a fact of the universe, if new, to the table, off its cell's
        count of unmarked states, and to the queue with that cell."""
        key = table.add(fact)  # the typed key, or None if known
        if key:
            cell = cells[key]
            unmarked[(*cell, False)] -= 1
            unmarked[(*cell, True)] -= key[1] == CurveType.TWO.value
            work.append((fact, cell))

    for fact in seeds:
        check(fact.state, "seed ")
        mark(fact)
    axioms: dict[tuple[str, str, bool], list[TrackedScheme]] = {}
    for src, dst in axiom_edges:
        for end in (src, dst):
            check(end, f"axiom edge {state_label(src)} -> {state_label(dst)}: ")
        axioms.setdefault(typed_key(src), []).append(dst)

    def extend(dst: TrackedScheme, provenance: str, head: dict) -> None:
        """Mark the fact that one more step, ``head``, carries from the fact
        popped last to ``dst``."""
        step = {**head, "from": source, "to": state_label(dst)}
        mark(Fact(dst, provenance, fact.path + (step,)))

    def landings(after: CurveType, fk: str) -> list[CurveType]:
        """The universe types of ``fk`` a successor of type ``after`` lands on, not marked yet."""
        return [ct for ct in (CurveType.ONE, CurveType.TWO) if _lands_on(after, ct)
                and (key := (fk, ct.value, side)) in cells and key not in table.facts]

    def keep(rw: Rewrite, fk: str) -> bool:
        return bool(landings(type_after(rw), fk))

    def lands(n: int, chi: int, fusion: bool) -> bool:
        """Whether the cell of n ovals and tracked chi on the popped fact's
        side holds a state, of type 2 after a fusion, not marked yet."""
        return unmarked[(side, n, chi, fusion)] > 0

    while work:
        fact, (side, n, chi) = work.popleft()
        state = fact.state
        source = fact.path[-1]["to"] if fact.path else state_label(state)
        allowed, splits = _family_cut(rel.allowed, n, chi, lands)
        cap = max((deepest[side, n + dn, chi + dchi] for dn, dchi in growing), default=0)
        found = enumerate_moves(
            state, allowed, splits=splits and _splits_from(state), keep=keep, depth_cap=cap
        ) if allowed else ()
        for m in found:
            after = m.successor
            for ct in landings(after.scheme.curve_type, forest_key(after.scheme)):
                target = TrackedScheme(after.scheme.with_type(ct), degree, side)
                extend(target, "propagated", {"edge": "move", **m.record()})
        for dst in axioms.get(typed_key(state), ()):  # trusted non-move edges
            extend(dst, "axiom-edge", {"edge": "axiom"})
    return table


@dataclass(frozen=True)
class Declared:
    """The inputs a fact closure trusts: seed facts and axiom edges.  A
    fact path names states by label and addresses ovals in the seeds' and
    the edge targets' own stored forests.

    The replay memo holds one entry per distinct path prefix verified
    against the declaration, kept as long as the declaration lives: for
    the whole process on the sweep's cached declaration, and bounded by its
    file for a declaration read from one seed file."""

    seeds: tuple[Fact, ...]
    axiom_edges: tuple[tuple[TrackedScheme, TrackedScheme], ...] = ()
    # The seeds by typed key, degree and provenance, the seed states by
    # label and the edge targets by (typed key of the source, label).
    _index: tuple = field(init=False, repr=False, compare=False)
    # The state each prefix verified by replay_fact reaches, by relation,
    # then (((start,), repr(step 0)), ...): the repr of a step of JSON
    # values pins their content, types and order.
    _reached: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", (
            {(typed_key(f.state), f.state.degree, f.provenance) for f in self.seeds},
            {state_label(f.state): f.state for f in self.seeds},
            {(typed_key(a), state_label(b)): b for a, b in self.axiom_edges},
        ))

    @classmethod
    def from_records(cls, lines: Iterable[str], degree: int) -> Declared:
        """Decode a seed file: JSON lines ``{"scheme", "side"}`` with an
        optional ``"predicate"``, which must be ArnoldStandard, and
        ``"provenance"`` (lcurve-seed), and axiom edges ``{"edge": "axiom",
        "from", "to"}`` between state labels.  A bad line raises ValueError naming it."""
        import json  # only seed files need it, so importing the package skips it
        seeds, axioms = [], []
        for num, ln in enumerate(lines, 1):
            if not ln.strip():
                continue
            try:
                rec = json.loads(ln)
                axiom = isinstance(rec, dict) and rec.get("edge") == "axiom"
                need = ("from", "to") if axiom else ("scheme", "side")
                if not isinstance(rec, dict) or not all(isinstance(rec.get(k), str) for k in need):
                    raise ValueError(f"needs string {need[0]!r} and {need[1]!r}")
                if axiom:
                    axioms.append(tuple(parse_state_label(rec[k], degree) for k in need))
                    continue
                if rec["side"] not in ("+", "-"):
                    raise ValueError("side must be '+' or '-'")
                provenance = rec.get("provenance", "lcurve-seed")
                if not isinstance(provenance, str):
                    raise ValueError(f"provenance {provenance!r} is not a string")
                if rec.get("predicate", PREDICATE) != PREDICATE:
                    raise ValueError(f"predicate must be {PREDICATE!r}, got {rec['predicate']!r}")
                state = TrackedScheme(parse_viro(rec["scheme"]), degree, rec["side"] == "-")
                seeds.append(Fact(state, provenance))
            except ValueError as err:
                raise ValueError(f"seed line {num}: {err}") from None
        return cls(tuple(seeds), tuple(axioms))


def replay_fact(fact: Fact, rel: RelationSpec = SUCC, declared: Declared | None = None) -> bool:
    """Re-run a fact's path with the one step check against ``declared``,
    by default the sweep's one cached declaration, so that every default
    call resumes from the same memo.  The path must start at a declared
    seed, on its stored forest; each step must start where the last one
    ended and be a ``"move"`` or an ``"axiom"`` edge; a move must pass
    :func:`_step` to its label read at the reached state's degree, and a
    split must start from a type-2 state; an axiom step must be a declared
    edge from the state reached, and lands on the edge's own target; and
    the path must end on the fact's typed state (forest, dividing type and
    side) and degree.  A pathless fact must be a seed, with its degree and
    provenance.  A malformed or non-applying path gives False, never an
    error.

    Replay resumes after the longest prefix of the path that ``declared``
    has already verified under ``rel``.  The declaration keeps the state
    each verified prefix reaches, keyed by the steps' content, and never a
    verdict: the end-state check runs on every call."""
    declared = declared or _sweep_declared()
    seed_keys, starts, targets = declared._index
    if not fact.path:
        return (typed_key(fact.state), fact.state.degree, fact.provenance) in seed_keys
    try:
        memo = declared._reached.setdefault(rel, {})
        label = fact.path[0]["from"]
        key = (label,)
        state = starts[label]  # a KeyError if not a declared seed
        for step in fact.path:
            key = key, repr(step)
            reached = memo.get(key)
            if reached is None:
                if step["from"] != label or step["edge"] not in ("axiom", "move"):
                    return False
                if step["edge"] == "axiom":
                    m, expected = None, targets.get((typed_key(state), step["to"]))
                    if expected is None:
                        return False
                else:
                    m = MoveRecord.from_record(step)
                    if isinstance(m.rewrite, SPLITS) and not _splits_from(state):
                        return False
                    expected = parse_state_label(step["to"], state.degree)
                reached = _step(state, m, expected, rel)
                if reached is None:
                    return False
                memo[key] = reached
            state = reached
            label = step["to"]
    except (KeyError, TypeError, ValueError):
        return False
    return typed_key(state) == typed_key(fact.state) and state.degree == fact.state.degree


# ------------------------------------------------------------------- sweep

SWEEP_DEGREE = 6
PENCIL_SEED = "pencil-perturbation-seed"
# The minus-side states the sweep's closure never marks.
EXPECTED_MINUS_EXCEPTIONS = ("<1 u 1<9>>_1", "<1 u 1<8>>_2", "<1<9>>_2", "<1<8>>_2")


@cache
def _sweep_declared() -> Declared:
    """The sweep's declaration, read from its packaged seed file on first use."""
    from importlib import resources
    text = resources.files("conjquot.data").joinpath("sextic-seeds.jsonl").read_text("utf-8")
    return Declared.from_records(text.splitlines(), SWEEP_DEGREE)


def _sweep_named_rows() -> list[RealScheme]:
    """The rows the sweep requires: its seeds, its axiom edges' ends and its exceptions."""
    d = _sweep_declared()
    ends = [f.state for f in d.seeds] + [end for edge in d.axiom_edges for end in edge]
    return [t.scheme for t in ends] + list(map(parse_viro, EXPECTED_MINUS_EXCEPTIONS))


def __getattr__(name: str):  # PEP 562: importing the module reads no seed file
    if name == "SWEEP_DECLARED":
        return _sweep_declared()
    if name == "SWEEP_NAMED_ROWS":  # typed codes; the packaged catalog tags them sweep drivers
        return tuple(dict.fromkeys(map(format_viro, _sweep_named_rows())))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[dict, ...]  # the records the sweep prints, two per catalog entry
    minus_exceptions: tuple[str, ...]
    plus_exceptions: tuple[str, ...]
    table: FactTable

    def records(self) -> list[dict]:
        return list(self.rows)


def sextic_sweep(catalog: Sequence[SchemeCatalogEntry]) -> SweepReport:
    """Propagate standardness over the whole sextic catalog from the
    sweep's declaration, the packaged ``data/sextic-seeds.jsonl``.

    The closure marks the orientable-side surface standard for every entry
    and the other side for all but four.  A row's words are the double
    covers of S4 branched along the standard forms of its Arnold surface.
    """
    if {e.degree for e in catalog} != {SWEEP_DEGREE}:
        raise ValueError(f"the sextic sweep needs a catalog of degree-{SWEEP_DEGREE} rows only")
    cells = _universe(frozenset(catalog))[1]
    for want in _sweep_named_rows():  # the exceptions too, though never marked
        if (forest_key(want), want.curve_type.value, False) not in cells:
            raise ValueError(f"catalog is missing the required entry {format_viro(want)}")
    declared = _sweep_declared()
    table = propagate(declared.seeds, declared.axiom_edges, SUCC, catalog)

    # A pencil-perturbation seed's Arnold surface bounds an orientable handlebody.
    pencil = {typed_key(f.state) for f in declared.seeds if f.provenance == PENCIL_SEED}
    rows = []
    minus_exc, plus_exc = [], []
    # Type 2 sorts before type 1 of one code, as the packaged catalog lists them.
    for e in sorted(
        catalog, key=lambda e: (e.scheme.oval_count, e.code, e.curve_type is not CurveType.TWO)
    ):
        for outer in (False, True):
            t = TrackedScheme(e.scheme, SWEEP_DEGREE, outer)
            fact = table.marked(e.scheme, outer)
            inv = fourman.double_plane_invariants(t)
            forms = fourman.predict_standard_form(
                arnold_descriptor(t).euler, inv.b2plus_Y, inv.b2minus_Y,
                Orientability.ORIENTABLE if typed_key(t) in pencil else Orientability.UNDETERMINED,
            )
            rows.append({
                "scheme": e.typed_code,
                "side": t.tracked_label,
                "standard": fact is not None,
                "provenance": fact.provenance if fact else "",
                "path_length": len(fact.path) if fact else -1,
                "b2plus_Y": inv.b2plus_Y,
                "b2minus_Y": inv.b2minus_Y,
                "quotient": t.quotient_label,
                "words": [str(fourman.branch_cover_word(f, fourman.S4)) for f in forms],
            })
            if fact is None:
                (minus_exc if outer else plus_exc).append(e.typed_code)
    return SweepReport(tuple(rows), tuple(minus_exc), tuple(plus_exc), table)
