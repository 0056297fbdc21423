"""The four workloads: seeded inputs, the op each runs, and its checks.

``plan`` uses the standard library only, so the runner can size a batch
without importing the package.  ``prepare``, ``run`` and ``summarize``
run inside worker interpreters, where the repository's ``src`` is first
on the path.  ``check`` compares a plain summary with values computed
here or with goldens captured from the parent commit; it returns the
list of problems, empty when the output is correct.

Batch sizes are fixed functions of ``--seconds`` (rates measured at the
commit that introduced the benchmark, see LAYERS.md), never of elapsed
time, so two commits run the same ops.  A run executes its batch
``REPEATS`` times, so a batch is sized to ``seconds / REPEATS``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens"
CATALOG_TSV = Path("src") / "conjquot" / "data" / "sextics.tsv"

# The paper's four minus-side exceptions, written out here so the check
# does not read the package's own copy.
PAPER_MINUS_EXCEPTIONS = ("<1 u 1<9>>_1", "<1 u 1<8>>_2", "<1<9>>_2", "<1<8>>_2")

# The frozen ten-oval L-curve: six lines whose perturbation by the
# definite sextic (x^2 + y^2 + z^2)^3 realizes ten empty ovals.
TEN_OVAL_LINES = (
    (-0.370925, 1.127010, -0.388778),
    (0.572332, -1.181086, -0.831562),
    (-0.484989, -0.284424, 0.090466),
    (0.945654, -0.411938, -0.180854),
    (0.766402, 0.431103, -0.025170),
    (0.239445, -2.188252, -0.272109),
)
TEN_OVAL_EPSILON = -7.8e-08

TRACE_GRID = (256, 1024)
LCURVE_GRID = (512, 1024)
MIN_GAP = 0.02
REPEATS = 2

CLI_COMMANDS = (
    ("scheme", "parse", "<1 u 1<9>>_1"),
    ("scheme", "validate", "<12>", "--degree", "6"),
    ("domains", "invariants", "<10>_2", "--degree", "6", "--side", "-"),
    ("moves", "enumerate", "<3 u 1<2>>", "--side", "+"),
    ("search", "derive", "<10>", "<9>", "--side", "+", "--relation", "succ", "--max-steps", "1"),
    ("k3", "classify", "--xr", "S10+S0"),
    ("construct", "v", "<J>", "--base-degree", "3", "--on-pseudoline"),
    ("construct", "u", "<J u 1>_1", "--base-degree", "3", "--basepoints", "J:9"),
    ("construct", "fibered", "--quotient", "S4", "--fiber-genus", "1",
     "--double-fiber-types", "1", "--elliptic-name", "E(1)"),
    ("trace", "poly", "--poly", "2 0 0 1;0 2 0 1;0 0 2 -0.25", "--grid", "64", "--grid-cap", "256"),
)


def load_golden(name: str):
    """The workload's goldens, or None for a workload checked without any."""
    path = GOLDENS / f"{name}.json"
    return json.loads(path.read_text("utf-8")) if path.exists() else None


def _rounds(seconds: float, round_s: float) -> int:
    return max(1, round(seconds / round_s))


# ----------------------------------------------- forests, read independently


def parse_code(code: str) -> list:
    """An angle-bracket code as a nested list: each oval is the list of
    the ovals directly inside it.  Written apart from the package's
    parser so the checks do not trust it."""
    pos = 0

    def body() -> list:
        nonlocal pos
        if code.startswith("0>", pos):
            pos += 1
            return []
        out = []
        while True:
            start = pos
            while code[pos].isdigit():
                pos += 1
            count = int(code[start:pos])
            inner = []
            if code[pos] == "<":
                pos += 1
                inner = body()
                assert code[pos] == ">"
                pos += 1
            out.extend(inner for _ in range(count))
            if not code.startswith(" u ", pos):
                return out
            pos += 3

    assert code[0] == "<"
    pos = 1
    forest = body()
    assert code[pos] == ">"
    return forest


def canon(forest) -> str:
    """Isomorphism-invariant string of a nested-list forest."""
    return "".join(sorted("[" + canon(o) + "]" for o in forest))


def nontracked_euler(forest: list, side: str) -> int:
    """Euler characteristic of the domain that the real part covers.

    The outer region (level 0) has 1 - #roots; the region inside an oval
    at depth d is at level d and has 1 - #children.  Side '+' tracks the
    odd levels, so the real part covers the even ones; side '-' the
    reverse.
    """
    covered_parity = 0 if side == "+" else 1
    total = 1 - len(forest) if covered_parity == 0 else 0
    stack = [(o, 1) for o in forest]
    while stack:
        oval, level = stack.pop()
        if level % 2 == covered_parity:
            total += 1 - len(oval)
        stack.extend((c, level + 1) for c in oval)
    return total


def digest(records) -> str:
    lines = sorted(json.dumps(r, sort_keys=True) for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def catalog_codes(root: Path = Path(".")) -> list[str]:
    """Distinct forest codes of the packaged sextic catalog, in file order."""
    codes: list[str] = []
    for line in (root / CATALOG_TSV).read_text("utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            code = line.split("\t")[0]
            if code not in codes:
                codes.append(code)
    return codes


def _tracked(code: str, side: str):
    from conjquot.domains import TrackedScheme
    from conjquot.schemes import parse_viro

    return TrackedScheme(parse_viro(code), 6, outer_tracked=(side == "-"))


# ------------------------------------------------------------- sextic-sweep


class SexticSweep:
    """One op: the sweep over the packaged catalog in a seeded row order,
    then ``replay_fact`` on every fact.  One fresh worker per op."""

    name = "sextic-sweep"
    op_s = 2.0  # worker start plus sweep plus replay
    fresh_worker_per_op = True

    def plan(self, seed: int, seconds: float) -> list[dict]:
        rng = random.Random(seed)
        n = max(2, round(seconds / REPEATS / self.op_s))
        return [{"order": rng.randrange(2**32)} for _ in range(n)]

    def prepare(self, spec: dict):
        from conjquot.schemes import default_catalog

        rows = list(default_catalog())
        random.Random(spec["order"]).shuffle(rows)
        return rows

    def run(self, catalog):
        from conjquot import propagation

        report = propagation.sextic_sweep(catalog)
        facts = list(report.table.facts.values())
        replays = [propagation.replay_fact(f) for f in facts]
        return report, replays

    def summarize(self, output) -> dict:
        report, replays = output
        return {
            "minus": list(report.minus_exceptions),
            "plus": list(report.plus_exceptions),
            "replays": replays,
            "records": report.records(),
            "facts": report.table.records(),
        }

    def check(self, spec: dict, s: dict, golden: dict) -> list[str]:
        problems = []
        if sorted(s["minus"]) != sorted(PAPER_MINUS_EXCEPTIONS):
            problems.append(f"minus-side exceptions {sorted(s['minus'])}")
        if s["plus"]:
            problems.append(f"plus-side exceptions {s['plus']}")
        if len(s["replays"]) != golden["facts"] or not all(s["replays"]):
            problems.append(
                f"{sum(map(bool, s['replays']))} of {len(s['replays'])} facts replay, "
                f"want {golden['facts']}"
            )
        for r in s["records"]:
            chi_xr = 2 * nontracked_euler(parse_code(r["scheme"]), r["side"])
            if r["b2plus_Y"] != 1 or r["b2minus_Y"] != 9 + chi_xr // 2:
                problems.append(f"Betti values of {r['scheme']}{r['side']}")
        if digest(s["records"]) != golden["sorted_records_sha256"]:
            problems.append("sorted sweep records differ from the golden")
        if digest(s["facts"]) != golden["facts_sha256"]:
            problems.append("fact table differs from the golden")
        return problems


# ------------------------------------------------------------ derive-search


class DeriveSearch:
    """One op: one ``relation_search`` with ``max_steps=2``.  All ops of a
    run share one worker."""

    name = "derive-search"
    max_steps = 2
    round_s = 10.0  # one round: every catalog forest as source, once per relation
    fresh_worker_per_op = False

    def plan(self, seed: int, seconds: float) -> list[dict]:
        """Each round draws every catalog forest as the source once with
        SUCC and once with RHD, one of the two on each side (a seeded half
        of the sources take SUCC on the minus side), in seeded order; the
        target is another catalog forest, uniform.
        Stratifying the source, relation and side keeps a batch's cost
        steady from seed to seed."""
        rng = random.Random(seed)
        codes = catalog_codes()
        seen = set()
        ops = []
        for _ in range(_rounds(seconds / REPEATS, self.round_s)):
            flipped = set(rng.sample(codes, len(codes) // 2))
            strata = []
            for source in codes:
                plus, minus = ("rhd", "succ") if source in flipped else ("succ", "rhd")
                strata += [(source, plus, "+"), (source, minus, "-")]
            rng.shuffle(strata)
            for source, rel, side in strata:
                while True:
                    target = rng.choice([c for c in codes if c != source])
                    if (source, target, side, rel) not in seen:
                        break
                seen.add((source, target, side, rel))
                ops.append({"source": source, "target": target, "side": side, "rel": rel})
        return ops

    def prepare(self, spec: dict):
        from conjquot import propagation

        return (
            _tracked(spec["source"], spec["side"]),
            _tracked(spec["target"], spec["side"]),
            propagation.RELATIONS[spec["rel"]],
        )

    def run(self, query):
        from conjquot import propagation

        source, target, rel = query
        cert = propagation.relation_search(source, target, rel, max_steps=self.max_steps)
        return query, cert

    def summarize(self, output) -> dict:
        from conjquot.schemes import forest_key

        (source, target, rel), cert = output
        if cert is None:
            return {"steps": None}
        end = cert.states[-1]
        return {
            "steps": len(cert.moves),
            "replay": cert.replay(rel),
            "end": [forest_key(end.scheme), end.outer_tracked],
            "target": [forest_key(target.scheme), target.outer_tracked],
        }

    def check(self, spec: dict, s: dict, golden: dict) -> list[str]:
        key = f"{spec['source']}|{spec['side']}|{spec['rel']}"
        want = golden[key].get(spec["target"])
        if s["steps"] != want:
            return [f"{key} -> {spec['target']}: {s['steps']} steps, golden {want}"]
        if want is not None and not s["replay"]:
            return [f"{key} -> {spec['target']}: certificate does not replay"]
        if want is not None and s["end"] != s["target"]:
            return [f"{key} -> {spec['target']}: certificate ends elsewhere"]
        return []


# --------------------------------------------------------------- trace-grid


def random_forest(rng: random.Random, n: int) -> list:
    """Each new oval goes into a uniformly chosen earlier oval or the
    outer region."""
    roots: list = []
    ovals: list = []
    for _ in range(n):
        new: list = []
        k = rng.randrange(len(ovals) + 1)
        (roots if k == len(ovals) else ovals[k]).append(new)
        ovals.append(new)
    return roots


def layout(forest: list, cx=0.0, cy=0.0, radius=1.0) -> list[tuple[float, float, float]]:
    """Circles realizing a forest: an only child is concentric with its
    parent, several siblings sit side by side along a diameter."""
    out: list[tuple[float, float, float]] = []

    def place(ovals, x, y, r):
        if len(ovals) == 1:
            out.append((x, y, 0.7 * r))
            place(ovals[0], x, y, 0.7 * r)
            return
        width = 1.8 * r / max(len(ovals), 1)
        for i, o in enumerate(ovals):
            ox = x - 0.9 * r + width * (i + 0.5)
            out.append((ox, y, 0.4 * width))
            place(o, ox, y, 0.4 * width)

    place(forest, cx, cy, radius)
    return out


def min_gap(circles) -> float:
    """Smallest radius or distance between two circles' boundaries."""
    gap = min(r for _, _, r in circles)
    for i, (x1, y1, r1) in enumerate(circles):
        for x2, y2, r2 in circles[i + 1 :]:
            d = math.hypot(x1 - x2, y1 - y2)
            if d + min(r1, r2) <= max(r1, r2):
                gap = min(gap, max(r1, r2) - min(r1, r2) - d)
            else:
                gap = min(gap, d - r1 - r2)
    return gap


class TraceGrid:
    """One op: ``trace_scheme`` on a product of circles realizing a seeded
    forest of 1-6 ovals; once per run the frozen ten-oval L-curve."""

    name = "trace-grid"
    round_s = 2.0  # one forest of each size 1..6
    lcurve_s = 2.0
    fresh_worker_per_op = False

    def plan(self, seed: int, seconds: float) -> list[dict]:
        rng = random.Random(seed)
        ops = []
        for _ in range(_rounds(max(seconds / REPEATS - self.lcurve_s, 1.0), self.round_s)):
            sizes = list(range(1, 7))
            rng.shuffle(sizes)
            for n in sizes:
                while True:
                    forest = random_forest(rng, n)
                    circles = layout(forest)
                    if min_gap(circles) >= MIN_GAP:
                        break
                ops.append({"forest": forest, "circles": circles})
        ops.insert(rng.randrange(len(ops) + 1), {"lcurve": True})
        return ops

    def prepare(self, spec: dict):
        from conjquot import tracer

        if spec.get("lcurve"):
            sphere = tracer.PolySpec.from_dict(2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
            g = tracer.poly_mul(tracer.poly_mul(sphere, sphere), sphere)
            return ("lcurve", g)
        p = tracer.circle(*spec["circles"][0])
        for c in spec["circles"][1:]:
            p = tracer.poly_mul(p, tracer.circle(*c))
        return ("forest", p)

    def run(self, inp):
        from conjquot import tracer

        kind, p = inp
        if kind == "lcurve":
            return tracer.l_curve_sample(
                TEN_OVAL_LINES, p, epsilon=TEN_OVAL_EPSILON, grid=tracer.GridConfig(*LCURVE_GRID)
            ).trace
        return tracer.trace_scheme(p, tracer.GridConfig(*TRACE_GRID))

    def summarize(self, result) -> dict:
        def nested(ovals):
            return [nested(o.children) for o in ovals]

        return {
            "stable": result.stable,
            "pseudoline": result.scheme.pseudoline,
            "forest": nested(result.scheme.roots),
        }

    def check(self, spec: dict, s: dict, golden) -> list[str]:
        want = [[] for _ in range(10)] if spec.get("lcurve") else spec["forest"]
        problems = []
        if not s["stable"]:
            problems.append("trace not stable")
        if s["pseudoline"] or canon(s["forest"]) != canon(want):
            problems.append(f"traced {canon(s['forest'])}, want {canon(want)}")
        return problems


# ------------------------------------------------------------------ cli-cold


class CliCold:
    """One op: one fresh ``python -m conjquot.cli`` process."""

    name = "cli-cold"
    round_s = 8.0  # every command once
    fresh_worker_per_op = True

    def plan(self, seed: int, seconds: float) -> list[dict]:
        rng = random.Random(seed)
        ops = []
        for _ in range(_rounds(seconds / REPEATS, self.round_s)):
            order = list(range(len(CLI_COMMANDS)))
            rng.shuffle(order)
            ops.extend({"command": i, "argv": list(CLI_COMMANDS[i])} for i in order)
        return ops

    def prepare(self, spec: dict) -> list[str]:
        return spec["argv"]

    def check(self, spec: dict, s: dict, golden: list) -> list[str]:
        want = golden[spec["command"]]
        problems = []
        if s["exit"] != want["exit"]:
            problems.append(f"{spec['argv'][:2]}: exit {s['exit']}, golden {want['exit']}")
        if s["stdout"] != want["stdout"]:
            problems.append(f"{spec['argv'][:2]}: stdout differs from the golden")
        return problems


WORKLOADS = {w.name: w for w in (SexticSweep(), DeriveSearch(), TraceGrid(), CliCold())}
