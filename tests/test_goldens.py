"""Byte-identity of CLI output against snapshots in ``tests/goldens``.

Each ``<name>.out`` file is the stdout of the command line below, captured
before the forest primitives were merged into one walker, one subtree key,
one path codec and one move-record codec; the ``trace-*`` snapshots were
captured before the tracer's region graph became one union-find pass, and
the ``domains-*`` snapshots before the domain Euler characteristics and
component counts were computed without building a region list, and the
``construct-*`` and ``k3-*`` snapshots before the settings that no caller
varied were dropped from the construction specs and quotient words, and
the ``derive-10-*`` snapshots before derivation search was cut by the
oval-count and Euler-characteristic distance to its target, and the
``facts-propagate.table`` snapshot before the move and axiom steps of fact
propagation were built by one helper, and the ``sweep-sextics.table`` and
``facts-propagate-sweep-seeds.records`` snapshots before the sweep's seeds
and axiom edge became one declared value, decoded by the same reader as a
seed file, and its words came from standard-form prediction.
``{goldens}`` in an argument stands for the snapshot directory, which also
holds the input files (the ``.poly`` files are products of circles written
with ``poly_mul``, except the cubic and the definite sextic).
"""

import contextlib
import io
import time
from pathlib import Path

import pytest

from conjquot.cli import main

GOLDENS = Path(__file__).parent / "goldens"

ENUMERATE_STATES = {"3u1l2": "<3 u 1<2>>", "nest3": "<1<1<1>>>_1", "mixed": "<2 u 1<1<1> u 1>>"}

DOMAIN_STATES = {
    "empty-plus": ["<0>", "--side", "+"],
    "empty-minus": ["<0>", "--side", "-"],
    "nest3-plus": ["<1<1<1>>>", "--side", "+"],
    "nest3-minus": ["<1<1<1>>>", "--side", "-"],
    "one-nest9-minus": ["<1 u 1<9>>_1", "--side", "-"],
    "ten-plus": ["<10>_2", "--side", "+"],
    "conic": ["<1>", "--degree", "2"],
    "quartic-oval": ["<1>", "--degree", "4"],
}

CASES = {
    "sweep-sextics.records": ["sweep", "sextics", "--format", "records"],
    "sweep-sextics.table": ["sweep", "sextics"],
    **{
        f"enumerate-{name}{'-plus' if side == '+' else '-minus'}.{fmt}": [
            "moves", "enumerate", code, "--side", side, "--format", fmt,
        ]
        for name, code in ENUMERATE_STATES.items()
        for side in "+-"
        for fmt in ("table", "records")
    },
    **{
        f"domains-{name}{'-regions' if listed else ''}.records": [
            "domains", "invariants", *args, *(["--regions"] if listed else []),
            "--format", "records",
        ]
        for name, args in DOMAIN_STATES.items()
        for listed in (False, True)
    },
    "trace-log-transform.records": [
        "moves", "trace", "<1<1>>", "{goldens}/trace-moves.jsonl", "--side", "-",
        "--format", "records",
    ],
    "apply-log-transform.table": [
        "moves", "apply", "<1<1>>", "{goldens}/trace-moves.jsonl", "--side", "-",
    ],
    "derive-10-9-succ.records": [
        "search", "derive", "<10>_2", "<9>_2", "--side", "+", "--format", "records",
    ],
    "derive-5-2-succ.records": [
        "search", "derive", "<5>", "<2>", "--side", "+", "--format", "records",
    ],
    "derive-2-split-succ.table": [
        "search", "derive", "<2>", "<1 u 1<1>>", "--side", "+",
    ],
    # Nine and ten moves deep; the first is timed below.
    "derive-10-nest3-succ.records": [
        "search", "derive", "<10>_2", "<1<1<1>>>", "--side", "+", "--relation", "succ",
        "--format", "records",
    ],
    "derive-10-0-succ.records": [
        "search", "derive", "<10>_2", "<0>", "--side", "+", "--relation", "succ",
        "--format", "records",
    ],
    "derive-1l1-2-rhd.records": [
        "search", "derive", "<1<1>>", "<2>", "--side", "-", "--relation", "rhd",
        "--format", "records",
    ],
    # Sibling order, and so the w_signs names, follows the region ids.
    "trace-sibling-nest.records": [
        "trace", "poly", "--file", "{goldens}/sibling-nest.poly",
        "--grid", "128", "--grid-cap", "1024", "--format", "records",
    ],
    "trace-sibling-nest-mirrored.records": [
        "trace", "poly", "--file", "{goldens}/sibling-nest-mirrored.poly",
        "--grid", "128", "--grid-cap", "1024", "--format", "records",
    ],
    # At 128 the region graph is not a tree, which lands in the notes.
    "trace-mixed-nest.records": [
        "trace", "poly", "--file", "{goldens}/mixed-nest.poly",
        "--grid", "128", "--grid-cap", "1024", "--format", "records",
    ],
    "trace-cubic.records": [
        "trace", "poly", "--file", "{goldens}/cubic.poly",
        "--grid", "128", "--grid-cap", "1024", "--format", "records",
    ],
    "trace-lcurve-ten-ovals.records": [
        "trace", "lcurve", "--lines", "{goldens}/ten-oval-lines.txt",
        "--g", "{goldens}/definite-sextic.poly", "--epsilon=-7.8e-08",
        "--grid", "512", "--grid-cap", "1024", "--format", "records",
    ],
    "construct-v-pseudoline.records": [
        "construct", "v", "<J>", "--base-degree", "3", "--on-pseudoline", "--format", "records",
    ],
    "construct-v-conic.records": [
        "construct", "v", "<1>_1", "--base-degree", "2", "--format", "records",
    ],
    "construct-u-cubic.records": [
        "construct", "u", "<J u 1>_1", "--base-degree", "3", "--basepoints", "J:9",
        "--format", "records",
    ],
    "construct-u-type2.records": [
        "construct", "u", "<2>_2", "--base-degree", "4", "--basepoints", "0:16",
        "--format", "records",
    ],
    "construct-fibered-elliptic.records": [
        "construct", "fibered", "--elliptic-name", "E(2)_3", "--format", "records",
    ],
    "construct-fibered-mixed.records": [
        "construct", "fibered", "--double-fiber-types", "1,2", "--imaginary-pairs", "1",
        "--format", "records",
    ],
    "construct-imaginary-full.records": [
        "construct", "imaginary", "--base-degree", "3", "--real-intersections", "9",
        "--format", "records",
    ],
    "construct-imaginary-short.records": [
        "construct", "imaginary", "--base-degree", "3", "--real-intersections", "5",
        "--format", "records",
    ],
    "k3-s10-s0.records": ["k3", "classify", "--xr", "S10+S0", "--format", "records"],
    "k3-8s0-vanishes.records": [
        "k3", "classify", "--xr", "8S0", "--class-vanishes", "--format", "records",
    ],
    "facts-propagate.records": [
        "facts", "propagate", "{goldens}/seeds.jsonl", "--catalog", "{goldens}/catalog.tsv",
        "--format", "records",
    ],
    # The records golden sorts keys; the table prints each step as built.
    "facts-propagate.table": [
        "facts", "propagate", "{goldens}/seeds.jsonl", "--catalog", "{goldens}/catalog.tsv",
    ],
    # The sweep's own seeds and axiom edge close to the sweep's 126 facts.
    "facts-propagate-sweep-seeds.records": [
        "facts", "propagate", "{goldens}/sweep-seeds.jsonl", "--format", "records",
    ],
}


def run_case(name: str) -> str:
    """The stdout of one case's command line."""
    argv = [a.format(goldens=GOLDENS) for a in CASES[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert run_case(name) == (GOLDENS / f"{name}.out").read_text("utf-8")


def test_every_golden_has_a_case():
    # A snapshot without a command is never checked; a command without a
    # snapshot fails only when it runs.
    assert {p.name[: -len(".out")] for p in GOLDENS.glob("*.out")} == set(CASES)


def test_long_search_is_quick():
    # The distance cut keeps a nine-move SUCC search off the states that
    # cannot reach the target; without it the search takes seconds.
    start = time.perf_counter()
    run_case("derive-10-nest3-succ.records")
    assert time.perf_counter() - start < 2.0
