"""Byte-identity of CLI output against snapshots in ``tests/goldens``.

Each ``<name>.out`` file is the stdout of the command line below, captured
before the forest primitives were merged into one walker, one subtree key,
one path codec and one move-record codec.  ``{goldens}`` in an argument
stands for the snapshot directory, which also holds the input files.
"""

import contextlib
import io
from pathlib import Path

import pytest

from conjquot.cli import main

GOLDENS = Path(__file__).parent / "goldens"

ENUMERATE_STATES = {"3u1l2": "<3 u 1<2>>", "nest3": "<1<1<1>>>_1", "mixed": "<2 u 1<1<1> u 1>>"}

CASES = {
    "sweep-sextics.records": ["sweep", "sextics", "--format", "records"],
    **{
        f"enumerate-{name}{'-plus' if side == '+' else '-minus'}.{fmt}": [
            "moves", "enumerate", code, "--side", side, "--format", fmt,
        ]
        for name, code in ENUMERATE_STATES.items()
        for side in "+-"
        for fmt in ("table", "records")
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
    "derive-1l1-2-rhd.records": [
        "search", "derive", "<1<1>>", "<2>", "--side", "-", "--relation", "rhd",
        "--format", "records",
    ],
    "facts-propagate.records": [
        "facts", "propagate", "{goldens}/seeds.jsonl", "--catalog", "{goldens}/catalog.tsv",
        "--format", "records",
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
