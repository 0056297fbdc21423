"""Capture the goldens the benchmark compares outputs with.

    python3 perfbench/make_goldens.py

Run from the repository root, at the commit whose outputs are the
reference.  Writes ``perfbench/goldens/{sextic-sweep,derive-search,cli-cold}.json``:

* sextic-sweep: the fact count and SHA-256 digests of the sorted sweep
  records and of the fact table.  The sweep is run on the packaged
  catalog and on shuffled copies; sorted digests must agree (the row
  order itself follows the catalog order, so unsorted records differ).
* derive-search: for every catalog forest, side and relation, the
  catalog forests reachable in at most two moves within the search's
  oval bound, with their distance.  Computed by a breadth-first walk of
  its own over ``enumerate_moves``/``apply``, not by ``relation_search``.
* cli-cold: stdout and exit code of each fixed command line.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path("src").resolve()
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

MAX_OVALS = 11  # relation_search's default oval bound


def sweep_golden() -> dict:
    from conjquot import propagation
    from conjquot.schemes import default_catalog

    catalog = list(default_catalog())
    digests = set()
    raw = set()
    for order in range(3):
        rows = list(catalog)
        if order:
            random.Random(order).shuffle(rows)
        report = propagation.sextic_sweep(rows)
        records = report.records()
        raw.add(workloads.digest([json.dumps(records)]))
        digests.add((workloads.digest(records), workloads.digest(report.table.records()),
                     len(report.table)))
    if len(digests) != 1:
        sys.exit(f"sorted sweep digests depend on row order: {digests}")
    records_sha, facts_sha, facts = digests.pop()
    print(f"sextic-sweep: {facts} facts; {len(raw)} distinct unsorted record digests "
          f"over 3 row orders, 1 sorted")
    return {"facts": facts, "sorted_records_sha256": records_sha, "facts_sha256": facts_sha}


def derive_golden() -> dict:
    from conjquot import moves, propagation
    from conjquot.schemes import forest_key

    codes = workloads.catalog_codes()
    out = {}
    for code in codes:
        for side in "+-":
            source = workloads._tracked(code, side)
            start = propagation.state_key(source)
            children: dict = {}

            def step(state):
                key = propagation.state_key(state)
                if key not in children:
                    children[key] = [(m, moves.apply(state, m)) for m in moves.enumerate_moves(state)]
                return children[key]

            for rel_name, rel in propagation.RELATIONS.items():
                dist = {start: 0}
                frontier = [source]
                for depth in (1, 2):
                    nxt = []
                    for state in frontier:
                        for m, after in step(state):
                            if m.classification not in rel.allowed:
                                continue
                            if after.scheme.oval_count > MAX_OVALS:
                                continue
                            key = propagation.state_key(after)
                            if key not in dist:
                                dist[key] = depth
                                nxt.append(after)
                    frontier = nxt
                reach = {}
                for target in codes:
                    if target == code:
                        continue
                    key = (forest_key(workloads._tracked(target, side).scheme), side == "-")
                    if key in dist:
                        reach[target] = dist[key]
                out[f"{code}|{side}|{rel_name}"] = reach
    print(f"derive-search: {len(out)} (source, side, relation) entries")
    return out


def cli_golden() -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    out = []
    for argv in workloads.CLI_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "conjquot.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        out.append({"argv": list(argv), "exit": proc.returncode, "stdout": proc.stdout})
    print(f"cli-cold: {len(out)} commands, exits {[o['exit'] for o in out]}")
    return out


def main() -> None:
    workloads.GOLDENS.mkdir(exist_ok=True)
    for name, make in (
        ("sextic-sweep", sweep_golden),
        ("cli-cold", cli_golden),
        ("derive-search", derive_golden),
    ):
        path = workloads.GOLDENS / f"{name}.json"
        path.write_text(json.dumps(make(), indent=1, sort_keys=True) + "\n", "utf-8")


if __name__ == "__main__":
    main()
