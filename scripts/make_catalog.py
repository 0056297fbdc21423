#!/usr/bin/env python3
"""Regenerate the packaged sextic catalog (src/conjquot/data/sextics.tsv).

The rows are the classically known isotopy classes of nonempty
nonsingular sextic schemes, together with the dividing types in which
each is realizable.  The rules encoded here:

* schemes: a disjoint ovals, or a ovals next to one oval with b ovals
  inside, plus the depth-three nest; a line through two nonempty ovals
  would meet the curve more than six times, so nothing deeper or doubled
  exists;
* at most 11 ovals (Harnack); with 11 only a - b in {-8, 0, 8}
  (the mod-8 congruence for maximal curves); with 10 only
  a - b in {-9, -7, -1, 1, 7} among nested schemes, plus ten disjoint
  ovals;
* type-1 realizability follows the complex orientation count: a scheme
  with b injective pairs and l ovals divides only if l is odd,
  a - b = 0 mod 4 and |a + b - 8| <= 2b; the only unnested dividing
  scheme is <9>, and the deep nest (swept out by a totally real pencil)
  divides always;
* maximal curves and the nest are type 1 only; ten-oval curves are type
  2 only; everything else not passing the orientation count is type 2
  only.

The rows the sextic sweep names (``propagation.SWEEP_NAMED_ROWS``) are
tagged as sweep drivers; the rest carry the external-classification tag.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conjquot.propagation import SWEEP_NAMED_ROWS
from conjquot.schemes import load_catalog


def nested_code(a: int, b: int) -> str:
    inner = f"1<{b}>"
    return f"<{inner}>" if a == 0 else f"<{a} u {inner}>"


def dividing_capable(a: int, b: int) -> bool:
    """Orientation count for <a u 1<b>>: b injective pairs, a+b+1 ovals."""
    if (a + b) % 2:
        return False
    if (a - b) % 4:
        return False
    return abs(a + b - 8) <= 2 * b


def rows() -> list[tuple[str, int, str, str]]:
    out = []

    def add(code: str, curve_type: str):
        named = f"{code}_{curve_type}" in SWEEP_NAMED_ROWS
        out.append((code, 6, curve_type, "sweep-driver" if named else "external-classification"))

    for a in range(1, 11):
        add(f"<{a}>", "2")
        if a == 9:
            add("<9>", "1")

    for total in range(1, 11):
        for b in range(1, total + 1):
            a = total - b
            if total == 10 and (a - b) not in (-8, 0, 8):
                continue
            if total == 9 and (a - b) not in (-9, -7, -1, 1, 7):
                continue
            code = nested_code(a, b)
            if total == 10:
                add(code, "1")  # maximal curves divide
                continue
            add(code, "2")
            if dividing_capable(a, b):
                add(code, "1")

    add("<1<1<1>>>", "1")
    return out


def main() -> None:
    lines = [
        "# Nonempty sextic schemes with their realizable dividing types.",
        "# code<TAB>degree<TAB>type<TAB>provenance_tag",
    ]
    for code, degree, curve_type, tag in rows():
        lines.append(f"{code}\t{degree}\t{curve_type}\t{tag}")
    target = Path(__file__).resolve().parent.parent / "src" / "conjquot" / "data" / "sextics.tsv"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 2} rows to {target}")
    entries = load_catalog(lines)
    print(f"catalog loads: {len(entries)} entries")


if __name__ == "__main__":
    main()
