#!/usr/bin/env python3
"""Randomized search for line arrangements whose perturbation realizes a
wanted scheme.

A small perturbation of a product of m lines in general position shrinks
one sign class of the arrangement's faces into ovals, so the reachable
schemes are governed by the face two-coloring.  This script samples
structured and random arrangements of six lines, perturbs with a definite
sextic form and both signs of epsilon, and reports coefficient sets whose
trace stabilizes on the wanted scheme.  Found coefficients get frozen
into the test suite.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conjquot.schemes import format_viro
from conjquot.tracer import (
    GridConfig,
    PolySpec,
    TraceError,
    TracerInternalError,
    l_curve_epsilon,
    l_curve_sample,
)


def definite_sextic() -> PolySpec:
    base = PolySpec.from_dict(2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    from conjquot.tracer import poly_mul

    return poly_mul(poly_mul(base, base), base)


def tangent_lines(angles, radius=0.5):
    return [
        (math.cos(a), math.sin(a), -radius)
        for a in angles
    ]


def candidates(rng: random.Random):
    # tangents to a circle at random angle sets
    while True:
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(6))
        yield tangent_lines(angles, radius=rng.uniform(0.2, 0.5))
        yield [
            (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 0.4))
            for _ in range(6)
        ]


def search(target: str, tries: int = 200, seed: int = 5) -> None:
    rng = random.Random(seed)
    g = definite_sextic()
    grid = GridConfig(192, 768)
    gen = candidates(rng)
    failures = (TraceError, TracerInternalError, ValueError)
    for attempt in range(tries):
        lines = next(gen)
        try:  # the autoscaled epsilon, once per arrangement
            auto = abs(l_curve_epsilon(lines))
        except failures:
            continue
        for eps_scale in (1e-3, 1e-4):
            for sign in (+1, -1):
                eps = sign * auto * eps_scale / 1e-2  # rescaled, with a sign
                try:
                    res = l_curve_sample(lines, g, epsilon=eps, grid=grid)
                except failures:
                    continue
                code = format_viro(res.trace.scheme)
                if code == target:
                    print(f"FOUND after {attempt + 1} tries, eps={res.epsilon:.3e}")
                    for ln in lines:
                        print(f"  {ln},")
                    return
    print("not found")


if __name__ == "__main__":
    search(sys.argv[1] if len(sys.argv) > 1 else "<10>")
