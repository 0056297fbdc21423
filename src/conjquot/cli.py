"""Command-line surface over all the engines.

Batch-oriented: every subcommand reads its inputs from flags or files,
prints either an aligned table or sorted-key JSON records (one object
per line), and exits 0 on success, 2 on validation failure (invalid
trace input included), 3 on an unstable or untrustworthy trace.  Each
``cmd_*`` handler returns its records and exit code; only ``main``
prints.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Sequence

from . import domains, fourman, moves, propagation, schemes
from .domains import Side, TrackedScheme
from .schemes import CurveType, parse_viro, plain_digits, plain_real

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNSTABLE = 3


def _emit(records: list[dict], fmt: str) -> None:
    if fmt == "records":
        import json  # only records need it, so a table prints without it
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
        return
    keys: list[str] = []
    for rec in records:
        for k in rec:
            if k not in keys:
                keys.append(k)
    widths = {k: max(len(k), *(len(str(r.get(k, ""))) for r in records)) for k in keys}
    print("  ".join(k.ljust(widths[k]) for k in keys))
    for rec in records:
        print("  ".join(str(rec.get(k, "")).ljust(widths[k]) for k in keys))


def _tracked(code: str, degree: int, side: str) -> TrackedScheme:
    return TrackedScheme(parse_viro(code), degree, outer_tracked=(side == "-"))


def _start(code: str, degree: int, side: str) -> TrackedScheme:
    """A state that moves start from: some curve of the degree has it."""
    t = _tracked(code, degree, side)
    fourman.require_curve(t)
    return t


def _load_catalog(path: str | None) -> tuple[schemes.SchemeCatalogEntry, ...]:
    if path is None:
        return schemes.default_catalog()
    with open(path, encoding="utf-8") as fh:
        return schemes.load_catalog(fh)


def cmd_scheme_parse(args) -> tuple[list[dict], int]:
    s = parse_viro(args.code)
    rec = {
        "code": schemes.format_viro(s),
        "ovals": s.oval_count,
        "depth": s.depth,
        "pseudoline": s.pseudoline,
        "type": s.curve_type.value,
        "canonical_key": schemes.canonical_key(s),
    }
    return [rec], EXIT_OK


def cmd_scheme_validate(args) -> tuple[list[dict], int]:
    s = parse_viro(args.code)
    report = schemes.validate(s, args.degree)
    recs = report.records() or [{"check": "ok", "detail": "passes necessary conditions"}]
    if args.degree >= 3 and not schemes.l_curve_bound(s, args.degree):
        recs.append(
            {"check": "l-curve-bound", "detail": "oval count blocks the line-perturbation tag"}
        )
    return recs, EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_domains_invariants(args) -> tuple[list[dict], int]:
    t = _tracked(args.code, args.degree, args.side)
    arl = domains.arnold_descriptor(t)
    summary = {
        "scheme": schemes.format_viro(t.scheme),
        "side": t.tracked_label,
        "chi_W_tracked": domains.euler_W(t, Side.TRACKED),
        "chi_W_nontracked": domains.euler_W(t, Side.NONTRACKED),
        "components_tracked": domains.components_W(t, Side.TRACKED),
        "components_nontracked": domains.components_W(t, Side.NONTRACKED),
        "arnold": arl.record(),
        "double_plane": fourman.double_plane_invariants(t).record(),
    }
    return ([r.record() for r in domains.regions(t)] if args.regions else [summary]), EXIT_OK


def cmd_moves_enumerate(args) -> tuple[list[dict], int]:
    t = _start(args.code, args.degree, args.side)
    return [
        {**m.record(), "result": schemes.format_viro(m.successor.scheme)}
        for m in moves.enumerate_moves(t)
    ], EXIT_OK


def _run_moves(args) -> tuple[list[TrackedScheme], list[moves.MoveRecord]]:
    """Apply the move file from the start state, a bad line raising ValueError
    that names it; returns the states visited (start first) and the moves made."""
    import json
    states = [_start(args.code, args.degree, args.side)]
    made = []
    with open(args.moves, encoding="utf-8") as fh:
        for num, ln in enumerate(fh, 1):
            if not ln.strip():
                continue
            try:
                rec = json.loads(ln)
                if isinstance(rec, dict) and "rewrite" in rec:  # a full move record
                    rec = rec["rewrite"]
                made.append(moves.make_move(states[-1], moves.rewrite_from_record(rec)))
                if made[-1].successor.scheme.depth > schemes.MAX_DEPTH:
                    raise ValueError(f"move {len(made)} nests deeper than {schemes.MAX_DEPTH}")
            except ValueError as err:
                raise ValueError(f"moves line {num}: {err}") from None
            states.append(made[-1].successor)
    return states, made


def cmd_moves_apply(args) -> tuple[list[dict], int]:
    states, made = _run_moves(args)
    return [
        {"scheme": schemes.format_viro(s.scheme), **m.record()}
        for s, m in zip(states[1:], made)
    ], EXIT_OK


def cmd_moves_trace(args) -> tuple[list[dict], int]:
    states, made = _run_moves(args)
    records = moves.trace_records(states, made)
    for ev in moves.detect_log_transform(list(zip(states, made))):
        records.append({"event": "log_transform", **ev.record()})
    return records, EXIT_OK


def cmd_search_derive(args) -> tuple[list[dict], int]:
    rel = propagation.RELATIONS[args.relation]
    src = _start(args.source, args.degree, args.side)
    dst = _tracked(args.target, args.degree, args.target_side or args.side)
    cert = propagation.relation_search(src, dst, rel, args.max_steps)
    if cert is None:
        return [{"found": False, "note": f"not found <= {args.max_steps} steps"}], EXIT_OK
    return cert.records() or [{"found": True, "steps": 0}], EXIT_OK


def cmd_facts_propagate(args) -> tuple[list[dict], int]:
    catalog = _load_catalog(args.catalog)
    degree = propagation._universe(frozenset(catalog))[0]  # the catalog's one degree
    rel = propagation.RELATIONS[args.relation]
    with open(args.seeds, encoding="utf-8") as fh:
        declared = propagation.Declared.from_records(fh, degree)
    table = propagation.propagate(declared.seeds, declared.axiom_edges, rel, catalog)
    return table.records(), EXIT_OK


def cmd_sweep_sextics(args) -> tuple[list[dict], int]:
    report = propagation.sextic_sweep(_load_catalog(args.catalog))
    exceptions = {
        "summary": "exceptions",
        "minus_side": sorted(report.minus_exceptions),
        "plus_side": sorted(report.plus_exceptions),
    }
    return [*report.records(), exceptions], EXIT_OK


# Smith-Thom: b*(X_R) <= b*(K3) = 24, and each component adds at least 2.
MAX_XR_COMPONENTS = 12


def _parse_xr(text: str):
    """Real-part descriptors like 'S10+S0' or '8S0'."""
    counts = []
    for tok in map(str.strip, text.split("+")):
        if not tok:
            continue
        k, s, genus = tok.partition("S")
        if not (s and plain_digits((k or "1").removeprefix("-")) and plain_digits(genus)):
            raise ValueError(f"real-part component {tok!r} is not of the form kSg, e.g. 8S0")
        mult = int(k or 1)
        if mult < 1:
            raise ValueError(f"multiplicity {mult} of S{genus} must be at least 1")
        counts.append((mult, int(genus)))
    total = sum(mult for mult, _ in counts)
    if total > MAX_XR_COMPONENTS:
        raise ValueError(
            f"a real K3 surface has at most {MAX_XR_COMPONENTS} components, got {total}"
        )
    return [
        domains.SurfaceDescriptor(2 - 2 * genus, domains.Orientability.ORIENTABLE)
        for mult, genus in counts
        for _ in range(mult)
    ]


def cmd_k3_classify(args) -> tuple[list[dict], int]:
    word = fourman.k3_classify(_parse_xr(args.xr), class_vanishes=args.class_vanishes)
    return [{"xr": args.xr, "quotient": str(word)}], EXIT_OK


def cmd_construct_v(args) -> tuple[list[dict], int]:
    from . import constructions
    base = parse_viro(args.base)
    count = args.base_degree ** 2
    points = (
        {constructions.PSEUDOLINE: count} if args.on_pseudoline
        else {(0,): count} if base.roots else {}
    )
    res = constructions.perturb_v(constructions.BaseCurveSpec(base, args.base_degree, points))
    return [res.record()], EXIT_OK


def cmd_construct_u(args) -> tuple[list[dict], int]:
    from . import constructions
    base = parse_viro(args.base)
    points: dict = {}
    if args.basepoints:
        for item in args.basepoints.split(","):
            key, _, count = item.partition(":")
            component = constructions.PSEUDOLINE if key == "J" else domains.parse_path(key)
            if component in points:
                raise ValueError(f"--basepoints names component {key!r} twice")
            if not plain_digits(count.removeprefix("-")):
                raise ValueError(f"--basepoints count {count!r} is not a plain integer")
            points[component] = int(count)
    res = constructions.perturb_u(constructions.BaseCurveSpec(base, args.base_degree, points))
    return [res.record()], EXIT_OK


def cmd_construct_fibered(args) -> tuple[list[dict], int]:
    from . import constructions
    text = args.double_fiber_types
    values = text.split(",") if text else []
    if not set(values) <= {"1", "2"}:
        raise ValueError(f"--double-fiber-types: each type must be 1 or 2, got {text!r}")
    types = tuple(map(CurveType, values))
    spec = constructions.FiberedSpec(
        quotient_q=fourman.parse_word(args.quotient),
        fiber_genus=args.fiber_genus,
        double_fiber_types=types,
        imaginary_pairs=args.imaginary_pairs,
        elliptic_name=args.elliptic_name,
    )
    res = constructions.fibered_quotient(spec)
    return [{"y_minus": str(res.y_minus), "y_plus": res.y_plus.record()}], EXIT_OK


def cmd_construct_imaginary(args) -> tuple[list[dict], int]:
    from . import constructions
    stmt = constructions.imaginary_curve_image(
        args.base_degree, args.real_intersections, not args.not_simply_connected
    )
    return [stmt.record()], EXIT_OK


def cmd_trace_poly(args) -> tuple[list[dict], int]:
    from . import tracer

    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            spec = tracer.PolySpec.from_text(fh.read())
    else:
        spec = tracer.PolySpec.from_text(args.poly.replace(";", "\n"))
    try:
        result = tracer.trace_scheme(spec, tracer.GridConfig(args.grid, args.grid_cap))
    except tracer.UnstableTraceError as err:
        return [{"error": str(err)}], EXIT_UNSTABLE
    return [result.record()], EXIT_OK if result.stable else EXIT_UNSTABLE


def cmd_trace_lcurve(args) -> tuple[list[dict], int]:
    from . import tracer

    with open(args.lines, encoding="utf-8") as fh:
        lines = tracer._lines_from_text(fh.read())
    with open(args.g, encoding="utf-8") as fh:
        g = tracer.PolySpec.from_text(fh.read())
    try:
        result = tracer.l_curve_sample(
            lines, g, epsilon=args.epsilon, grid=tracer.GridConfig(args.grid, args.grid_cap)
        )
    except (tracer.UnstableTraceError, tracer.TracerInternalError) as err:
        return [{"error": str(err)}], EXIT_UNSTABLE
    return [result.record()], EXIT_OK


def _integer(text: str) -> int:
    """argparse's ``type`` for integer flags: ``plain_digits`` after an optional ``-``."""
    if not plain_digits(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"{text!r} is not a plain integer")
    return int(text)


def _real(text: str) -> float:
    """argparse's ``type`` for real flags: ``plain_real``."""
    if not plain_real(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a plain real number")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conjquot",
        description="Oval schemes, elementary moves and quotient topology of double planes.",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "records"), default="table")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, side=True):
        p.add_argument("--degree", type=_integer, default=6)
        if side:
            p.add_argument("--side", choices=("+", "-"), default="+")

    scheme = sub.add_parser("scheme").add_subparsers(dest="sub", required=True)
    p = scheme.add_parser("parse", parents=[fmt])
    p.add_argument("code")
    p.set_defaults(func=cmd_scheme_parse)
    p = scheme.add_parser("validate", parents=[fmt])
    p.add_argument("code")
    common(p, side=False)
    p.set_defaults(func=cmd_scheme_validate)

    dom = sub.add_parser("domains").add_subparsers(dest="sub", required=True)
    p = dom.add_parser("invariants", parents=[fmt])
    p.add_argument("code")
    common(p)
    p.add_argument("--regions", action="store_true", help="emit the region list")
    p.set_defaults(func=cmd_domains_invariants)

    mv = sub.add_parser("moves").add_subparsers(dest="sub", required=True)
    p = mv.add_parser("enumerate", parents=[fmt])
    p.add_argument("code")
    common(p)
    p.set_defaults(func=cmd_moves_enumerate)
    for name, fn in (("apply", cmd_moves_apply), ("trace", cmd_moves_trace)):
        p = mv.add_parser(name, parents=[fmt])
        p.add_argument("code")
        p.add_argument("moves", help="JSON-lines file of rewrites")
        common(p)
        p.set_defaults(func=fn)

    srch = sub.add_parser("search").add_subparsers(dest="sub", required=True)
    p = srch.add_parser("derive", parents=[fmt])
    p.add_argument("source")
    p.add_argument("target")
    common(p)
    p.add_argument("--target-side", choices=("+", "-"), default=None)
    p.add_argument("--relation", choices=tuple(propagation.RELATIONS), default="succ")
    p.add_argument("--max-steps", type=_integer, default=64)
    p.set_defaults(func=cmd_search_derive)

    facts = sub.add_parser("facts").add_subparsers(dest="sub", required=True)
    p = facts.add_parser("propagate", parents=[fmt])
    p.add_argument("seeds", help="JSON-lines of seed facts and axiom edges")
    p.add_argument("--relation", choices=tuple(propagation.RELATIONS), default="succ")
    p.add_argument("--catalog", default=None)
    p.set_defaults(func=cmd_facts_propagate)

    sweep = sub.add_parser("sweep").add_subparsers(dest="sub", required=True)
    p = sweep.add_parser("sextics", parents=[fmt])
    p.add_argument("--catalog", default=None)
    p.set_defaults(func=cmd_sweep_sextics)

    k3 = sub.add_parser("k3").add_subparsers(dest="sub", required=True)
    p = k3.add_parser("classify", parents=[fmt])
    p.add_argument("--xr", required=True, help="e.g. 'S10+S0' or '8S0'")
    p.add_argument("--class-vanishes", action="store_true")
    p.set_defaults(func=cmd_k3_classify)

    cons = sub.add_parser("construct").add_subparsers(dest="sub", required=True)
    v, u = cons.add_parser("v", parents=[fmt]), cons.add_parser("u", parents=[fmt])
    for p, fn in ((v, cmd_construct_v), (u, cmd_construct_u)):
        p.add_argument("base", help="base curve code, J for the one-sided component")
        p.add_argument("--base-degree", type=_integer, required=True)
        p.set_defaults(func=fn)
    v.add_argument("--on-pseudoline", action="store_true")
    u.add_argument("--basepoints", help="comma list like 'J:9,0:0' mapping components to counts")
    p = cons.add_parser("fibered", parents=[fmt])
    p.add_argument("--quotient", default="S4")
    p.add_argument("--fiber-genus", type=_integer, default=1)
    p.add_argument("--double-fiber-types", default="1")
    p.add_argument("--imaginary-pairs", type=_integer, default=0)
    p.add_argument("--elliptic-name", default=None)
    p.set_defaults(func=cmd_construct_fibered)
    p = cons.add_parser("imaginary", parents=[fmt])
    p.add_argument("--base-degree", type=_integer, required=True)
    p.add_argument("--real-intersections", type=_integer, required=True)
    p.add_argument("--not-simply-connected", action="store_true")
    p.set_defaults(func=cmd_construct_imaginary)

    tr = sub.add_parser("trace").add_subparsers(dest="sub", required=True)
    p = tr.add_parser("poly", parents=[fmt])
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--poly", help="inline 'a b c coeff' rows separated by ';'")
    given.add_argument("--file", help="polynomial file")
    p.add_argument("--grid", type=_integer, default=512)
    p.add_argument("--grid-cap", type=_integer, default=4096)
    p.set_defaults(func=cmd_trace_poly)
    p = tr.add_parser("lcurve", parents=[fmt])
    p.add_argument("--lines", required=True, help="file of 'a b c' rows")
    p.add_argument("--g", required=True, help="perturbation polynomial file")
    p.add_argument("--epsilon", type=_real, default=None)
    # Read an exponent-form negative such as -7.8e-08 as a value, not an option.
    p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    p.add_argument("--grid", type=_integer, default=512)
    p.add_argument("--grid-cap", type=_integer, default=4096)
    p.set_defaults(func=cmd_trace_lcurve)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        records, code = args.func(args)
        _emit(records, args.format)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
