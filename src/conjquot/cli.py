"""Command-line surface over all the engines.

Batch-oriented: every subcommand reads its inputs from flags or files,
prints either an aligned table or sorted-key JSON records (one object
per line), and exits 0 on success, 2 on validation failure, 3 on an
unstable trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import constructions, domains, fourman, moves, propagation, schemes, tracer
from .domains import Side, TrackedScheme
from .schemes import CurveType, parse_viro

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNSTABLE = 3


def _emit(records: list[dict], fmt: str) -> None:
    if fmt == "records":
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


def _load_catalog(path: str | None) -> tuple[schemes.SchemeCatalogEntry, ...]:
    if path is None:
        return schemes.default_catalog()
    with open(path, encoding="utf-8") as fh:
        return schemes.load_catalog(fh)


def cmd_scheme_parse(args) -> int:
    s = parse_viro(args.code)
    _emit(
        [
            {
                "code": schemes.format_viro(s),
                "ovals": s.oval_count,
                "depth": s.depth,
                "pseudoline": s.pseudoline,
                "type": s.curve_type.value,
                "canonical_key": schemes.canonical_key(s),
            }
        ],
        args.format,
    )
    return EXIT_OK


def cmd_scheme_validate(args) -> int:
    s = parse_viro(args.code)
    report = schemes.validate(s, args.degree)
    recs = report.records() or [{"check": "ok", "detail": "passes necessary conditions"}]
    if args.degree >= 3 and not schemes.l_curve_bound(s, args.degree):
        recs.append(
            {"check": "l-curve-bound", "detail": "oval count blocks the line-perturbation tag"}
        )
    _emit(recs, args.format)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_domains_invariants(args) -> int:
    t = _tracked(args.code, args.degree, args.side)
    rs = domains.regions(t)
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
    if args.regions:
        _emit(rs.records(), args.format)
    else:
        _emit([summary], args.format)
    return EXIT_OK


def cmd_moves_enumerate(args) -> int:
    t = _tracked(args.code, args.degree, args.side)
    recs = []
    for m in moves.enumerate_moves(t):
        rec = m.record()
        rec["result"] = schemes.format_viro(moves.apply(t, m).scheme)
        recs.append(rec)
    _emit(recs, args.format)
    return EXIT_OK


def _run_moves(args) -> tuple[list[TrackedScheme], list[moves.MoveRecord]]:
    """Decode the move file and apply it from the start state; returns the
    states visited (start first) and the moves made."""
    with open(args.moves, encoding="utf-8") as fh:
        recs = [json.loads(ln) for ln in fh if ln.strip()]
    states = [_tracked(args.code, args.degree, args.side)]
    made = []
    for rec in recs:
        if isinstance(rec, dict) and "rewrite" in rec:  # a full move record
            rec = rec["rewrite"]
        made.append(moves.make_move(states[-1], moves.rewrite_from_record(rec)))
        states.append(moves.apply(states[-1], made[-1]))
    return states, made


def cmd_moves_apply(args) -> int:
    states, made = _run_moves(args)
    out = [
        {"scheme": schemes.format_viro(s.scheme), **m.record()}
        for s, m in zip(states[1:], made)
    ]
    _emit(out, args.format)
    return EXIT_OK


def cmd_moves_trace(args) -> int:
    states, made = _run_moves(args)
    records = moves.trace_records(states[0], made)
    for ev in moves.detect_log_transform(list(zip(states, made))):
        records.append({"event": "log_transform", **ev.record()})
    _emit(records, args.format)
    return EXIT_OK


def cmd_search_derive(args) -> int:
    rel = propagation.RELATIONS[args.relation]
    src = _tracked(args.source, args.degree, args.side)
    dst = _tracked(args.target, args.degree, args.target_side or args.side)
    cert = propagation.relation_search(src, dst, rel, args.max_steps)
    if cert is None:
        _emit(
            [{"found": False, "note": f"not found <= {args.max_steps} steps"}],
            args.format,
        )
        return EXIT_OK
    _emit(cert.records() or [{"found": True, "steps": 0}], args.format)
    return EXIT_OK


def cmd_facts_propagate(args) -> int:
    catalog = _load_catalog(args.catalog)
    rel = propagation.RELATIONS[args.relation]
    seeds = []
    axioms = []
    with open(args.seeds, encoding="utf-8") as fh:
        for ln in fh:
            if not ln.strip():
                continue
            rec = json.loads(ln)
            if rec.get("edge") == "axiom":
                axioms.append(
                    (
                        propagation.parse_state_label(rec["from"], args.degree),
                        propagation.parse_state_label(rec["to"], args.degree),
                    )
                )
            else:
                seeds.append(
                    propagation.Fact(
                        _tracked(rec["scheme"], args.degree, rec["side"]),
                        propagation.Predicate(rec.get("predicate", "ArnoldStandard")),
                        rec.get("provenance", "lcurve-seed"),
                    )
                )
    table = propagation.propagate(seeds, axioms, rel, catalog)
    _emit(table.records(), args.format)
    return EXIT_OK


def cmd_sweep_sextics(args) -> int:
    catalog = _load_catalog(args.catalog)
    report = propagation.sextic_sweep(catalog)
    recs = report.records()
    recs.append(
        {
            "summary": "exceptions",
            "minus_side": sorted(report.minus_exceptions),
            "plus_side": sorted(report.plus_exceptions),
        }
    )
    _emit(recs, args.format)
    return EXIT_OK


def _parse_xr(text: str):
    """Real-part descriptors like 'S10+S0' or '8S0'."""
    parts = []
    for tok in text.replace(" ", "").split("+"):
        if not tok:
            continue
        mult = 1
        if "S" in tok and not tok.startswith("S"):
            mult, tok = int(tok[: tok.index("S")]), tok[tok.index("S") :]
        genus = int(tok[1:])
        for _ in range(mult):
            parts.append(
                domains.SurfaceDescriptor(2 - 2 * genus, domains.Orientability.ORIENTABLE)
            )
    return parts


def cmd_k3_classify(args) -> int:
    xr = _parse_xr(args.xr)
    word = fourman.k3_classify(xr, class_vanishes=args.class_vanishes)
    _emit([{"xr": args.xr, "quotient": str(word)}], args.format)
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.what == "v":
        spec = constructions.BaseCurveSpec(
            parse_viro(args.base), args.base_degree,
            {constructions.PSEUDOLINE: args.base_degree ** 2}
            if args.on_pseudoline
            else {(0,): args.base_degree ** 2} if parse_viro(args.base).roots else {},
            d=args.base_degree ** 2,
        )
        res = constructions.perturb_v(spec)
        _emit([res.record()], args.format)
        return EXIT_OK
    if args.what == "u":
        base = parse_viro(args.base)
        points: dict = {}
        if args.basepoints:
            for item in args.basepoints.split(","):
                key, _, count = item.partition(":")
                points[
                    constructions.PSEUDOLINE if key == "J" else domains.parse_path(key)
                ] = int(count)
        spec = constructions.BaseCurveSpec(base, args.base_degree, points)
        res = constructions.perturb_u(spec)
        _emit([res.record()], args.format)
        return EXIT_OK
    if args.what == "fibered":
        types = tuple(
            CurveType(t) for t in (args.double_fiber_types.split(",") if args.double_fiber_types else [])
        )
        spec = constructions.FiberedSpec(
            quotient_q=fourman.parse_word(args.quotient),
            fiber_genus=args.fiber_genus,
            double_fiber_types=types,
            imaginary_pairs=args.imaginary_pairs,
            elliptic_name=args.elliptic_name,
        )
        res = constructions.fibered_quotient(spec)
        _emit(
            [{"y_minus": str(res.y_minus), "y_plus": res.y_plus.record()}],
            args.format,
        )
        return EXIT_OK
    if args.what == "imaginary":
        stmt = constructions.imaginary_curve_image(
            args.base_degree, args.real_intersections, not args.not_simply_connected
        )
        _emit([stmt.record()], args.format)
        return EXIT_OK
    raise ValueError(args.what)


def cmd_trace_poly(args) -> int:
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            spec = tracer.PolySpec.from_text(fh.read())
    else:
        spec = tracer.PolySpec.from_text(args.poly.replace(";", "\n"))
    result = tracer.trace_scheme(spec, tracer.GridConfig(args.grid, args.grid_cap))
    _emit([result.record()], args.format)
    return EXIT_OK if result.stable else EXIT_UNSTABLE


def cmd_trace_lcurve(args) -> int:
    lines = []
    with open(args.lines, encoding="utf-8") as fh:
        for ln in fh:
            ln = ln.split("#", 1)[0].strip()
            if ln:
                a, b, c = ln.split()
                lines.append((float(a), float(b), float(c)))
    with open(args.g, encoding="utf-8") as fh:
        g = tracer.PolySpec.from_text(fh.read())
    try:
        result = tracer.l_curve_sample(
            lines, g, epsilon=args.epsilon, grid=tracer.GridConfig(args.grid, args.grid_cap)
        )
    except tracer.TraceError as err:
        _emit([{"error": str(err)}], args.format)
        return EXIT_UNSTABLE
    _emit([result.record()], args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conjquot",
        description="Oval schemes, elementary moves and quotient topology of double planes.",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "records"), default="table")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, degree=True, side=True):
        if degree:
            p.add_argument("--degree", type=int, default=6)
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
    p.add_argument("--relation", choices=("succ", "rhd"), default="succ")
    p.add_argument("--max-steps", type=int, default=64)
    p.set_defaults(func=cmd_search_derive)

    facts = sub.add_parser("facts").add_subparsers(dest="sub", required=True)
    p = facts.add_parser("propagate", parents=[fmt])
    p.add_argument("seeds", help="JSON-lines of seed facts and axiom edges")
    common(p, side=False)
    p.add_argument("--relation", choices=("succ", "rhd"), default="succ")
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
    for what in ("v", "u", "fibered", "imaginary"):
        p = cons.add_parser(what, parents=[fmt])
        p.set_defaults(func=cmd_construct, what=what)
        if what in ("v", "u"):
            p.add_argument("base", help="base curve code, J for the one-sided component")
            p.add_argument("--base-degree", type=int, required=True)
        if what == "v":
            p.add_argument("--on-pseudoline", action="store_true")
        if what == "u":
            p.add_argument(
                "--basepoints",
                help="comma list like 'J:9,0:0' mapping components to counts",
            )
        if what == "fibered":
            p.add_argument("--quotient", default="S4")
            p.add_argument("--fiber-genus", type=int, default=1)
            p.add_argument("--double-fiber-types", default="1")
            p.add_argument("--imaginary-pairs", type=int, default=0)
            p.add_argument("--elliptic-name", default=None)
        if what == "imaginary":
            p.add_argument("--base-degree", type=int, required=True)
            p.add_argument("--real-intersections", type=int, required=True)
            p.add_argument("--not-simply-connected", action="store_true")

    tr = sub.add_parser("trace").add_subparsers(dest="sub", required=True)
    p = tr.add_parser("poly", parents=[fmt])
    p.add_argument("--poly", help="inline 'a b c coeff' rows separated by ';'")
    p.add_argument("--file", help="polynomial file")
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--grid-cap", type=int, default=4096)
    p.set_defaults(func=cmd_trace_poly)
    p = tr.add_parser("lcurve", parents=[fmt])
    p.add_argument("--lines", required=True, help="file of 'a b c' rows")
    p.add_argument("--g", required=True, help="perturbation polynomial file")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--grid-cap", type=int, default=4096)
    p.set_defaults(func=cmd_trace_lcurve)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        schemes.ViroSyntaxError,
        ValueError,
        tracer.TraceError,
        OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
