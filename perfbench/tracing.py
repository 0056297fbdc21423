"""Spans around calls into the package, recorded from outside it.

A hook replaces a function under the name its callers look up:
``propagation.enumerate_moves`` is the name the propagation loop calls,
``moves.make_move`` the one enumeration and application call, and
``tracer.np.unique`` the tracer's own view of numpy (a proxy stands in
for the module there, so no other caller of numpy is touched).  No file
of the package changes.

Spans (name, start, end, parent, op id) are kept in memory in compact
arrays and written once, when the worker ends.  A hook whose target no
longer exists is reported as missing; the metrics fed by it are then
left out, never read as zero.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from collections import Counter

from stats import self_times

OVERHEAD = "trace.overhead"  # bookkeeping done by hooks; no layer owns it


class _ModuleProxy:
    """Stands in for a module held by one other module.  Names set on the
    proxy shadow the module's; every other lookup falls through."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.missing_span_names: set[str] = set()
        self.forest_key = None  # the package's key, captured before hooking
        self._restore: list[tuple[object, str, object]] = []
        self._overhead = self._id(OVERHEAD)
        self.enumerated: set = set()
        self.search_seen: dict[int, set] = {}

    # ------------------------------------------------------------ spans

    def _id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def begin(self, sid: int) -> int:
        i = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def name_of(self, i: int) -> str | None:
        return None if i < 0 else self.names[self.name_id[i]]

    def run_op(self, op_id: int, fn, *args):
        """Run one op as a root span; tracing is on only inside ops."""
        self.op_id = op_id
        self.active = True
        i = self.begin(self._id("op"))
        try:
            return fn(*args)
        finally:
            self.finish(i)
            self.active = False

    # ------------------------------------------------------------ hooks

    def wrap(self, fn, name: str, after=None):
        sid = self._id(name)
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            caller = tr.stack[-1] if tr.stack else -1
            i = tr.begin(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.finish(i)
            if after is not None:
                j = tr.begin(tr._overhead)
                try:
                    after(tr, caller, args, result)
                finally:
                    tr.finish(j)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self, hooks) -> None:
        """Install ``(module, dotted attribute, span name, after)`` hooks."""
        proxies: dict[tuple[int, str], _ModuleProxy] = {}
        for module_name, path, name, after in hooks:
            target = f"{module_name}.{path}"
            try:
                holder = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    nxt = getattr(holder, part)
                    if isinstance(nxt, types.ModuleType):
                        key = (id(holder), part)
                        if key not in proxies:
                            proxies[key] = _ModuleProxy(nxt)
                            self._restore.append((holder, part, nxt))
                            setattr(holder, part, proxies[key])
                        nxt = proxies[key]
                    holder = nxt
                fn = getattr(holder, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                self.missing_span_names.add(name)
                continue
            if not isinstance(holder, _ModuleProxy):
                self._restore.append((holder, attr, fn))
            setattr(holder, attr, self.wrap(fn, name, after))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -------------------------------------------------------- summaries

    def aggregate(self) -> dict:
        """Per span name: calls, self time, inclusive time; calls per
        (name, parent name) pair; the hooks' counters."""
        calls: Counter = Counter()
        pairs: Counter = Counter()
        self_s: Counter = Counter()
        incl_s: Counter = Counter()
        own = self_times(self.start, self.end, self.parent)
        names, nid, parent = self.names, self.name_id, self.parent
        for i, sid in enumerate(nid):
            name = names[sid]
            calls[name] += 1
            self_s[name] += own[i]
            p = parent[i]
            pname = names[nid[p]] if p >= 0 else ""
            pairs[f"{name}<{pname}"] += 1
            if pname != name:
                incl_s[name] += self.end[i] - self.start[i]
        return {
            "calls": dict(calls),
            "pairs": dict(pairs),
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "counters": dict(self.counters),
            "spans": len(nid),
            "missing": sorted(self.missing),
            "missing_spans": sorted(self.missing_span_names),
        }

    def write(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


# ------------------------------------------------------------ the hooks


def _state_key(tr: Tracer, state) -> tuple[str, bool]:
    return tr.forest_key(state.scheme), state.outer_tracked


def _after_enumerate(tr: Tracer, caller: int, args, result) -> None:
    key = _state_key(tr, args[0])
    if key in tr.enumerated:
        tr.counters["moves.enumerate_repeats"] += 1
    tr.enumerated.add(key)
    tr.counters["moves.moves_out"] += len(result)
    if tr.name_of(caller) == "propagation.propagate":
        tr.counters["propagation.moves_examined"] += len(result)


def _after_apply(tr: Tracer, caller: int, args, result) -> None:
    if tr.name_of(caller) != "propagation.search":
        return
    seen = tr.search_seen.setdefault(caller, set())
    seen.add(_state_key(tr, args[0]))
    key = _state_key(tr, result)
    if key not in seen:
        seen.add(key)
        tr.counters["propagation.search_new"] += 1


def _after_propagate(tr: Tracer, caller: int, args, result) -> None:
    seeds = args[0]
    tr.counters["propagation.facts_added"] += len(result) - len(seeds)


def _after_replay_fact(tr: Tracer, caller: int, args, result) -> None:
    tr.counters["propagation.replay_steps"] += len(args[0].path)


def _after_cert_replay(tr: Tracer, caller: int, args, result) -> None:
    tr.counters["propagation.replay_steps"] += len(args[0].moves)


def _after_grid(tr: Tracer, caller: int, args, result) -> None:
    if tr.name_of(caller) == "tracer.trace":
        tr.counters["tracer.pixels"] += 2 * result[0].size  # both hemispheres


P = "conjquot."
HOOKS = [
    (P + "domains", "euler_W", "domains.euler_W", None),
    (P + "moves", "euler_W", "domains.euler_W", None),
    (P + "propagation", "euler_W", "domains.euler_W", None),
    (P + "fourman", "euler_W", "domains.euler_W", None),
    (P + "domains", "regions", "domains.regions", None),
    (P + "moves", "enumerate_moves", "moves.enumerate", _after_enumerate),
    (P + "propagation", "enumerate_moves", "moves.enumerate", _after_enumerate),
    (P + "moves", "make_move", "moves.make_move", None),
    (P + "moves", "apply", "moves.apply", _after_apply),
    (P + "propagation", "apply", "moves.apply", _after_apply),
    (P + "schemes", "forest_key", "schemes.key", None),
    (P + "schemes", "canonical_key", "schemes.key", None),
    (P + "moves", "forest_key", "schemes.key", None),
    (P + "moves", "canonical_key", "schemes.key", None),
    (P + "propagation", "forest_key", "schemes.key", None),
    (P + "tracer", "canonical_key", "schemes.key", None),
    (P + "schemes", "parse_viro", "schemes.parse", None),
    (P + "propagation", "parse_viro", "schemes.parse", None),
    (P + "cli", "parse_viro", "schemes.parse", None),
    (P + "schemes", "format_viro", "schemes.format", None),
    (P + "propagation", "format_viro", "schemes.format", None),
    (P + "constructions", "format_viro", "schemes.format", None),
    (P + "tracer", "format_viro", "schemes.format", None),
    (P + "propagation", "relation_search", "propagation.search", None),
    (P + "propagation", "propagate", "propagation.propagate", _after_propagate),
    (P + "propagation", "replay_fact", "propagation.replay", _after_replay_fact),
    (P + "propagation", "Certificate.replay", "propagation.replay", _after_cert_replay),
    (P + "fourman", "double_plane_invariants", "fourman.invariants", None),
    (P + "constructions", "perturb_v", "constructions", None),
    (P + "constructions", "perturb_u", "constructions", None),
    (P + "constructions", "quotient_Y_minus", "constructions", None),
    (P + "constructions", "fibered_quotient", "constructions", None),
    (P + "constructions", "imaginary_curve_image", "constructions", None),
    (P + "tracer", "trace_scheme", "tracer.trace", None),
    (P + "tracer", "l_curve_sample", "tracer.lcurve", None),
    (P + "tracer", "PolySpec.evaluate", "tracer.evaluate", None),
    (P + "tracer", "ndimage.label", "tracer.label", None),
    (P + "tracer", "np.unique", "tracer.dedupe", None),
    (P + "tracer", "np.meshgrid", "tracer.grid", _after_grid),
]


def install_hooks(tr: Tracer, hooks=HOOKS) -> None:
    from conjquot import schemes

    tr.forest_key = schemes.forest_key  # hooks compute keys outside any span
    tr.install(hooks)


# -------------------------------------------------------- layer metrics

# metric -> the span names whose self times it sums
LAYER_TIMES = {
    "domains.euler_s": ("domains.euler_W", "domains.regions"),
    "moves.enumerate_s": ("moves.enumerate",),
    "moves.make_move_s": ("moves.make_move",),
    "moves.apply_s": ("moves.apply",),
    "schemes.key_s": ("schemes.key",),
    "schemes.parse_s": ("schemes.parse",),
    "schemes.format_s": ("schemes.format",),
    "propagation.search_s": ("propagation.search",),
    "propagation.propagate_s": ("propagation.propagate",),
    "propagation.replay_s": ("propagation.replay",),
    "fourman.invariants_s": ("fourman.invariants",),
    "constructions.s": ("constructions",),
    "tracer.evaluate_s": ("tracer.evaluate",),
    "tracer.label_s": ("tracer.label",),
    "tracer.dedupe_s": ("tracer.dedupe",),
    "tracer.graph_s": ("tracer.trace", "tracer.grid"),
    "tracer.lcurve_prep_s": ("tracer.lcurve",),
}
# metric -> the span name whose calls it counts
LAYER_CALLS = {
    "domains.euler_calls": "domains.euler_W",
    "domains.regions_built": "domains.regions",
    "moves.enumerate_calls": "moves.enumerate",
    "moves.make_move_calls": "moves.make_move",
    "moves.apply_calls": "moves.apply",
    "schemes.key_calls": "schemes.key",
    "schemes.parse_calls": "schemes.parse",
    "schemes.format_calls": "schemes.format",
    "propagation.replay_calls": "propagation.replay",
    "fourman.invariants_calls": "fourman.invariants",
    "constructions.calls": "constructions",
    "tracer.trace_calls": "tracer.trace",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0  # no attempts: reported as 0, see LAYERS.md


def layer_metrics(agg: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from merged aggregates, and the names left out
    because a hook feeding them is missing."""
    calls, pairs, self_s = agg["calls"], agg["pairs"], agg["self_s"]
    incl, counters = agg["incl_s"], agg["counters"]
    gone = set(agg["missing_spans"])

    def c(name):
        return calls.get(name, 0)

    def pair(child, parent):
        return pairs.get(f"{child}<{parent}", 0)

    out: dict[str, float] = {}
    needs: dict[str, tuple[str, ...]] = {}
    for metric, spans in LAYER_TIMES.items():
        out[metric] = sum(self_s.get(s, 0.0) for s in spans)
        needs[metric] = spans
    for metric, span in LAYER_CALLS.items():
        out[metric] = c(span)
        needs[metric] = (span,)
    candidates = pair("moves.make_move", "moves.enumerate")
    moves_out = counters.get("moves.moves_out", 0)
    derived = {
        "moves.candidates": (candidates, ("moves.enumerate", "moves.make_move")),
        "moves.moves_out": (moves_out, ("moves.enumerate",)),
        "moves.enumerate_yield": (_ratio(moves_out, candidates), ("moves.enumerate", "moves.make_move")),
        "moves.enumerate_repeat_frac": (
            _ratio(counters.get("moves.enumerate_repeats", 0), c("moves.enumerate")),
            ("moves.enumerate",),
        ),
        "propagation.search_new_frac": (
            _ratio(counters.get("propagation.search_new", 0), pair("moves.apply", "propagation.search")),
            ("moves.apply", "propagation.search"),
        ),
        "propagation.facts_popped": (
            pair("moves.enumerate", "propagation.propagate"),
            ("moves.enumerate", "propagation.propagate"),
        ),
        "propagation.facts_added": (
            counters.get("propagation.facts_added", 0), ("propagation.propagate",)
        ),
        "propagation.fact_yield": (
            _ratio(counters.get("propagation.facts_added", 0), counters.get("propagation.moves_examined", 0)),
            ("moves.enumerate", "propagation.propagate"),
        ),
        "propagation.replay_steps": (
            counters.get("propagation.replay_steps", 0), ("propagation.replay",)
        ),
        "tracer.resolutions": (pair("tracer.grid", "tracer.trace"), ("tracer.grid", "tracer.trace")),
        "tracer.pixels": (counters.get("tracer.pixels", 0), ("tracer.grid", "tracer.trace")),
        "tracer.mpix_per_s": (
            _ratio(counters.get("tracer.pixels", 0) / 1e6, incl.get("tracer.trace", 0.0)),
            ("tracer.grid", "tracer.trace"),
        ),
    }
    for metric, (value, spans) in derived.items():
        out[metric] = value
        needs[metric] = spans
    left_out = sorted(m for m, spans in needs.items() if gone.intersection(spans))
    for m in left_out:
        del out[m]
    return out, left_out


def merge(aggs: list[dict]) -> dict:
    """Sum the aggregates of several workers."""
    merged: dict = {
        "calls": Counter(), "pairs": Counter(), "self_s": Counter(),
        "incl_s": Counter(), "counters": Counter(), "spans": 0,
        "missing": set(), "missing_spans": set(),
    }
    for a in aggs:
        for k in ("calls", "pairs", "self_s", "incl_s", "counters"):
            merged[k].update(a[k])
        merged["spans"] += a["spans"]
        merged["missing"].update(a["missing"])
        merged["missing_spans"].update(a["missing_spans"])
    merged["missing"] = sorted(merged["missing"])
    merged["missing_spans"] = sorted(merged["missing_spans"])
    return merged
