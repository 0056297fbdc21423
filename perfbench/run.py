"""Benchmark runner for conjquot: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload derive-search --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads: sextic-sweep, derive-search,
trace-grid, cli-cold (see workloads.py and LAYERS.md).  Every op runs in
a fresh worker interpreter started here, one at a time, with the
repository's ``src`` first on the path; nothing is installed.

``--trace 0`` runs the batch twice, each time in fresh processes, and
prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters of process start to inputs ready), ``run_s`` (the batch's
ops, each at its better pass), ``op_p50_ms`` and ``peak_rss_mb``.  The
tail latency and the failed share are printed on the report lines above
it.
``--trace 1`` runs the batch untraced and then traced, and prints the
per-layer metrics plus the tracing overhead.  Raw spans go to
``.perfbench_out/``.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``.  Without the package's sources the runner exits with 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from stats import median, tail
from workloads import REPEATS, WORKLOADS, load_golden

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 2  # setup-only interpreters before and again after the batches
CHILD_TIMEOUT_S = 150.0


class Child:
    """A finished child process: exit code, output, wall time, peak RSS."""

    def __init__(self, argv: list[str], env: dict):
        self.spawned = time.monotonic()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        self.stdout = proc.stdout.read().decode()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.monotonic() - self.spawned
        timer.cancel()
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.stderr = err[0].decode() if err else ""
        self.maxrss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB

    def result(self) -> dict | None:
        lines = self.stdout.strip().splitlines()
        if self.exit != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None


def _pass_record() -> dict:
    """What one pass over the batch collects."""
    return {"latencies": [], "failures": [], "run_s": 0.0, "rss": [], "layers": [],
            "extra": [], "setup": []}


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.src = root / "src"
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.plan = self.wl.plan(seed, seconds)
        self.out_dir = root / ".perfbench_out"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.env["PYTHONHASHSEED"] = "0"  # per-layer counts must repeat exactly
        self.info: dict = {}

    def worker(self, mode: str, **cfg) -> Child:
        cfg = {
            "mode": mode, "src": str(self.src), "workload": self.wl.name,
            "seed": self.seed, "seconds": self.seconds, "trace": 0, **cfg,
        }
        return Child([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)], self.env)

    def _note_env(self, res: dict) -> None:
        if not self.info:
            self.info = {k: res[k] for k in ("conjquot_file", "python", "numpy", "scipy", "nproc")}
        if not Path(res["conjquot_file"]).resolve().is_relative_to(self.src.resolve()):
            sys.exit(f"measured {res['conjquot_file']}, not the sources under {self.src}")

    def setup_samples(self, n: int) -> list[float]:
        """Process start to inputs ready, in ``n`` setup-only interpreters."""
        samples = []
        last = 1 if self.wl.fresh_worker_per_op else len(self.plan)
        for _ in range(n):
            child = self.worker("setup", first=0, last=last)
            res = child.result()
            if res is None:
                sys.exit(f"setup worker failed:\n{child.stderr}")
            self._note_env(res)
            samples.append(res["ready"] - child.spawned)
        return samples

    def batch(self, trace: bool) -> dict:
        """Run every op of the plan once.  Returns per-op latencies (None
        where the op's worker died), per-op failures, the batch's wall
        time, peak RSS, setup samples and (traced) layer aggregates."""
        if self.wl.name == "cli-cold":
            return self._cli_batch(trace)
        ranges = (
            [(k, k + 1) for k in range(len(self.plan))]
            if self.wl.fresh_worker_per_op
            else [(0, len(self.plan))]
        )
        out = _pass_record()
        for first, last in ranges:
            spans = self._spans_path(first) if trace else None
            child = self.worker("ops", first=first, last=last, trace=int(trace), spans=spans)
            res = child.result()
            if res is None:
                error = f"worker exit {child.exit}: {child.stderr[-500:]}"
                out["latencies"].extend([None] * (last - first))
                out["failures"].extend([error] * (last - first))
                continue
            self._note_env(res)
            out["setup"].append(res["ready"] - child.spawned)
            out["latencies"].extend(res["latencies"])
            out["failures"].extend(res["failures"])
            out["run_s"] += res["wall_s"]
            out["rss"].append(child.maxrss_mb)
            if trace:
                out["layers"].append(res["layers"])
        return out

    def _cli_batch(self, trace: bool) -> dict:
        golden = load_golden(self.wl.name)
        out = _pass_record()
        for k, spec in enumerate(self.plan):
            if trace:
                child = self.worker("cli", argv=spec["argv"], spans=self._spans_path(k))
                res = child.result()
                if res is not None:
                    self._note_env(res)
                    out["layers"].append(res["layers"])
                    out["extra"].append({
                        "interp_ms": 1000 * (res["boot"] - child.spawned),
                        "import_ms": 1000 * res["import_s"],
                        "dispatch_ms": 1000 * res["dispatch_s"],
                    })
            else:
                child = Child([sys.executable, "-m", "conjquot.cli", *spec["argv"]], self.env)
                res = {"stdout": child.stdout, "exit": child.exit}
            if res is None:
                out["latencies"].append(None)
                out["failures"].append(f"worker exit {child.exit}: {child.stderr[-500:]}")
                continue
            problems = self.wl.check(spec, res, golden)
            out["latencies"].append(child.wall_s)
            out["failures"].append("; ".join(problems) or None)
            out["run_s"] += child.wall_s
            out["rss"].append(child.maxrss_mb)
        return out

    def _spans_path(self, k: int) -> str:
        d = self.out_dir / "spans"
        d.mkdir(parents=True, exist_ok=True)
        return str(d / f"{self.wl.name}-seed{self.seed}-{k}.npz")


def end_to_end(runner: Runner) -> tuple[dict, dict, list[str]]:
    """The batch runs REPEATS times, each time in fresh processes; an op's
    latency is its best repetition.  On a shared machine a neighbour's
    burst only ever slows an op down, so the best of fresh repetitions is
    the steady estimate; no program state carries between them."""
    # Setup is sampled on both sides of the batches and in every op
    # worker, so one slow spell of the machine does not own the median.
    setup = runner.setup_samples(SETUP_SAMPLES)
    reps = [runner.batch(trace=False) for _ in range(REPEATS)]
    setup += runner.setup_samples(SETUP_SAMPLES)
    best = []
    for lats in zip(*(r["latencies"] for r in reps)):
        done = [x for x in lats if x is not None]
        if done:
            best.append(min(done))
    rss = [m for r in reps for m in r["rss"]]
    metrics = {
        "setup_s": (median(setup + [s for r in reps for s in r["setup"]]), "s"),
        "run_s": (sum(best), "s"),
        "op_p50_ms": (1000 * median(best) if best else 0.0, "ms"),
        "peak_rss_mb": (max(rss) if rss else 0.0, "MB"),
    }
    report = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    report.append(f"{len(best)} ops, best of {REPEATS}; single-pass wall "
                  + ", ".join(f"{r['run_s']:.4g}" for r in reps) + " s")
    t = tail(best)
    if t is None:
        report.append(f"op_tail_ms: not defined for {len(best)} ops (needs 20)")
    else:
        report.append(f"op_tail_ms = {1000 * t[0]:.6g} ms (p{t[1]:.4g} of {t[2]} ops)")
    failures = [f for r in reps for f in r["failures"]]
    return metrics, {"failures": failures, "latencies": best}, report


def per_layer(runner: Runner) -> tuple[dict, dict, list[str]]:
    import tracing

    plain = runner.batch(trace=False)
    traced = runner.batch(trace=True)
    agg = tracing.merge(traced["layers"])
    values, left_out = tracing.layer_metrics(agg)
    units = {m["name"]: m["unit"] for m in _bench_spec()["per_layer"]}
    extra = traced["extra"]
    for name in ("interp_ms", "import_ms", "dispatch_ms"):
        values[f"cli.{name}"] = median([e[name] for e in extra]) if extra else 0.0
    values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    values["trace.spans"] = agg["spans"]
    metrics = {k: (v, units.get(k, "")) for k, v in values.items() if k in units}
    report = [f"{k} = {v:.6g} {u}" for k, (v, u) in sorted(metrics.items())]
    report.append(f"untraced run_s = {plain['run_s']:.6g} s, traced run_s = {traced['run_s']:.6g} s")
    if agg["missing"]:
        report.append(f"MISSING hooks: {', '.join(agg['missing'])}")
        report.append(f"left out (hook missing): {', '.join(left_out)}")
    return metrics, {"failures": plain["failures"] + traced["failures"]}, report


def _bench_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "conjquot" / "__init__.py").is_file():
        print(f"no package sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed, args.seconds)
    measure = per_layer if args.trace else end_to_end
    metrics, batch, report = measure(runner)
    failures = [f for f in batch["failures"] if f]
    attempted = len(batch["failures"])
    report.append(f"fail_frac = {len(failures) / max(attempted, 1):.6g} ratio "
                  f"({len(failures)} of {attempted} ops)")
    for f in failures[:5]:
        report.append(f"FAILED: {f}")
    report.append("env: " + json.dumps(runner.info, sort_keys=True))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": runner.info, "report": report,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "op_latencies_s": batch.get("latencies", []),
    }
    runner.out_dir.mkdir(exist_ok=True)
    (runner.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    for line in report:
        print(f"[{args.workload}] {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures) if attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
