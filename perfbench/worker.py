"""One fresh interpreter of the benchmark; started by run.py, never by hand.

``python3 perfbench/worker.py '<json config>'`` prints one JSON line.
Modes:

* ``setup``: import the package and build the inputs, then stop.
* ``ops``: also run the ops ``first:last`` of the workload's plan, each
  timed alone, then check every output (after the timed loop).
* ``cli``: run one command line, traced, through ``conjquot.cli.main`` in
  process, so a traced run can split interpreter start, import and
  dispatch.

The repository's ``src`` is put first on the path; the resolved
``conjquot.__file__`` is reported so the runner can refuse an installed
copy.
"""

import json
import sys
import time

BOOT = time.monotonic()


def _versions(conjquot) -> dict:
    import os
    import platform

    import numpy
    import scipy

    return {
        "conjquot_file": conjquot.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _trace_end(tracer, path) -> dict:
    tracer.uninstall()
    if path:
        tracer.write(path)
    return tracer.aggregate()


def run_ops(cfg: dict) -> dict:
    t = time.monotonic()
    import conjquot

    import_s = time.monotonic() - t
    import workloads

    wl = workloads.WORKLOADS[cfg["workload"]]
    specs = wl.plan(cfg["seed"], cfg["seconds"])[cfg["first"] : cfg["last"]]
    inputs = [wl.prepare(s) for s in specs]
    out = {"boot": BOOT, "ready": time.monotonic(), "import_s": import_s, **_versions(conjquot)}
    if cfg["mode"] == "setup":
        return out

    tracer = None
    if cfg["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_hooks(tracer)
    results, latencies = [], []
    start = time.perf_counter()
    for k, inp in enumerate(inputs):
        t0 = time.perf_counter()
        try:
            value = tracer.run_op(k, wl.run, inp) if tracer else wl.run(inp)
            results.append((value, None))
        except Exception as err:  # a failed op is counted, never fatal
            results.append((None, f"{type(err).__name__}: {err}"))
        latencies.append(time.perf_counter() - t0)
    out["wall_s"] = time.perf_counter() - start
    out["latencies"] = latencies
    if tracer:
        out["layers"] = _trace_end(tracer, cfg.get("spans"))

    golden = workloads.load_golden(wl.name)
    failures = []
    for spec, (value, error) in zip(specs, results):
        if error is None:
            try:
                error = "; ".join(wl.check(spec, wl.summarize(value), golden)) or None
            except Exception as err:  # a malformed output fails its check
                error = f"check raised {type(err).__name__}: {err}"
        failures.append(error)
    out["failures"] = failures
    return out


def run_cli(cfg: dict) -> dict:
    import contextlib
    import io

    t = time.monotonic()
    from conjquot import cli

    import_s = time.monotonic() - t
    import conjquot
    import tracing

    tracer = tracing.Tracer()
    tracing.install_hooks(tracer)
    buf = io.StringIO()
    t = time.monotonic()
    with contextlib.redirect_stdout(buf):
        try:
            code = tracer.run_op(0, cli.main, cfg["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    dispatch_s = time.monotonic() - t
    return {
        "boot": BOOT,
        "import_s": import_s,
        "dispatch_s": dispatch_s,
        "stdout": buf.getvalue(),
        "exit": code,
        "layers": _trace_end(tracer, cfg.get("spans")),
        **_versions(conjquot),
    }


def main() -> None:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    out = run_cli(cfg) if cfg["mode"] == "cli" else run_ops(cfg)
    sys.stdout.write("\n" + json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
