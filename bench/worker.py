"""Child process of the benchmark: one fresh interpreter per role.

    worker.py probe <workload> <seed>            import fockmet, build inputs, exit
    worker.py measure <workload> <seed> <seconds> <trace>
                                                 prepare, then the timed closed loop
    worker.py smoke <workload> <seed>            one operation, no warm-up
    worker.py cli-traced <spans.json> <op> <fockmet cli args...>
                                                 ``fockmet.cli.main`` under the tracer

``measure`` and ``smoke`` print one JSON object on the last line of stdout.
The parent sets PYTHONPATH to the checkout's ``src`` and, for in-process
workloads, pins BLAS to one thread, before this interpreter starts.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict


def runtime_record() -> dict:
    """Python, numpy and scipy versions; the BLAS and the thread count its runtime reports."""
    import ctypes
    import glob
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "runtime_threads": None},
    }
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "lib*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                record["blas"]["runtime_threads"] = getter()
                return record
    return record


def run_op(wl, k: int, tracer):
    if tracer is None:
        return wl.run(k)
    if not wl.in_process:
        return wl.run_traced(k, tracer)
    with tracer.recording(k):
        return wl.run(k)


def attempt(wl, k: int, tracer=None) -> tuple[float, bool, list[str], dict]:
    """Run and check operation k: (wall seconds, ok, reasons, diagnostics).

    A raise counts as a failed operation.
    """
    start = time.perf_counter()
    try:
        out = run_op(wl, k, tracer)
    except Exception as exc:  # the loop must go on; the failure is counted
        return time.perf_counter() - start, False, [f"{type(exc).__name__}: {exc}"], {}
    elapsed = time.perf_counter() - start
    ok, reasons, diag = wl.check(k, out)
    return elapsed, ok, reasons, diag


def fold_diagnostics(values: dict[str, list[float]]) -> dict[str, float]:
    from workloads import DIAGNOSTICS

    fold = {"mean": statistics.fmean, "max": max, "min": min}
    return {name: fold[how](values[name]) for name, how in DIAGNOSTICS.items() if values.get(name)}


def measure(wl, seconds: float, trace: bool) -> dict:
    """Closed loop, one client.  With ``trace``, whole cycles alternate untraced/traced."""
    import resource

    from tracing import Tracer, summarize

    tracer = Tracer() if trace else None
    wl.prepare()
    samples = []
    failures: Counter[str] = Counter()
    diags: defaultdict[str, list[float]] = defaultdict(list)
    t0 = time.perf_counter()
    k = 0
    while True:
        if k % wl.cycle == 0:
            cycles = k // wl.cycle
            if time.perf_counter() - t0 >= seconds and (not trace or cycles >= 2):
                break
        traced = trace and (k // wl.cycle) % 2 == 1
        elapsed, ok, reasons, diag = attempt(wl, k, tracer if traced else None)
        samples.append({"k": k, "traced": traced, "seconds": elapsed, "ok": ok})
        failures.update(reasons)
        for name, value in diag.items():
            diags[name].append(value)
        k += 1
    wall = time.perf_counter() - t0
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    result = {
        "samples": samples,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "failures": dict(failures),
        "diagnostics": fold_diagnostics(diags),
        "runtime": runtime_record(),
    }
    if trace:
        traced = [s["seconds"] for s in samples if s["traced"]]
        result["layers"] = summarize(tracer, len(traced), sum(traced))
    return result


def cli_traced(spans_path: str, op_id: int, argv: list[str]) -> int:
    import fockmet.cli
    from tracing import Tracer

    tracer = Tracer()
    try:
        with tracer.recording(op_id):
            return fockmet.cli.main(argv)
    finally:
        tracer.dump(spans_path)


def main(argv: list[str]) -> int:
    role = argv[0]
    if role == "cli-traced":
        return cli_traced(argv[1], int(argv[2]), argv[3:])
    from workloads import WORKLOADS

    wl = WORKLOADS[argv[1]](int(argv[2]))
    try:
        if role == "probe":
            return 0
        if role == "measure":
            result = measure(wl, float(argv[3]), argv[4] == "1")
        elif role == "smoke":
            elapsed, ok, reasons, diag = attempt(wl, 0)
            result = {"seconds": elapsed, "ok": ok, "reasons": reasons, "diagnostics": diag}
        else:
            raise SystemExit(f"unknown role {role!r}")
    finally:
        if hasattr(wl, "close"):
            wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
