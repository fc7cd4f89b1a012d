#!/usr/bin/env python3
"""fockmet benchmark: four workloads, end-to-end metrics, traced per-layer metrics.

    python3 bench/run.py --workload cli_cold --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --all [--trace 1]     every workload, one row each
    python3 bench/run.py --smoke               one operation per workload

Run from the root of a fockmet checkout.  With ``--trace 0`` the last line
of stdout is a JSON object holding every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric.  Each
run also writes its full record, environment included, to
``.bench_results/``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SPANNED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORKER = BENCH / "worker.py"
SPEC_FILE = ROOT / "BENCHMARK.json"
IN_PROCESS = ("sensing_precision", "open_system", "fock_tomography")
WORKLOADS = ("cli_cold", *IN_PROCESS)
SETUP_PROBES = 7
IMPORT_PROBES = 3


class BenchError(RuntimeError):
    pass


def check_checkout() -> None:
    missing = [p for p in (SRC / "fockmet" / "__init__.py", ROOT / "configs", SPEC_FILE) if not p.exists()]
    if missing:
        raise BenchError(f"not a fockmet checkout: missing {', '.join(str(p) for p in missing)}")


def worker_env(workload: str) -> dict[str, str]:
    """PYTHONPATH at the checkout's src; BLAS pinned to one thread for in-process workloads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if workload in IN_PROCESS:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(args: list[str], env: dict[str, str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(args, env=env, cwd=ROOT, capture_output=True, text=True)
    return time.perf_counter() - start, proc


def call_worker(args: list[str], env: dict[str, str]) -> dict:
    _, proc = spawn([sys.executable, str(WORKER), *args], env)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def setup_seconds(workload: str, seed: int, env: dict[str, str]) -> float:
    """Median wall time of a fresh interpreter importing fockmet and building the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        elapsed, proc = spawn([sys.executable, str(WORKER), "probe", workload, str(seed)], env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"set-up probe for {workload} exited {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def import_seconds(env: dict[str, str]) -> dict[str, float]:
    """Cumulative import time of fockmet and fockmet.estimation from ``python -X importtime``."""
    found: dict[str, list[float]] = {"fockmet": [], "fockmet.estimation": []}
    for _ in range(IMPORT_PROBES):
        _, proc = spawn([sys.executable, "-X", "importtime", "-c", "import fockmet"], env)
        if proc.returncode != 0:
            raise BenchError("import probe failed")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {
        "cli.import.fockmet_s": statistics.median(found["fockmet"]),
        "cli.import.estimation_s": statistics.median(found["fockmet.estimation"]),
    }


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it.

    Below 21 samples that percentile falls under the median, which is no
    tail, so the maximum is reported instead.
    """
    xs = sorted(times)
    n = len(xs)
    if n < 21:
        return xs[-1], f"max of {n}"
    j = n - 11
    return xs[j], f"p{math.floor(100 * (j + 1) / n)} of {n}"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, env: dict[str, str], runtime: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": runtime.get("blas"),
        "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": env.get("OMP_NUM_THREADS", "unset"),
        "python": runtime.get("python"),
        "numpy": runtime.get("numpy"),
        "scipy": runtime.get("scipy"),
        "git_commit": git_commit(),
    }


def end_to_end(result: dict, setup: float) -> dict:
    times = [s["seconds"] for s in result["samples"]]
    passed = sum(s["ok"] for s in result["samples"])
    tail_value, tail_label = tail(times)
    return {
        "setup_s": setup,
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_value,
        "ops_per_s": len(times) / result["wall_s"],
        "passed_ops_per_s": passed / result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "_tail": tail_label,
        "_failed_frac": f"{len(times) - passed}/{len(times)}",
    }


def per_layer(result: dict, imports: dict[str, float]) -> dict:
    untraced = [s["seconds"] for s in result["samples"] if not s["traced"]]
    traced = [s["seconds"] for s in result["samples"] if s["traced"]]
    overhead = statistics.median(traced) - statistics.median(untraced)
    return {
        **imports,
        **result["layers"],
        **result["diagnostics"],
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / statistics.median(untraced),
        "_traced_ops": len(traced),
        "_untraced_ops": len(untraced),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = worker_env(workload)
    if trace:
        before = import_seconds(env)
    else:
        setup = setup_seconds(workload, seed, env)
    result = call_worker(["measure", workload, str(seed), str(seconds), "1" if trace else "0"], env)
    metrics = per_layer(result, before) if trace else end_to_end(result, setup)
    record = {
        "environment": environment(workload, seed, env, result["runtime"]),
        "seconds": seconds,
        "trace": trace,
        "metrics": metrics,
        "attempted": len(result["samples"]),
        "failed": sum(not s["ok"] for s in result["samples"]),
        "failures": result["failures"],
        "samples": result["samples"],
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    record["path"] = str(path.relative_to(ROOT))
    return record


def unit_of(name: str, spec: dict) -> str:
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if entry["name"] == name:
            return entry["unit"]
    for suffix, unit in (("_s", "s"), (".calls", "count"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def print_end_to_end(records: list[dict], spec: dict) -> None:
    names = [m["name"] for m in spec["end_to_end"]]
    header = ["workload"] + [f"{n} [{unit_of(n, spec)}]" for n in names]
    print(" | ".join(header + ["passed_ops_per_s [1/s]", "failed_frac", "op_s.tail is"]))
    for r in records:
        m = r["metrics"]
        cells = [r["environment"]["workload"]] + [f"{m[n]:.6g}" for n in names]
        print(" | ".join(cells + [f"{m['passed_ops_per_s']:.6g}", m["_failed_frac"], m["_tail"]]))


def layer_rows(spec: dict) -> list[str]:
    """The per-layer metrics of BENCHMARK.json, then busy and self time of every traced function."""
    from_spec = [m["name"] for m in spec["per_layer"]]
    busy = [f"{fn}.{kind}" for fn in SPANNED for kind in ("busy_s", "self_s")]
    return from_spec + [b for b in busy if b not in from_spec]


def print_per_layer(records: list[dict], spec: dict) -> None:
    print(" | ".join(["metric [unit]"] + [r["environment"]["workload"] for r in records]))
    for name in layer_rows(spec):
        cells = [f"{r['metrics'].get(name, 0.0):.6g}" for r in records]
        print(" | ".join([f"{name} [{unit_of(name, spec)}]"] + cells))
    print(" | ".join(["traced / untraced ops"] + [
        f"{r['metrics']['_traced_ops']}/{r['metrics']['_untraced_ops']}" for r in records
    ]))


def result_line(record: dict, spec: dict) -> str:
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = record["metrics"].get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps({
        "correct": True,  # every attempted operation was checked; misses are in "failed"
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def smoke(seed: int) -> int:
    status = 0
    for workload in WORKLOADS:
        out = call_worker(["smoke", workload, str(seed)], worker_env(workload))
        print(f"{workload}: ok={out['ok']} seconds={out['seconds']:.4g} {'; '.join(out['reasons'])}")
        status |= not out["ok"]
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="run every workload in turn")
    mode.add_argument("--smoke", action="store_true", help="one operation per workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        spec = json.loads(SPEC_FILE.read_text())
        if args.smoke:
            return smoke(args.seed)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        workloads = WORKLOADS if args.all else (args.workload,)
        records = [run_workload(w, args.seed, seconds, bool(args.trace)) for w in workloads]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for r in records:
        print("environment: " + json.dumps(r["environment"]) + f" -> {r['path']}")
        for reason, count in r["failures"].items():
            print(f"  failed x{count}: {reason}")
    (print_per_layer if args.trace else print_end_to_end)(records, spec)
    if not args.all:
        print(result_line(records[0], spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
