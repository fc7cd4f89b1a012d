"""The four benchmark workloads: seeded inputs, one operation, its oracle.

Every workload is a closed loop with one client.  The constructor builds
the inputs from the seed (this is what ``setup_s`` times, together with
``import fockmet``); ``prepare`` does the untimed work before the timed
phase; ``run(k)`` performs operation ``k``; ``check(k, output)`` applies
the oracle and returns ``(ok, reasons, diagnostics)``.  Operations cycle
through ``cycle`` distinct shapes, and the timed phase only ends on a cycle
boundary, so every run has the same mix.

The program sees only the generated inputs, through fockmet's public
functions or the ``fockmet`` executable.  In-process workloads call through
module attributes (``metrology.precision_report``), so the tracer's patches
reach them.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import eval_laguerre

import fockmet
from fockmet import composite, estimation, fockspace, metrology, noise

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
RESULTS = ROOT / ".bench_results"

if not Path(fockmet.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"fockmet loaded from {fockmet.__file__}, not from {SRC}")

INPUT_SETS = 64  # distinct seeded inputs per workload; operation k uses set k % INPUT_SETS


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment for a CLI child: fockmet from this checkout, BLAS threads as inherited."""
    env = dict(os.environ)
    env.pop("FOCKMET_OUTDIR", None)  # would override --out
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class InProcess:
    """A workload whose operations run in this interpreter, with BLAS pinned to one thread."""

    in_process = True
    cycle = 1
    warmup_ops = None  # untimed operations before the timed phase; None means one cycle

    def prepare(self) -> None:
        """Warm up: untimed operations, one cycle unless ``warmup_ops`` says otherwise."""
        for k in range(self.cycle if self.warmup_ops is None else self.warmup_ops):
            self.check(k, self.run(k))


class SensingPrecision(InProcess):
    """Fisher maximization at N = 10, 100, 400 plus a finite-shot bootstrap at N = 10.

    Almost all time is in ``metrology`` and ``estimation``: scalar Laguerre
    loops, golden-section search and one ``lstsq`` per resample.
    """

    name = "sensing_precision"
    NS = (10, 100, 400)
    BOOT_N = 10
    GRID_POINTS = 51
    SHOTS = 10_000
    RESAMPLES = 200
    QFI_RTOL = 1e-4

    def __init__(self, seed: int):
        grid = np.linspace(0.0, 1.0, self.GRID_POINTS)
        pg = np.array([metrology.parity_curve_ideal(self.BOOT_N, float(b)) for b in grid])
        self.record = estimation.ShotRecord(
            grid=grid, pg=pg, shots=self.SHOTS, model=metrology.Parameter.BETA, N=self.BOOT_N
        )
        self.boot_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(INPUT_SETS)]

    def run(self, k: int) -> dict:
        fisher, argmax = [], []
        for n in self.NS:
            report = metrology.precision_report(
                metrology.Parameter.BETA,
                lambda b, n=n: metrology.parity_curve_ideal(n, b),
                0.0,
                1.0,
                0.5,
                lambda b, n=n: metrology.parity_curve_deriv(n, b),
            )
            fisher.append(report.fisher_max)
            argmax.append(report.argmax_location)
        mean, stderr = estimation.bootstrap_precision(
            self.record, resamples=self.RESAMPLES, seed=self.boot_seeds[k % INPUT_SETS]
        )
        return {"fisher_max": fisher, "argmax": argmax, "boot_mean": mean, "boot_se": stderr}

    def check(self, k: int, out: dict):
        reasons = []
        worst = 0.0
        for n, f in zip(self.NS, out["fisher_max"]):
            qfi = 4.0 * (2 * n + 1)
            rel = abs(f - qfi) / qfi
            worst = max(worst, rel)
            if not rel <= self.QFI_RTOL:
                reasons.append(f"N={n}: fisher_max off the QFI by more than {self.QFI_RTOL} relative")
        if not math.isfinite(out["boot_mean"]):
            reasons.append("bootstrap mean not finite")
        if not out["boot_se"] > 0.0:
            reasons.append("bootstrap standard error not positive")
        return not reasons, reasons, {"metrology.maximize_fisher.max_rel_err": worst}


class OpenSystem(InProcess):
    """The noise-budget working point: RK4 Lindblad, Simpson first order, closed forms.

    More than 95% of the time is in ``noise``; this is the one workload
    where exact open-system propagation would show.

    A cycle covers β in [0.1, 0.3] in three strata at rate scale 0.1, the
    scale of ``run_noise_budget.py``: the working point β ≈ 0.2, then the two
    ends.  The seed draws β inside each stratum.  ``parity_prob_noisy`` holds
    to 7e-6 across the middle stratum and misses the oracle by at least 1.3e-5
    across both end strata, so every cycle fails 2 of 3 operations, whatever
    the seed.  Drawing β and the scale at random instead would make the
    failed count of a run depend on the draw.
    """

    name = "open_system"
    N = 4
    DIM = 16
    STEPS = 4000
    SIMPSON_POINTS = 2001
    TOY_N_MAX = 100
    RATE_SCALE = 0.1
    BETA_STRATA = ((0.18, 0.22), (0.10, 0.14), (0.27, 0.30))
    cycle = len(BETA_STRATA)
    warmup_ops = 1  # every stratum runs the same code on the same shapes
    P_TOL = 1e-5

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.base = composite.DeviceParams()
        self.spec = fockspace.HilbertSpec(self.DIM, 0)
        b, scale = self.base, self.RATE_SCALE
        self.params = composite.DeviceParams(
            kappa1=b.kappa1 * scale, kappa2=b.kappa2 * scale,
            kappa3=b.kappa3 * scale, kappa4=b.kappa4 * scale,
        )
        self.betas = [[float(rng.uniform(lo, hi)) for lo, hi in self.BETA_STRATA] for _ in range(INPUT_SETS)]

    def beta(self, k: int) -> float:
        return self.betas[(k // self.cycle) % INPUT_SETS][k % self.cycle]

    def run(self, k: int) -> dict:
        beta, params = self.beta(k), self.params
        rho, h, jumps = noise.qubit_cavity_parity_setup(self.N, beta, params, self.spec)
        evolved = noise.lindblad_evolve(
            rho, noise.LindbladSpec(h, jumps, duration=params.T_M, dt=params.T_M / self.STEPS)
        )
        rho0_of_t = noise.unitary_evolution(rho, h)
        rho1 = noise.perturbation_first_order(
            rho0_of_t, h, jumps, params.T_M, num_points=self.SIMPSON_POINTS
        )
        p_closed = noise.parity_prob_noisy(self.N, beta, params)
        toy = [noise.toy_model(n, self.base).precision for n in range(1, self.TOY_N_MAX + 1)]
        return {
            "rho_sim": evolved.matrix,
            "rho0_T": rho0_of_t(params.T_M),
            "rho1": rho1,
            "p_closed": p_closed,
            "toy_precision": toy,
        }

    def check(self, k: int, out: dict):
        params = self.params
        reasons = []
        evolved = fockspace.MixedState(out["rho_sim"], fockspace.HilbertSpec(2 * self.DIM, 0))
        try:
            evolved.check_physical()
        except ValueError as exc:
            reasons.append(f"evolved state unphysical: {exc}")
        p_err = abs(noise.parity_readout_probability(evolved) - out["p_closed"])
        if not p_err <= self.P_TOL:
            lo, hi = self.BETA_STRATA[k % self.cycle]
            reasons.append(f"beta in [{lo}, {hi}]: |P_sim - P_closed| > {self.P_TOL}")
        # First order: what rho0 + rho1 leaves out is second order in kappa T.
        kappa_t = params.T_M * (params.kappa1 + params.kappa2 + params.kappa3 + params.kappa4)
        residual = float(np.max(np.abs(out["rho_sim"] - (out["rho0_T"] + out["rho1"]))))
        if not residual <= kappa_t**2:
            reasons.append("rho_sim - (rho0 + rho1) larger than (kappa T)^2")
        if not all(math.isfinite(p) for p in out["toy_precision"]):
            reasons.append("toy-model precision not finite")
        diag = {"noise.parity_prob_noisy.abs_err": p_err, "noise.first_order.max_abs_err": residual}
        return not reasons, reasons, diag


class FockTomography(InProcess):
    """Fock preparation, photon-number cascade and point Wigner values at large dim.

    One operation handles one photon number; a cycle is N = 10, 100, 400.
    At N = 400 the truncated space has dim 540.
    """

    name = "fock_tomography"
    NS = (10, 100, 400)
    cycle = len(NS)
    CASCADE_M = 6
    POINTS = 16
    MAX_RADIUS = 1.0
    MIN_FIDELITY = 0.999
    WIGNER_TOL = 1e-9

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.specs = {n: fockspace.default_spec(n) for n in self.NS}
        self.points = []
        for _ in range(INPUT_SETS):
            radius = self.MAX_RADIUS * np.sqrt(rng.uniform(size=self.POINTS))
            angle = rng.uniform(0.0, 2.0 * math.pi, size=self.POINTS)
            self.points.append([complex(a) for a in radius * np.exp(1j * angle)])

    def run(self, k: int) -> dict:
        n = self.NS[k % self.cycle]
        spec = self.specs[n]
        _, p_success, fidelity = composite.prepare_fock(n, composite.default_fock_schedule(n), spec)
        traces = composite.resolve_photon_cascade(fockspace.coherent_state(math.sqrt(n), spec), self.CASCADE_M)
        rho = fockspace.fock_state(n, spec).to_mixed()
        wigner = [fockspace.wigner_value(rho, a) for a in self.points[k % INPUT_SETS]]
        return {
            "n": n,
            "p_success": p_success,
            "fidelity": fidelity,
            "cascade": [(t.bits, t.probability) for t in traces],
            "wigner": wigner,
        }

    def check(self, k: int, out: dict):
        n = out["n"]
        reasons = []
        if not out["fidelity"] >= self.MIN_FIDELITY:
            reasons.append(f"N={n}: fidelity below {self.MIN_FIDELITY}")
        worst = 0.0
        for alpha, w in zip(self.points[k % INPUT_SETS], out["wigner"]):
            r2 = abs(alpha) ** 2
            exact = (2.0 / math.pi) * (-1.0) ** n * math.exp(-2.0 * r2) * eval_laguerre(n, 4.0 * r2)
            worst = max(worst, abs(w - exact))
        if not worst <= self.WIGNER_TOL:
            reasons.append(f"N={n}: Wigner value off Cahill-Glauber form by more than {self.WIGNER_TOL}")
        diag = {
            "fockspace.wigner_value.max_abs_err": worst,
            "composite.prepare_fock.min_fidelity": out["fidelity"],
            "composite.prepare_fock.p_success": out["p_success"],
        }
        return not reasons, reasons, diag


class CliCold:
    """Fresh ``python -m fockmet.cli run`` processes over every shipped config.

    BLAS threads stay at the environment default.  The oracle compares each
    CSV byte for byte with the same config run at ``--threads 1``.
    """

    name = "cli_cold"
    in_process = False

    def __init__(self, seed: int):
        self.configs = sorted(CONFIGS.glob("*.yaml"))
        if not self.configs:
            raise FileNotFoundError(f"no configs under {CONFIGS}")
        self.cycle = len(self.configs)
        rng = np.random.default_rng(seed)
        self.cli_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=self.cycle)]
        self.threads = nproc()
        self.env = child_env()
        self.workdir = RESULTS / f"cli-{os.getpid()}"
        self._references: dict[int, dict[str, bytes] | None] = {}

    def argv(self, k: int, threads: int, out: Path) -> list[str]:
        i = k % self.cycle
        return [
            "run", str(self.configs[i]), "--seed", str(self.cli_seeds[i]),
            "--threads", str(threads), "--out", str(out),
        ]

    def _invoke(self, prefix: list[str], k: int, threads: int, out: Path) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(out, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, *prefix, *self.argv(k, threads, out)], env=self.env, cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))} if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
        tail = proc.stderr.strip().splitlines()[-1:] if proc.stderr.strip() else []
        return {
            "config": self.configs[k % self.cycle].name,
            "returncode": proc.returncode,
            "csv": csvs,
            "stderr": tail,
        }

    def run(self, k: int) -> dict:
        return self._invoke(["-m", "fockmet.cli"], k, self.threads, self.workdir / f"op{k}")

    def run_traced(self, k: int, tracer) -> dict:
        """The same operation in a child that records spans and hands them to ``tracer``."""
        spans = self.workdir / f"spans{k}.json"
        prefix = [str(Path(__file__).with_name("worker.py")), "cli-traced", str(spans), str(k)]
        result = self._invoke(prefix, k, self.threads, self.workdir / f"op{k}")
        tracer.absorb(*tracer.load(spans))
        spans.unlink()
        return result

    def reference(self, k: int) -> dict[str, bytes] | None:
        i = k % self.cycle
        if i not in self._references:
            result = self._invoke(["-m", "fockmet.cli"], i, 1, self.workdir / f"ref{i}")
            self._references[i] = result["csv"] if result["returncode"] == 0 else None
        return self._references[i]

    def prepare(self) -> None:
        for k in range(self.cycle):
            self.reference(k)

    def check(self, k: int, out: dict):
        reasons = []
        if out["returncode"] != 0:
            reasons.append(f"{out['config']}: exit code {out['returncode']} {' '.join(out['stderr'])}")
        elif not out["csv"]:
            reasons.append(f"{out['config']}: no CSV written")
        else:
            ref = self.reference(k)
            if ref is None:
                reasons.append(f"{out['config']}: --threads 1 reference run failed")
            elif ref != out["csv"]:
                reasons.append(f"{out['config']}: CSV differs from the --threads 1 run")
        csv_bytes = float(sum(len(b) for b in out["csv"].values()))
        return not reasons, reasons, {"cli.csv_bytes": csv_bytes}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    w.name: w for w in (CliCold, SensingPrecision, OpenSystem, FockTomography)
}

# How each diagnostic folds over the operations of a run.
DIAGNOSTICS = {
    "cli.csv_bytes": "mean",
    "metrology.maximize_fisher.max_rel_err": "max",
    "noise.parity_prob_noisy.abs_err": "max",
    "noise.first_order.max_abs_err": "max",
    "fockspace.wigner_value.max_abs_err": "max",
    "composite.prepare_fock.min_fidelity": "min",
    "composite.prepare_fock.p_success": "mean",
}
