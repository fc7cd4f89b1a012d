"""Batch experiment runner: config ingestion, sweeps, CSV/JSON emission.

One experiment per invocation, computed in a single thread.  The closed-form
sweeps evaluate their whole grid in one array call.  Shot noise is drawn
from one generator per run, seeded from the config, in grid order, so
identical configs produce byte-identical outputs.  ``--threads`` is
accepted for compatibility and changes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .composite import (
    DeviceParams,
    FilterSpec,
    default_fock_schedule,
    gaussian_filter,
    generalized_filter,
    ramsey_trace,
    resolve_photon_cascade,
    sinusoidal_filter,
    prepare_fock,
)
from .errors import ConfigError, FockmetError
from .estimation import fit_ramsey_frequency, fit_scaling_exponent
from .fockspace import coherent_state, default_spec
from .fockspace import wigner_value  # noqa: F401  bench/test_bench.py reads cli.wigner_value
from .metrology import (
    cfi_of_curve,
    parity_curve_deriv,
    parity_curve_ideal,
    parity_shape,
    phase_curve_ideal,
)
from .noise import toy_model

OUTDIR_ENV = "FOCKMET_OUTDIR"

EXPERIMENTS = (
    "PrepareFock",
    "RamseyScan",
    "DisplacementSweep",
    "PhaseSweep",
    "ResolvedSweep",
    "ScalingStudy",
    "ToyModelStudy",
    "WignerMap",
)

DEVICE_FIELDS = {f.name for f in dataclasses.fields(DeviceParams)}


@dataclass
class RunConfig:
    experiment: str
    grids: dict
    device: DeviceParams = field(default_factory=DeviceParams)
    shots: int | None = None
    seed: int = 0
    output_path: str = "out"


def _require_keys(mapping: dict, allowed: set[str], context: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{context}.{key}", "unknown field")


def _is_int(value) -> bool:
    """YAML ``true`` loads as a bool, which Python counts as the int 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_booleans(value, context: str) -> None:
    if isinstance(value, bool):
        raise ConfigError(context, "must be a number, not a boolean")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_booleans(item, f"{context}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_booleans(item, f"{context}[{i}]")


def _range_from(entry, context: str) -> np.ndarray:
    """Accept either an explicit list or a {start, stop, step} mapping."""
    if isinstance(entry, dict):
        _require_keys(entry, {"start", "stop", "step"}, context)
        try:
            start, stop, step = entry["start"], entry["stop"], entry["step"]
        except KeyError as exc:
            raise ConfigError(f"{context}.{exc.args[0]}", "missing") from exc
        if not all(isinstance(v, (int, float)) for v in (start, stop, step)):
            raise ConfigError(context, "start, stop and step must be numbers")
        if step <= 0:
            raise ConfigError(f"{context}.step", "must be positive")
        entry = start + step * np.arange(int(round((stop - start) / step)) + 1)
    elif not isinstance(entry, list):
        raise ConfigError(context, "expected list or {start, stop, step}")
    grid = np.asarray(entry, dtype=float)
    if grid.size == 0:
        raise ConfigError(context, "grid has no points")
    return grid


def load_config(path: str | Path) -> RunConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping")
    _require_keys(raw, {"experiment", "grids", "device", "shots", "seed", "output_path"}, "config")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {', '.join(EXPERIMENTS)}")
    device_raw = raw.get("device") or {}
    _require_keys(device_raw, DEVICE_FIELDS, "device")
    try:
        device = DeviceParams(**device_raw)
    except ValueError as exc:
        raise ConfigError("device", str(exc)) from exc
    shots = raw.get("shots")
    if shots is not None and (not _is_int(shots) or shots <= 0):
        raise ConfigError("shots", "must be a positive integer or null")
    seed = raw.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError("seed", "must be an integer")
    grids = raw.get("grids") or {}
    if not isinstance(grids, dict):
        raise ConfigError("grids", "must be a mapping")
    _reject_booleans(grids, "grids")
    return RunConfig(
        experiment=experiment,
        grids=grids,
        device=device,
        shots=shots,
        seed=seed,
        output_path=str(raw.get("output_path", "out")),
    )


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _write_csv(path: Path, header_lines: list[str], columns: list[str], rows) -> None:
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _provenance(config: RunConfig, dims: list[int], extra: list[str] | None = None) -> list[str]:
    lines = [
        f"fockmet version = {__version__}",
        f"experiment = {config.experiment}",
        f"seed = {config.seed}",
        f"shots = {config.shots if config.shots is not None else 'exact'}",
        f"truncation dims = {' '.join(str(d) for d in dims)}",
    ]
    if extra:
        lines.extend(extra)
    return lines


def _sample(probabilities: np.ndarray, config: RunConfig, rng: np.random.Generator) -> np.ndarray:
    """Binomial shot noise drawn from the run's generator; exact when shots is null."""
    if config.shots is None:
        return probabilities
    return rng.binomial(config.shots, np.clip(probabilities, 0.0, 1.0)) / config.shots


def _parse_schedule(raw, context: str) -> list[FilterSpec]:
    specs = []
    for i, entry in enumerate(raw):
        ctx = f"{context}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(ctx, "expected a mapping")
        _require_keys(entry, {"kind", "theta", "phi", "sigma"}, ctx)
        kind = entry.get("kind")
        try:
            if kind == "sinusoidal":
                specs.append(sinusoidal_filter(0, float(entry["theta"])))
            elif kind == "generalized":
                specs.append(generalized_filter(0, float(entry["theta"]), float(entry.get("phi", 0.0))))
            elif kind == "gaussian":
                specs.append(gaussian_filter(0, float(entry["sigma"])))
            else:
                raise ConfigError(f"{ctx}.kind", "must be sinusoidal, generalized or gaussian")
        except (KeyError, ValueError) as exc:
            raise ConfigError(ctx, str(exc)) from exc
    return specs


def _grid_int(grids: dict, key: str, context: str) -> int:
    if key not in grids:
        raise ConfigError(f"{context}.{key}", "missing")
    value = grids[key]
    if not _is_int(value) or value < 0:
        raise ConfigError(f"{context}.{key}", "must be a non-negative integer")
    return value


def _run_displacement_sweep(config: RunConfig):
    grids = config.grids
    _require_keys(grids, {"N", "beta"}, "grids")
    n = _grid_int(grids, "N", "grids")
    betas = _range_from(grids.get("beta", {"start": 0.0, "stop": 1.0, "step": 0.02}), "grids.beta")
    pg = _sample(parity_curve_ideal(n, betas), config, np.random.default_rng(config.seed))
    fisher = [
        cfi_of_curve(lambda x: parity_curve_ideal(n, x), float(b),
                     lambda x: parity_curve_deriv(n, x))
        for b in betas
    ]
    rows = list(zip(betas, pg, fisher))
    columns = ["beta (dimensionless)", "p_g (probability)", "fisher (1/beta^2)"]
    return columns, rows, [default_spec(n).dim], [f"N = {n}"]


def _run_phase_sweep(config: RunConfig):
    grids = config.grids
    _require_keys(grids, {"N", "phi"}, "grids")
    n = _grid_int(grids, "N", "grids")
    gamma = math.sqrt(n) if n > 0 else 1.0
    phis = _range_from(grids.get("phi", {"start": 0.0, "stop": 0.5, "step": 0.01}), "grids.phi")
    pg = _sample(phase_curve_ideal(n, gamma, phis), config, np.random.default_rng(config.seed))
    fisher = [
        cfi_of_curve(lambda x: phase_curve_ideal(n, gamma, x), float(p))
        for p in phis
    ]
    rows = list(zip(phis, pg, fisher))
    columns = ["phi (rad)", "p_g (probability)", "fisher (1/rad^2)"]
    return columns, rows, [default_spec(2 * n).dim], [f"N = {n}", f"gamma^2 = {_fmt(gamma * gamma)}"]


def _run_ramsey_scan(config: RunConfig):
    grids = config.grids
    _require_keys(grids, {"n_values", "theta", "target_n"}, "grids")
    n_values = grids.get("n_values")
    if not (isinstance(n_values, list) and n_values and all(_is_int(n) and n >= 0 for n in n_values)):
        raise ConfigError("grids.n_values", "must be a non-empty list of non-negative integers")
    target_n = _grid_int(grids, "target_n", "grids") if "target_n" in grids else 0
    thetas = _range_from(
        grids.get("theta", {"start": 0.0, "stop": 2.0 * math.pi, "step": 2.0 * math.pi / 512}),
        "grids.theta",
    )
    rng = np.random.default_rng(config.seed)
    rows = []
    extra = []
    for n in n_values:
        trace = _sample(ramsey_trace(n, target_n, thetas), config, rng)
        for theta, p in zip(thetas, trace):
            rows.append((n, theta, p))
        try:
            freq = fit_ramsey_frequency(thetas, trace)
            extra.append(f"fitted frequency n={n}: {_fmt(freq)}")
        except ValueError:
            extra.append(f"fitted frequency n={n}: none")
    columns = ["n (photons)", "theta (rad)", "p_g (probability)"]
    return columns, rows, [max(n_values) + 1], extra


def _run_prepare_fock(config: RunConfig):
    grids = config.grids
    _require_keys(grids, {"N", "init_alpha", "schedule", "gaussian_sigma"}, "grids")
    n = _grid_int(grids, "N", "grids")
    init_alpha = grids.get("init_alpha")
    if "schedule" in grids:
        schedule = _parse_schedule(grids["schedule"], "grids.schedule")
    else:
        schedule = default_fock_schedule(n, float(grids.get("gaussian_sigma", 0.9)))
    spec = default_spec(max(n, int(abs(init_alpha or 0) ** 2)) )
    state, p_success, fidelity = prepare_fock(
        n, schedule, spec, init_alpha=init_alpha if init_alpha is None else complex(init_alpha)
    )
    pops = state.populations()
    rows = [(k, pops[k]) for k in range(spec.dim) if pops[k] > 1e-14]
    columns = ["n (photons)", "population (probability)"]
    extra = [
        f"success probability = {_fmt(p_success)}",
        f"fidelity to target = {_fmt(fidelity)}",
    ]
    return columns, rows, [spec.dim], extra


def _run_resolved_sweep(config: RunConfig):
    grids = config.grids
    _require_keys(grids, {"alpha", "m"}, "grids")
    alpha = grids.get("alpha")
    if not isinstance(alpha, (int, float)):
        raise ConfigError("grids.alpha", "missing" if alpha is None else "must be a number")
    m = _grid_int(grids, "m", "grids")
    if not 1 <= m <= 6:
        raise ConfigError("grids.m", "must be in [1, 6]")
    spec = default_spec(int(abs(alpha) ** 2) + 1)
    state = coherent_state(complex(alpha), spec)
    traces = resolve_photon_cascade(state, m)
    rows = [
        (t.resolved_n, "".join(str(b) for b in reversed(t.bits)), _fmt(t.probability),
         _fmt(4.0 * (2 * t.resolved_n + 1)))
        for t in sorted(traces, key=lambda t: t.resolved_n)
    ]
    pops = state.populations()
    nbar = state.mean_photon_number()
    weighted = float(sum(p * 4.0 * (2 * k + 1) for k, p in enumerate(pops)))
    columns = ["resolved_n (photons)", "bits (b_m..b_1)", "probability", "fisher_small_beta (1/beta^2)"]
    extra = [
        f"mean photon number = {_fmt(nbar)}",
        f"weighted fisher = {_fmt(weighted)}",
    ]
    return columns, rows, [spec.dim], extra


def _run_scaling_study(config: RunConfig):
    grids = config.grids
    _require_keys(grids, {"N"}, "grids")
    ns = _range_from(grids.get("N", {"start": 1, "stop": 40, "step": 1}), "grids.N")
    rows = []
    precisions = []
    for n in ns:
        fisher = 4.0 * (2.0 * n + 1.0)
        precision = 1.0 / math.sqrt(fisher)
        precisions.append(precision)
        rows.append((int(n), fisher, precision))
    exponent, intercept = fit_scaling_exponent(ns, precisions)
    columns = ["N (photons)", "fisher (1/beta^2)", "delta_beta (dimensionless)"]
    extra = [f"scaling exponent = {_fmt(exponent)}", f"scaling intercept = {_fmt(intercept)}"]
    return columns, rows, [default_spec(int(ns.max())).dim], extra


def _run_toy_model_study(config: RunConfig):
    grids = config.grids
    _require_keys(grids, {"N"}, "grids")
    ns = _range_from(grids.get("N", {"start": 1, "stop": 100, "step": 1}), "grids.N")
    d = config.device
    rows = []
    for n in ns:
        r = toy_model(int(n), d)
        rows.append((int(n), r.lambda1, r.lambda2, r.precision, r.gain_db))
    columns = [
        "N (photons)", "lambda1 (dimensionless)", "lambda2 (dimensionless)",
        "delta_beta (dimensionless)", "gain (dB)",
    ]
    extra = [
        f"2 kappa1 T_i = {_fmt(2.0 * d.kappa1 * d.T_i)}",
        f"kappa1 T_M = {_fmt(d.kappa1 * d.T_M)}",
        f"(kappa3+kappa4) T_M / 2 = {_fmt((d.kappa3 + d.kappa4) * d.T_M / 2.0)}",
        f"kappa2 T_D / 6 = {_fmt(d.kappa2 * d.T_D / 6.0)}",
    ]
    return columns, rows, [], extra


def _run_wigner_map(config: RunConfig):
    grids = config.grids
    _require_keys(grids, {"N", "re", "im"}, "grids")
    n = _grid_int(grids, "N", "grids")
    res = _range_from(grids.get("re", {"start": -4.0, "stop": 4.0, "step": 0.25}), "grids.re")
    ims = _range_from(grids.get("im", {"start": -4.0, "stop": 4.0, "step": 0.25}), "grids.im")
    # Cahill-Glauber closed form of the Fock-state Wigner function:
    # W(alpha) = (2/pi) (-1)^N exp(-2|alpha|^2) L_N(4|alpha|^2); no truncation.
    re_alpha, im_alpha = (g.ravel() for g in np.meshgrid(res, ims))
    wigner = (2.0 / math.pi) * (-1.0) ** n * parity_shape(n, np.hypot(re_alpha, im_alpha))[0]
    rows = list(zip(re_alpha, im_alpha, wigner))
    columns = ["re_alpha (dimensionless)", "im_alpha (dimensionless)", "wigner (1/area)"]
    return columns, rows, [], [f"N = {n}"]


_RUNNERS = {
    "DisplacementSweep": _run_displacement_sweep,
    "PhaseSweep": _run_phase_sweep,
    "RamseyScan": _run_ramsey_scan,
    "PrepareFock": _run_prepare_fock,
    "ResolvedSweep": _run_resolved_sweep,
    "ScalingStudy": _run_scaling_study,
    "ToyModelStudy": _run_toy_model_study,
    "WignerMap": _run_wigner_map,
}


def resolved_config_dict(config: RunConfig) -> dict:
    return {
        "experiment": config.experiment,
        "seed": config.seed,
        "shots": config.shots,
        "output_path": config.output_path,
        "device": dataclasses.asdict(config.device),
        "grids": config.grids,
    }


def run(config: RunConfig, out_dir: str | Path | None = None, threads: int = 1) -> list[Path]:
    """Execute one experiment; returns the written file paths.

    ``threads`` must be at least 1 and changes nothing: every experiment
    runs in the calling thread.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    target = Path(os.environ.get(OUTDIR_ENV) or out_dir or config.output_path)
    columns, rows, dims, extra = _RUNNERS[config.experiment](config)
    target.mkdir(parents=True, exist_ok=True)
    stem = config.experiment.lower()
    echo_path = target / f"{stem}_config.yaml"
    with open(echo_path, "w") as fh:
        yaml.safe_dump(resolved_config_dict(config), fh, sort_keys=True)
    csv_path = target / f"{stem}_results.csv"
    _write_csv(csv_path, _provenance(config, dims, extra), columns, rows)
    return [echo_path, csv_path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fockmet", description="Fock-state metrology sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--threads", type=int, default=1, help="at least 1; has no effect")

    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("config")

    sub.add_parser("version", help="print the tool version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, yaml.YAMLError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"ok: {config.experiment}")
        return 0
    if args.seed is not None:
        config.seed = args.seed
    try:
        paths = run(config, out_dir=args.out, threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FockmetError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
