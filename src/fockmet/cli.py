"""Batch experiment runner: config ingestion, sweeps, CSV/JSON emission.

Each experiment has one entry in ``_EXPERIMENT_TABLE``: its runner and its
grid fields, each with a parser and a default or marked required.  ``run``
parses the grids through that table, computes in a single thread and
writes the results; ``validate`` is a dry run of the same parse and compute
that writes nothing, so it rejects exactly what ``run`` rejects.  The
closed-form sweeps evaluate their whole grid in one array call, and the
two sensing sweeps take their Fisher column from the curve's analytic
slope.  Shot noise is drawn from one generator per run, seeded from the
config, in grid order, so identical configs produce byte-identical
outputs.  ``--threads`` is accepted for compatibility and changes nothing.
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
    sample_shots,
    sinusoidal_filter,
    prepare_fock,
)
from .errors import ConfigError, FockmetError
from .estimation import fit_ramsey_frequency, fit_scaling_exponent
from .fockspace import HilbertSpec, coherent_state, default_spec
from .fockspace import wigner_value  # noqa: F401  bench/test_bench.py reads cli.wigner_value
from .metrology import (
    cfi_of_curve,
    fock_fisher,
    parity_curve_deriv,
    parity_curve_ideal,
    parity_shape,
    phase_curve_deriv,
    phase_curve_ideal,
    weighted_fisher,
)
from .noise import toy_model

OUTDIR_ENV = "FOCKMET_OUTDIR"

_REQUIRED = object()  # default of a field the config must give

# Ceiling on the truncation dim a config may derive (dim 540 at N = 400).
# A coherent state's vacuum amplitude e^{-|alpha|^2/2} underflows past
# |alpha|^2 ~ 1490 (dim ~ 1740), so no amplitude that can run is refused.
MAX_DIM = 2048

# Most points in a grid, and rows (grid sizes' product); shipped configs use <= 3,721.
_MAX_GRID_POINTS = 10**6


@dataclass
class RunConfig:
    experiment: str
    grids: dict
    device: DeviceParams = field(default_factory=DeviceParams)
    shots: int | None = None
    seed: int = 0
    output_path: str = "out"


def _is_int(value) -> bool:
    """YAML ``true`` loads as a bool, which Python counts as the int 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, context: str) -> int:
    if not _is_int(value):
        raise ConfigError(context, "must be an integer")
    return value


def _number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(context, "must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(context, "must be a finite number")
    return number


def _photon_number(value, context: str) -> int:
    if not _is_int(value) or value < 0:
        raise ConfigError(context, "must be a non-negative integer")
    # |N> needs dim N + 1; closed-form sweeps would otherwise run any N, or overflow.
    if value >= MAX_DIM:
        raise ConfigError(context, f"needs a truncation above dim {MAX_DIM}")
    return value


def _string(value, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(context, "must be a string")
    return value


def _parse_fields(raw, fields: dict, context: str = "") -> dict:
    """Check a mapping against ``fields`` (name -> (parser, default)) and parse it.

    A field left out or given as null takes its default.  Errors name a field
    as ``context.name``, or as ``name`` at the config root (no context).
    """
    if not isinstance(raw, dict):
        raise ConfigError(context or "<root>", "expected a mapping")
    where = (lambda name: f"{context}.{name}") if context else str
    for key in raw:
        if key not in fields:
            raise ConfigError(where(key), "unknown field")
    typed = {}
    for name, (parse, default) in fields.items():
        value = default if raw.get(name) is None else raw[name]
        if value is _REQUIRED:
            raise ConfigError(where(name), "missing")
        typed[name] = None if value is None else parse(value, where(name))
    return typed


def _truncation(photons, context: str) -> HilbertSpec:
    """``default_spec`` for ``photons`` photons, checked before anything is allocated.

    Raises a ConfigError naming ``context`` when its dim would pass MAX_DIM.
    """
    if photons <= MAX_DIM:
        spec = default_spec(int(photons))
        if spec.dim <= MAX_DIM:
            return spec
    raise ConfigError(context, f"needs a truncation above dim {MAX_DIM}")


def _grid(entry, context: str, item=_number) -> np.ndarray:
    """An explicit list or a {start, stop, step} mapping; ``item`` parses each value."""
    if isinstance(entry, dict):
        bounds = dict.fromkeys(("start", "stop", "step"), (item, _REQUIRED))
        start, stop, step = _parse_fields(entry, bounds, context).values()
        if step <= 0:
            raise ConfigError(f"{context}.step", "must be positive")
        if (stop - start) / step >= _MAX_GRID_POINTS:
            raise ConfigError(context, f"has more than {_MAX_GRID_POINTS:,} points")
        entry = start + step * np.arange(int(round((stop - start) / step)) + 1)
    elif isinstance(entry, list):
        entry = [item(value, f"{context}[{i}]") for i, value in enumerate(entry)]
    else:
        raise ConfigError(context, "expected list or {start, stop, step}")
    if len(entry) == 0:
        raise ConfigError(context, "grid has no points")
    return np.asarray(entry)


def _photon_grid(entry, context: str) -> np.ndarray:
    return _grid(entry, context, _photon_number)


def _mapping(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(context, "must be a mapping")
    return dict(value)


def _shots(value, context: str) -> int:
    if not _is_int(value) or not 0 < value < 2**63:
        raise ConfigError(context, "must be a positive integer below 2^63, or null")
    return value


def _experiment(value, context: str) -> str:
    if not isinstance(value, str) or value not in _EXPERIMENT_TABLE:
        raise ConfigError(context, f"must be one of {', '.join(_EXPERIMENT_TABLE)}")
    return value


# Every DeviceParams constant is a number; a field left out keeps its default.
_DEVICE_FIELDS = {f.name: (_number, f.default) for f in dataclasses.fields(DeviceParams)}


def _device(value, context: str) -> DeviceParams:
    try:
        return DeviceParams(**_parse_fields(value, _DEVICE_FIELDS, context))
    except ValueError as exc:
        raise ConfigError(context, str(exc)) from exc


# The config root, parsed like any other mapping; ``_compute`` parses the grids.
_CONFIG_FIELDS = {
    "experiment": (_experiment, _REQUIRED),
    "grids": (_mapping, {}),
    "device": (_device, {}),
    "shots": (_shots, None),
    "seed": (_integer, 0),
    "output_path": (_string, "out"),
}


def load_config(path: str | Path) -> RunConfig:
    with open(path) as fh:
        return RunConfig(**_parse_fields(yaml.safe_load(fh), _CONFIG_FIELDS))


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


def _provenance(config: RunConfig, dims: list[int], extra: list[str]) -> list[str]:
    return [
        f"fockmet version = {__version__}",
        f"experiment = {config.experiment}",
        f"seed = {config.seed}",
        f"shots = {config.shots if config.shots is not None else 'exact'}",
        f"truncation dims = {' '.join(str(d) for d in dims)}",
        *extra,
    ]


# Filter kind -> (constructor, fields after the target photon number).
_FILTERS = {
    "sinusoidal": (sinusoidal_filter, {"theta": (_number, _REQUIRED)}),
    "generalized": (generalized_filter, {"theta": (_number, _REQUIRED), "phi": (_number, 0.0)}),
    "gaussian": (gaussian_filter, {"sigma": (_number, _REQUIRED)}),
}


def _parse_schedule(raw, context: str) -> list[FilterSpec]:
    if not isinstance(raw, list):
        raise ConfigError(context, "expected a list of filters")
    specs = []
    for i, entry in enumerate(raw):
        ctx = f"{context}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(ctx, "expected a mapping")
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in _FILTERS:
            raise ConfigError(f"{ctx}.kind", f"must be one of {', '.join(_FILTERS)}")
        make, fields = _FILTERS[kind]
        args = _parse_fields({k: v for k, v in entry.items() if k != "kind"}, fields, ctx)
        try:
            specs.append(make(0, *args.values()))
        except ValueError as exc:
            raise ConfigError(ctx, str(exc)) from exc
    return specs


def _shot_rng(config: RunConfig):
    """The shot generator seeded by ``config.seed``; None when no shots are drawn.

    ``sample_shots`` ignores the generator when ``shots`` is None, and
    building one loads ``numpy.random``, a sizeable share of a cold run.
    """
    return None if config.shots is None else np.random.default_rng(config.seed)


def _sensing_rows(config: RunConfig, grid, curve, slope):
    """(grid, p_g, Fisher) rows of a closed-form sensing curve, each column one array call."""
    pg = sample_shots(curve(grid), config.shots, _shot_rng(config))
    return list(zip(grid, pg, cfi_of_curve(curve, grid, slope)))


def _run_displacement_sweep(config: RunConfig, N, beta):
    rows = _sensing_rows(
        config, beta, lambda x: parity_curve_ideal(N, x), lambda x: parity_curve_deriv(N, x)
    )
    columns = ["beta (dimensionless)", "p_g (probability)", "fisher (1/beta^2)"]
    return columns, rows, [default_spec(N).dim], [f"N = {N}"]


def _run_phase_sweep(config: RunConfig, N, phi):
    gamma = math.sqrt(N) if N > 0 else 1.0
    rows = _sensing_rows(
        config, phi, lambda x: phase_curve_ideal(N, gamma, x), lambda x: phase_curve_deriv(N, gamma, x)
    )
    columns = ["phi (rad)", "p_g (probability)", "fisher (1/rad^2)"]
    return columns, rows, [default_spec(2 * N).dim], [f"N = {N}", f"gamma^2 = {_fmt(gamma * gamma)}"]


def _run_ramsey_scan(config: RunConfig, n_values, theta, target_n):
    rng = _shot_rng(config)
    rows, extra = [], []
    for n in n_values:
        trace = sample_shots(ramsey_trace(n, target_n, theta), config.shots, rng)
        for t, p in zip(theta, trace):
            rows.append((n, t, p))
        try:
            freq = fit_ramsey_frequency(theta, trace)
            extra.append(f"fitted frequency n={n}: {_fmt(freq)}")
        except ValueError:
            extra.append(f"fitted frequency n={n}: none")
    columns = ["n (photons)", "theta (rad)", "p_g (probability)"]
    return columns, rows, [max(n_values) + 1], extra


def _run_prepare_fock(config: RunConfig, N, init_alpha, schedule, gaussian_sigma):
    # min() keeps the square finite; past MAX_DIM the bound rejects it anyway.
    alpha_photons = int(min(abs(init_alpha or 0), MAX_DIM) ** 2)
    spec = _truncation(max(N, alpha_photons), "grids.N" if N >= alpha_photons else "grids.init_alpha")
    if schedule is None:
        schedule = default_fock_schedule(N, gaussian_sigma)
    state, p_success, fidelity = prepare_fock(
        N, schedule, spec, init_alpha=init_alpha if init_alpha is None else complex(init_alpha)
    )
    pops = state.populations()
    rows = [(k, pops[k]) for k in range(spec.dim) if pops[k] > 1e-14]
    columns = ["n (photons)", "population (probability)"]
    extra = [
        f"success probability = {_fmt(p_success)}",
        f"fidelity to target = {_fmt(fidelity)}",
    ]
    return columns, rows, [spec.dim], extra


def _run_resolved_sweep(config: RunConfig, alpha, m):
    spec = _truncation(int(min(abs(alpha), MAX_DIM) ** 2) + 1, "grids.alpha")
    state = coherent_state(complex(alpha), spec)
    traces = resolve_photon_cascade(state, m)
    rows = [
        (t.resolved_n, "".join(str(b) for b in reversed(t.bits)), _fmt(t.probability),
         _fmt(fock_fisher(t.resolved_n)))
        for t in sorted(traces, key=lambda t: t.resolved_n)
    ]
    pops = state.populations()
    nbar = state.mean_photon_number()
    weighted = float(weighted_fisher(list(enumerate(pops)), fock_fisher))
    columns = ["resolved_n (photons)", "bits (b_m..b_1)", "probability", "fisher_small_beta (1/beta^2)"]
    extra = [
        f"mean photon number = {_fmt(nbar)}",
        f"weighted fisher = {_fmt(weighted)}",
    ]
    return columns, rows, [spec.dim], extra


def _run_scaling_study(config: RunConfig, N):
    fisher = fock_fisher(N)
    precisions = 1.0 / np.sqrt(fisher)
    exponent, intercept = fit_scaling_exponent(N, precisions)
    rows = list(zip(N, fisher, precisions))
    columns = ["N (photons)", "fisher (1/beta^2)", "delta_beta (dimensionless)"]
    extra = [f"scaling exponent = {_fmt(exponent)}", f"scaling intercept = {_fmt(intercept)}"]
    return columns, rows, [default_spec(int(N.max())).dim], extra


def _run_toy_model_study(config: RunConfig, N):
    d = config.device
    rows = []
    for n in N:
        r = toy_model(int(n), d)
        rows.append((n, r.lambda1, r.lambda2, r.precision, r.gain_db))
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


def _run_wigner_map(config: RunConfig, N, re, im):
    # Cahill-Glauber closed form of the Fock-state Wigner function:
    # W(alpha) = (2/pi) (-1)^N exp(-2|alpha|^2) L_N(4|alpha|^2); no truncation.
    re_alpha, im_alpha = (g.ravel() for g in np.meshgrid(re, im))
    wigner = (2.0 / math.pi) * (-1.0) ** N * parity_shape(N, np.hypot(re_alpha, im_alpha))[0]
    rows = list(zip(re_alpha, im_alpha, wigner))
    columns = ["re_alpha (dimensionless)", "im_alpha (dimensionless)", "wigner (1/area)"]
    return columns, rows, [], [f"N = {N}"]


# Experiment -> (runner, grid fields).  Each field maps to (parser, default);
# a default is a config value and goes through the parser like one.
_EXPERIMENT_TABLE = {
    "PrepareFock": (_run_prepare_fock, {
        "N": (_photon_number, _REQUIRED),
        "init_alpha": (_number, None),
        "schedule": (_parse_schedule, None),
        "gaussian_sigma": (_number, 0.9),
    }),
    "RamseyScan": (_run_ramsey_scan, {
        "n_values": (_photon_grid, _REQUIRED),
        "theta": (_grid, dict(start=0.0, stop=2.0 * math.pi, step=2.0 * math.pi / 512)),
        "target_n": (_photon_number, 0),
    }),
    "DisplacementSweep": (_run_displacement_sweep, {
        "N": (_photon_number, _REQUIRED),
        "beta": (_grid, dict(start=0.0, stop=1.0, step=0.02)),
    }),
    "PhaseSweep": (_run_phase_sweep, {
        "N": (_photon_number, _REQUIRED),
        "phi": (_grid, dict(start=0.0, stop=0.5, step=0.01)),
    }),
    "ResolvedSweep": (_run_resolved_sweep, {
        "alpha": (_number, _REQUIRED),
        "m": (_integer, _REQUIRED),  # resolve_photon_cascade bounds the depth
    }),
    "ScalingStudy": (_run_scaling_study, {"N": (_photon_grid, dict(start=1, stop=40, step=1))}),
    "ToyModelStudy": (_run_toy_model_study, {"N": (_photon_grid, dict(start=1, stop=100, step=1))}),
    "WignerMap": (_run_wigner_map, {
        "N": (_photon_number, _REQUIRED),
        "re": (_grid, dict(start=-4.0, stop=4.0, step=0.25)),
        "im": (_grid, dict(start=-4.0, stop=4.0, step=0.25)),
    }),
}


def _compute(config: RunConfig):
    """Parse the grids through the table and run the experiment; writes nothing."""
    runner, fields = _EXPERIMENT_TABLE[config.experiment]
    grids = _parse_fields(config.grids, fields, "grids")
    sizes = {f"grids.{name}": g.size for name, g in grids.items() if isinstance(g, np.ndarray)}
    if math.prod(sizes.values()) > _MAX_GRID_POINTS:
        raise ConfigError(" x ".join(sizes), f"has more than {_MAX_GRID_POINTS:,} rows")
    return runner(config, **grids)


def run(config: RunConfig, out_dir: str | Path | None = None, threads: int = 1) -> list[Path]:
    """Execute one experiment; returns the written file paths.

    ``threads`` must be at least 1 and changes nothing: every experiment
    runs in the calling thread.  Output that cannot be written raises
    ValueError.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    target = Path(os.environ.get(OUTDIR_ENV) or out_dir or config.output_path)
    columns, rows, dims, extra = _compute(config)
    stem = config.experiment.lower()
    echo_path = target / f"{stem}_config.yaml"
    csv_path = target / f"{stem}_results.csv"
    try:
        target.mkdir(parents=True, exist_ok=True)
        with open(echo_path, "w") as fh:
            yaml.safe_dump(dataclasses.asdict(config), fh, sort_keys=True)
        _write_csv(csv_path, _provenance(config, dims, extra), columns, rows)
    except OSError as exc:
        raise ValueError(f"cannot write output {exc.filename}: {exc.strerror}") from exc
    return [echo_path, csv_path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fockmet", description="Fock-state metrology sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--threads", type=int, default=1, help="at least 1; has no effect")

    val_p = sub.add_parser("validate", help="dry run: parse and compute a config, write nothing")
    val_p.add_argument("config")

    sub.add_parser("version", help="print the tool version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    try:
        config = load_config(args.config)
        if args.command == "validate":
            _compute(config)
            print(f"ok: {config.experiment}")
            return 0
        if args.seed is not None:
            config.seed = args.seed
        paths = run(config, out_dir=args.out, threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, yaml.YAMLError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except (FockmetError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
