"""Statistical back-end: model fits, population reconstruction, bootstrap.

All fitted models are linear in their amplitude/background parameters, so
the solvers are direct least squares.  The spectroscopy (width) and Ramsey
(frequency) fits are variable projection: a linear solve nested inside the
package's one 1-D search, ``metrology.golden_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .metrology import Parameter, golden_max, maximize_fisher, parity_shape

DEGENERATE_AMPLITUDE = 1e-8
# Fitted probability models can slightly overshoot [0, 1]; near the
# crossing the binary Fisher information diverges spuriously.  Points where
# the model is within this margin of saturation are excluded from the
# precision maximization.
SATURATION_MARGIN = 1e-3


@dataclass(frozen=True)
class FitResult:
    parameters: dict[str, float]
    covariance: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    degenerate: bool = False


def _lstsq(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int, float]:
    """(coefficients, rank, residual norm) of the least-squares fit of y on design's columns."""
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    return coef, rank, float(np.linalg.norm(y - design @ coef))


def _linear_fit(design: np.ndarray, y: np.ndarray, names: list[str]) -> FitResult:
    coef, rank, residual_norm = _lstsq(design, y)
    dof = max(len(y) - design.shape[1], 1)
    sigma2 = residual_norm**2 / dof
    gram = design.T @ design
    try:
        cov = sigma2 * np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        cov = np.full((design.shape[1], design.shape[1]), np.nan)
    converged = rank == design.shape[1]
    return FitResult(
        parameters=dict(zip(names, (float(c) for c in coef))),
        covariance=cov,
        residual_norm=residual_norm,
        converged=converged,
        iterations=1,
    )


def _curve_fit(grid, samples, N, scale: float) -> FitResult:
    """Fit P_g = A exp(-2 beta^2) L_N(4 beta^2) + B at beta = scale * grid."""
    grid = np.asarray(grid, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if grid.size < 8:
        raise ValueError("need at least 8 grid points")
    if np.any((samples < -1e-9) | (samples > 1.0 + 1e-9)):
        raise ValueError("probabilities must lie in [0, 1]")
    design = np.column_stack([parity_shape(N, scale * grid)[0], np.ones_like(grid)])
    result = _linear_fit(design, samples, ["A", "B"])
    span = float(np.max(np.abs(design[:, 0])) - np.min(np.abs(design[:, 0])))
    degenerate = abs(result.parameters["A"]) * max(span, 1.0) < DEGENERATE_AMPLITUDE
    return replace(result, degenerate=degenerate)


def fit_displacement_curve(beta_grid, pg_samples, N: int) -> FitResult:
    """Fit P_g = A exp(-2 beta^2) L_N(4 beta^2) + B."""
    return _curve_fit(beta_grid, pg_samples, N, 1.0)


def fit_phase_curve(phi_grid, pg_samples, N: int) -> FitResult:
    """Fit P_g = A exp(-2N phi^2) L_N(4N phi^2) + B: the displacement shape at
    beta = sqrt(N) phi, i.e. gamma^2 = N."""
    return _curve_fit(phi_grid, pg_samples, N, math.sqrt(N))


def fit_multi_gaussian(f_grid, signal, f_centers) -> tuple[np.ndarray, FitResult]:
    """Reconstruct photon populations from a multi-Gaussian spectroscopy signal.

    Shared width sigma_f and background B as constrained parameters; the
    per-center amplitudes solve a linear system nested inside a 1-D search
    over sigma_f, bounded by the grid resolution and the center spacing.  Negative amplitudes are clamped to
    zero before normalization.  Returns (populations, fit).
    """
    f_grid = np.asarray(f_grid, dtype=float)
    signal = np.asarray(signal, dtype=float)
    f_centers = np.asarray(f_centers, dtype=float)
    spacing = np.min(np.abs(np.diff(np.sort(f_centers)))) if f_centers.size > 1 else np.ptp(f_grid)

    def design_for(sigma_f: float) -> np.ndarray:
        cols = [np.exp(-((f_grid - fc) ** 2) / (2.0 * sigma_f**2)) for fc in f_centers]
        cols.append(np.ones_like(f_grid))
        return np.column_stack(cols)

    lo = max(np.ptp(f_grid) / (4.0 * f_grid.size), spacing / 50.0)
    hi = max(spacing * 2.0, lo * 10.0)
    sigma_f = float(golden_max(lambda w: -_lstsq(design_for(w), signal)[2], lo, hi, 33, 1e-10 * hi)[1])
    if f_centers.size > 1 and spacing < sigma_f / 10.0:
        raise ValueError(
            f"centers closer than sigma_f/10 ({spacing:.3g} < {sigma_f / 10.0:.3g}): singular design"
        )
    design = design_for(sigma_f)
    names = [f"A{k}" for k in range(f_centers.size)] + ["B"]
    fit = _linear_fit(design, signal, names)
    amps = np.array([fit.parameters[f"A{k}"] for k in range(f_centers.size)])
    amps = np.clip(amps, 0.0, None)
    total = amps.sum()
    if total <= 0:
        raise ValueError("all fitted amplitudes non-positive")
    populations = amps / total
    return populations, replace(fit, parameters={**fit.parameters, "sigma_f": sigma_f})


def fit_ramsey_frequency(theta_grid, pg_trace) -> float:
    """Dominant oscillation frequency of a Ramsey trace, in cycles per 2pi of theta.

    Spectrum peak first, then variable projection on a + b cos(f theta) + c sin(f theta)
    within one FFT bin of it.  For a Fock-|n> trace the result is n.
    """
    theta = np.asarray(theta_grid, dtype=float)
    trace = np.asarray(pg_trace, dtype=float)
    if theta.size < 8:
        raise ValueError("trace too short")
    centered = trace - trace.mean()
    spectrum = np.abs(np.fft.rfft(centered))
    noise_floor = 3.0 * np.median(spectrum) + 1e-12
    k = int(np.argmax(spectrum))
    if k == 0 or spectrum[k] < noise_floor:
        raise ValueError("no dominant spectral peak above the noise floor")
    bin_width = 2.0 * math.pi / (theta[-1] - theta[0])
    freq0 = bin_width * k

    def design_for(freq: float) -> np.ndarray:
        return np.column_stack([np.ones_like(theta), np.cos(freq * theta), np.sin(freq * theta)])

    return float(golden_max(
        lambda f: -_lstsq(design_for(f), trace)[2],
        freq0 - bin_width, freq0 + bin_width, 21, 1e-13 * freq0,
    )[1])


@dataclass(frozen=True)
class ShotRecord:
    """Per-grid-point binary counts of a sensing sweep.

    ``shots=None`` marks the infinite-shot limit: ``pg`` holds exact
    probabilities and resampling reproduces them verbatim.
    """

    grid: np.ndarray
    pg: np.ndarray
    shots: int | None
    model: Parameter
    N: int


def _fisher_precision_from_fit(record: ShotRecord, pg: np.ndarray) -> float:
    if record.model is Parameter.BETA:
        fit = fit_displacement_curve(record.grid, np.clip(pg, 0.0, 1.0), record.N)
        scale = 1.0
    else:
        fit = fit_phase_curve(record.grid, np.clip(pg, 0.0, 1.0), record.N)
        scale = math.sqrt(record.N)
    a, b = fit.parameters["A"], fit.parameters["B"]

    def p_of(lam: float) -> float:
        p = a * parity_shape(record.N, scale * lam)[0] + b
        if p < SATURATION_MARGIN or p > 1.0 - SATURATION_MARGIN:
            return 0.0
        return p

    def dp_of(lam: float) -> float:
        return a * scale * parity_shape(record.N, scale * lam)[1]

    lo, hi = float(record.grid.min()), float(record.grid.max())
    if lo <= 0.0:
        lo = (hi - lo) * 1e-4
    fisher_max, _ = maximize_fisher(p_of, lo, hi, dp_of)
    if fisher_max <= 0:
        raise ValueError("fitted model carries no Fisher information")
    return 1.0 / math.sqrt(fisher_max)


def bootstrap_precision(
    record: ShotRecord, resamples: int = 500, seed: int = 0
) -> tuple[float, float]:
    """Bootstrap the extracted precision: resample counts, refit, re-maximize.

    Returns (mean precision, standard error).  Deterministic for a fixed
    seed; raises if more than 5% of the resample fits fail.
    """
    if resamples < 200:
        raise ValueError("resamples must be >= 200")
    streams = np.random.SeedSequence(seed).spawn(resamples)
    values = []
    failures = 0
    for stream in streams:
        rng = np.random.default_rng(stream)
        if record.shots is None:
            pg = record.pg
        else:
            pg = rng.binomial(record.shots, np.clip(record.pg, 0.0, 1.0)) / record.shots
        try:
            values.append(_fisher_precision_from_fit(record, pg))
        except (ValueError, np.linalg.LinAlgError):
            failures += 1
    if failures > 0.05 * resamples:
        raise RuntimeError(f"{failures}/{resamples} bootstrap refits failed")
    arr = np.array(values)
    return float(arr.mean()), float(arr.std(ddof=1) if arr.size > 1 else 0.0)


def fit_scaling_exponent(x, y) -> tuple[float, float]:
    """Ordinary least squares on (log10 x, log10 y): returns (exponent, intercept)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("need at least 3 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("all values must be positive")
    slope, intercept = np.polyfit(np.log10(x), np.log10(y), 1)
    return float(slope), float(intercept)
