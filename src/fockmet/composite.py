"""Qubit-cavity dispersive model: photon-number filters and derived signals.

The qubit lives on index 0 (ground) / 1 (excited) of a 2-dimensional factor,
composite states are ordered qubit (x) cavity.  Every photon-number filter
step goes through ``apply_filter``: the sinusoidal and generalized filters,
``resolve_photon_cascade`` and ``ramsey_trace`` all take their amplitude
profile from one Ramsey kernel, cos/sin((dn*theta - phi)/2), with the
per-component phases of the circuit set to zero.  The literal Ramsey-sandwich
circuit that cross-checks this profile lives in the tests.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import FilterStarvationError
from .fockspace import HilbertSpec, PureState, coherent_state

TWO_PI = 2.0 * math.pi

STARVATION_THRESHOLD = 1e-12
BRANCH_EPS = 1e-15


@dataclass(frozen=True)
class DeviceParams:
    """Hamiltonian constants, decoherence rates and protocol durations.

    Rates are angular (rad/s for shifts, 1/s for kappas); defaults reproduce
    the device characterization table and the error-analysis durations.
    Every field must be non-negative.  No model reads the table's cavity
    self-Kerr (2pi * 0.44 kHz) or readout fidelity (0.995).
    """

    chi_qc: float = TWO_PI * 0.626e6       # linear dispersive shift
    chi2_qc: float = TWO_PI * 0.328e3      # second-order dispersive shift
    kappa1: float = 1.0 / 1.2e-3           # cavity decay, 1/T1_cavity
    kappa2: float = 1.0 / 4.0e-3           # cavity dephasing, 1/Tphi_cavity
    kappa3: float = 1.0 / 93e-6            # qubit decay
    kappa4: float = 1.0 / 445e-6           # qubit dephasing
    T_i: float = 3e-6                      # init / measure-reset window
    T_M: float = 1600e-9                   # measurement window
    T_D: float = 200e-9                    # displacement duration

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) >= 0:
                raise ValueError(f"{f.name} must be non-negative")


class FilterKind(enum.Enum):
    SINUSOIDAL = "sinusoidal"
    GENERALIZED = "generalized"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class FilterSpec:
    """One photon-number filtration step."""

    kind: FilterKind
    target_n: int
    theta: float = 0.0   # sinusoidal / generalized
    phi: float = 0.0     # generalized only
    sigma: float = 0.0   # gaussian only

    def __post_init__(self):
        if self.target_n < 0:
            raise ValueError("target_n must be non-negative")
        if self.kind in (FilterKind.SINUSOIDAL, FilterKind.GENERALIZED):
            if not 0.0 < self.theta <= TWO_PI:
                raise ValueError(f"theta must be in (0, 2pi], got {self.theta}")
        if self.kind is FilterKind.GAUSSIAN and not self.sigma > 0.0:
            raise ValueError("sigma must be positive for a Gaussian filter")


def sinusoidal_filter(target_n: int, theta: float) -> FilterSpec:
    return FilterSpec(FilterKind.SINUSOIDAL, target_n, theta=theta)


def generalized_filter(target_n: int, theta: float, phi: float) -> FilterSpec:
    return FilterSpec(FilterKind.GENERALIZED, target_n, theta=theta, phi=phi)


def gaussian_filter(target_n: int, sigma: float) -> FilterSpec:
    return FilterSpec(FilterKind.GAUSSIAN, target_n, sigma=sigma)


def gaussian_sigma_from_pulse(tau: float, chi: float) -> float:
    """Filter width from a selective-pulse duration: sigma = 2*sqrt(2)/(chi*tau)."""
    return 2.0 * math.sqrt(2.0) / (chi * tau)


@dataclass(frozen=True)
class FilterOutcome:
    """Post-selected branches of one filter step.

    A branch is None when its probability is numerically zero.
    """

    branch_g: PureState | None
    branch_e: PureState | None
    p_g: float
    p_e: float


def _branch(amplitudes: np.ndarray, spec: HilbertSpec) -> tuple[PureState | None, float]:
    p = float(np.sum(np.abs(amplitudes) ** 2))
    if p < BRANCH_EPS:
        return None, p
    return PureState(amplitudes / math.sqrt(p), spec), p


def _ramsey(dn, theta: float, phi: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of the Ramsey half-angle (dn*theta - phi)/2 behind every filter profile."""
    arg = (dn * theta - phi) / 2.0
    return np.cos(arg), np.sin(arg)


def apply_filter(state: PureState, fspec: FilterSpec) -> FilterOutcome:
    """One photon-number filter step: the ground branch keeps cos(dn*theta/2)
    (sinusoidal), sin((dn*theta - phi)/2) (generalized) or exp(-dn^2/4 sigma^2)
    (Gaussian); the excited branch the complement.  A Gaussian filter that keeps
    less than 1e-12 of the probability raises FilterStarvationError."""
    dn = np.arange(state.spec.dim) - fspec.target_n
    if fspec.kind is FilterKind.SINUSOIDAL:
        keep, reject = _ramsey(dn, fspec.theta)
    elif fspec.kind is FilterKind.GENERALIZED:
        reject, keep = _ramsey(dn, fspec.theta, fspec.phi)
    else:
        keep = np.exp(-dn.astype(float) ** 2 / (4.0 * fspec.sigma**2))
        reject = np.sqrt(np.clip(1.0 - keep**2, 0.0, 1.0))
    branch_g, p_g = _branch(state.amplitudes * keep, state.spec)
    if fspec.kind is FilterKind.GAUSSIAN and p_g < STARVATION_THRESHOLD:
        raise FilterStarvationError(f"Gaussian filter sigma={fspec.sigma} kept probability {p_g:.2e}")
    branch_e, p_e = _branch(state.amplitudes * reject, state.spec)
    return FilterOutcome(branch_g, branch_e, p_g, p_e)


def default_fock_schedule(target_n: int, sigma: float = 0.9) -> list[FilterSpec]:
    """Gaussian pre-filter followed by the two sinusoidal comb filters."""
    return [
        gaussian_filter(target_n, sigma),
        sinusoidal_filter(target_n, math.pi / 2.0),
        sinusoidal_filter(target_n, math.pi),
    ]


def binary_fock_schedule(target_n: int, m: int) -> list[FilterSpec]:
    """m sinusoidal filters theta_j = pi / 2^(j-1), leaving support on target_n + k 2^m."""
    return [sinusoidal_filter(target_n, math.pi / 2 ** (j - 1)) for j in range(1, m + 1)]


def prepare_fock(
    target_n: int,
    schedule: list[FilterSpec],
    spec: HilbertSpec,
    init_alpha: complex | None = None,
) -> tuple[PureState, float, float]:
    """Run the ground branch of each filter in order on an initial coherent state.

    Returns (state, cumulative success probability, fidelity to |target_n>).
    Every filter is retargeted to ``target_n``.
    """
    if not schedule:
        raise ValueError("schedule must be non-empty")
    if init_alpha is None:
        init_alpha = math.sqrt(target_n)
    state = coherent_state(init_alpha, spec)
    p_total = 1.0
    for fspec in schedule:
        outcome = apply_filter(state, replace(fspec, target_n=target_n))
        if outcome.branch_g is None or p_total * outcome.p_g < STARVATION_THRESHOLD:
            raise FilterStarvationError(
                f"cumulative success probability {p_total * outcome.p_g:.2e} "
                f"after {fspec.kind.value} filter"
            )
        p_total *= outcome.p_g
        state = outcome.branch_g
    fidelity = abs(state.amplitudes[target_n]) ** 2
    return state, p_total, fidelity


def ramsey_trace(cavity_n: int, target_n: int, theta_grid: np.ndarray) -> np.ndarray:
    """Ground-state probability of the Ramsey sandwich on Fock |n>:
    p_g(theta) = cos^2((n - target_n) theta / 2)."""
    return _ramsey(cavity_n - target_n, np.asarray(theta_grid, dtype=float))[0] ** 2


def photon_detuning_hz(n: np.ndarray | int, params: DeviceParams) -> np.ndarray | float:
    """Qubit frequency detuning with n photons: -(n chi + n^2 chi'/2) / 2pi.

    Negative with increasing n: the dispersive shift lowers the qubit
    frequency per photon.
    """
    n = np.asarray(n, dtype=float)
    out = -(n * params.chi_qc + n**2 * params.chi2_qc / 2.0) / TWO_PI
    return out if out.ndim else float(out)


def spectroscopy_signal(
    populations: np.ndarray,
    f_grid: np.ndarray,
    params: DeviceParams,
    sigma_f: float,
    shots: int | None = None,
    seed: int | None = None,
    n_offset: int = 0,
) -> np.ndarray:
    """Multi-Gaussian qubit spectroscopy signal for given photon populations.

    ``populations[k]`` is the population of photon number ``n_offset + k``.
    With ``shots`` set, each grid point is replaced by a binomial sample
    mean using the given shot count.
    """
    populations = np.asarray(populations, dtype=float)
    f_grid = np.asarray(f_grid, dtype=float)
    if sigma_f <= 0:
        raise ValueError("sigma_f must be positive")
    ns = np.arange(n_offset, n_offset + populations.size)
    centers = np.asarray(photon_detuning_hz(ns, params))
    signal = np.zeros_like(f_grid)
    for pop, fn in zip(populations, centers):
        signal += pop * np.exp(-((f_grid - fn) ** 2) / (2.0 * sigma_f**2))
    # No generator when no shots are drawn: building one loads numpy.random.
    rng = None if shots is None else np.random.default_rng(seed)
    return sample_shots(signal, shots, rng)


def sample_shots(p, shots: int | None, rng: np.random.Generator | None):
    """Binomial shot means of the probabilities ``p``; ``p`` itself when shots is None.

    ``rng`` is not used when shots is None, and may then be None.
    """
    if shots is None:
        return p
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be None or a positive integer, got {shots!r}")
    return rng.binomial(shots, np.clip(p, 0.0, 1.0)) / shots


@dataclass(frozen=True)
class PnrTrace:
    """One outcome branch of the binary photon-number-resolving cascade."""

    bits: tuple[int, ...]
    resolved_n: int
    probability: float
    post_state: PureState | None


def resolve_photon_cascade(state: PureState, m: int, target_n: int = 0) -> list[PnrTrace]:
    """Enumerate all 2^m branches of the adaptive binary-readout cascade.

    Step j applies a Ramsey filter with theta_j = pi/2^(j-1) and a
    second-rotation phase conditioned on earlier bits so that bit j reads
    out binary digit j-1 of (n - target_n).  On Fock input |n> exactly one
    trace survives with resolved_n = (n - target_n) mod 2^m.
    """
    if not 1 <= m <= 6:
        raise ValueError(f"m must be in [1, 6], got {m}")
    dn = np.arange(state.spec.dim) - target_n
    # (bits, resolved_n so far, unnormalized amplitudes)
    frontier: list[tuple[tuple[int, ...], int, np.ndarray]] = [((), 0, state.amplitudes)]
    for j in range(1, m + 1):
        theta = math.pi / 2 ** (j - 1)
        nxt = []
        for bits, resolved, amps in frontier:
            # feedback phase cancels the Ramsey phase of the already-read bits
            cos, sin = _ramsey(dn, theta, theta * resolved)
            nxt.append((bits + (0,), resolved, amps * cos))
            nxt.append((bits + (1,), resolved + (1 << (j - 1)), amps * sin))
        frontier = nxt
    traces = []
    for bits, resolved, amps in frontier:
        post, p = _branch(amps, state.spec)
        traces.append(PnrTrace(bits=bits, resolved_n=resolved, probability=p, post_state=post))
    return traces
