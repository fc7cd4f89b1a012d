"""Qubit-cavity dispersive model: photon-number filters and derived signals.

The qubit lives on index 0 (ground) / 1 (excited) of a 2-dimensional factor,
composite states are ordered qubit (x) cavity.  Filters come in two flavours:
the ideal amplitude profile (fast path, per-component phases set to zero) and
the literal Ramsey-sandwich circuit used for cross-validation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FilterStarvationError
from .fockspace import HilbertSpec, LinearOp, PureState, coherent_state

TWO_PI = 2.0 * math.pi

STARVATION_THRESHOLD = 1e-12
BRANCH_EPS = 1e-15


@dataclass(frozen=True)
class DeviceParams:
    """Hamiltonian constants, decoherence rates and protocol durations.

    Rates are angular (rad/s for shifts, 1/s for kappas); defaults reproduce
    the device characterization table and the error-analysis durations.
    """

    chi_qc: float = TWO_PI * 0.626e6       # linear dispersive shift
    chi2_qc: float = TWO_PI * 0.328e3      # second-order dispersive shift
    kerr_c: float = TWO_PI * 0.44e3        # cavity self-Kerr
    kappa1: float = 1.0 / 1.2e-3           # cavity decay, 1/T1_cavity
    kappa2: float = 1.0 / 4.0e-3           # cavity dephasing, 1/Tphi_cavity
    kappa3: float = 1.0 / 93e-6            # qubit decay
    kappa4: float = 1.0 / 445e-6           # qubit dephasing
    T_i: float = 3e-6                      # init / measure-reset window
    T_M: float = 1600e-9                   # measurement window
    T_D: float = 200e-9                    # displacement duration
    readout_fidelity: float = 0.995

    def __post_init__(self):
        for name in ("chi_qc", "chi2_qc", "kerr_c", "kappa1", "kappa2",
                     "kappa3", "kappa4", "T_i", "T_M", "T_D"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.5 <= self.readout_fidelity <= 1.0:
            raise ValueError("readout_fidelity must be in [0.5, 1]")


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
        if self.kind is FilterKind.GAUSSIAN and self.sigma <= 0.0:
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


def _filter_profiles(state: PureState, fspec: FilterSpec) -> tuple[np.ndarray, np.ndarray]:
    """(keep, reject) amplitude multipliers over the number basis."""
    dn = np.arange(state.spec.dim) - fspec.target_n
    if fspec.kind is FilterKind.SINUSOIDAL:
        keep = np.cos(dn * fspec.theta / 2.0)
        reject = np.sin(dn * fspec.theta / 2.0)
    elif fspec.kind is FilterKind.GENERALIZED:
        keep = np.sin((dn * fspec.theta - fspec.phi) / 2.0)
        reject = np.cos((dn * fspec.theta - fspec.phi) / 2.0)
    else:
        raise ValueError(f"not a sinusoidal-family filter: {fspec.kind}")
    return keep, reject


def conditional_phase_op(theta: float, target_n: int, spec: HilbertSpec) -> LinearOp:
    """C_theta = |g><g| (x) I + |e><e| (x) exp(i theta (n - target_n)) on qubit (x) cavity."""
    dim = spec.dim
    phases = np.exp(1j * theta * (np.arange(dim) - target_n))
    mat = np.zeros((2 * dim, 2 * dim), dtype=complex)
    mat[:dim, :dim] = np.eye(dim)
    mat[dim:, dim:] = np.diag(phases)
    return LinearOp(mat, HilbertSpec(2 * dim, spec.guard))


def _qubit_rotation(angle: float, axis_phi: float, dim: int) -> np.ndarray:
    """Rotation by ``angle`` about the equatorial axis at ``axis_phi``, on qubit (x) cavity."""
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    # in {|g>, |e>} basis
    r = np.array([
        [c, -1j * s * np.exp(-1j * axis_phi)],
        [-1j * s * np.exp(1j * axis_phi), c],
    ])
    return np.kron(r, np.eye(dim))


def ramsey_sandwich_circuit(state: PureState, fspec: FilterSpec) -> FilterOutcome:
    """Literal X/2 -> C_theta -> second pi/2 circuit with qubit projection.

    The second rotation is -X/2 for the sinusoidal filter; for the
    generalized filter its axis is offset so the ground branch matches the
    sin((dn*theta - phi)/2) amplitude profile up to per-component phases.
    """
    dim = state.spec.dim
    psi = np.zeros(2 * dim, dtype=complex)
    psi[:dim] = state.amplitudes  # qubit in |g>
    psi = _qubit_rotation(math.pi / 2.0, 0.0, dim) @ psi
    psi = conditional_phase_op(fspec.theta, fspec.target_n, state.spec).matrix @ psi
    if fspec.kind is FilterKind.SINUSOIDAL:
        axis = 0.0
    else:
        # axis offset mapping the ground branch onto the sin profile
        axis = fspec.phi + math.pi
    psi = _qubit_rotation(-math.pi / 2.0, axis, dim) @ psi
    g_amp, e_amp = psi[:dim], psi[dim:]
    branch_g, p_g = _branch(g_amp, state.spec)
    branch_e, p_e = _branch(e_amp, state.spec)
    return FilterOutcome(branch_g, branch_e, p_g, p_e)


def sinusoidal_pnf(state: PureState, fspec: FilterSpec) -> FilterOutcome:
    """Sinusoidal (or generalized) photon-number filter on a cavity state.

    Ground-branch amplitudes scale as cos(dn*theta/2), or
    sin((dn*theta - phi)/2) for the generalized form.
    """
    if fspec.kind not in (FilterKind.SINUSOIDAL, FilterKind.GENERALIZED):
        raise ValueError(f"sinusoidal_pnf got kind {fspec.kind}")
    keep, reject = _filter_profiles(state, fspec)
    branch_g, p_g = _branch(state.amplitudes * keep, state.spec)
    branch_e, p_e = _branch(state.amplitudes * reject, state.spec)
    return FilterOutcome(branch_g, branch_e, p_g, p_e)


def gaussian_pnf(state: PureState, fspec: FilterSpec) -> FilterOutcome:
    """Gaussian photon-number filter: amplitudes scaled by exp(-dn^2/4 sigma^2).

    Raises FilterStarvationError when the kept probability drops below 1e-12.
    """
    if fspec.kind is not FilterKind.GAUSSIAN:
        raise ValueError(f"gaussian_pnf got kind {fspec.kind}")
    dn = np.arange(state.spec.dim) - fspec.target_n
    keep = np.exp(-dn.astype(float) ** 2 / (4.0 * fspec.sigma**2))
    g_amp = state.amplitudes * keep
    p_g = float(np.sum(np.abs(g_amp) ** 2))
    if p_g < STARVATION_THRESHOLD:
        raise FilterStarvationError(
            f"Gaussian filter sigma={fspec.sigma} kept probability {p_g:.2e}"
        )
    reject = np.sqrt(np.clip(1.0 - keep**2, 0.0, 1.0))
    branch_g, p_g = _branch(g_amp, state.spec)
    branch_e, p_e = _branch(state.amplitudes * reject, state.spec)
    return FilterOutcome(branch_g, branch_e, p_g, p_e)


def apply_filter(state: PureState, fspec: FilterSpec) -> FilterOutcome:
    if fspec.kind is FilterKind.GAUSSIAN:
        return gaussian_pnf(state, fspec)
    return sinusoidal_pnf(state, fspec)


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
    theta_grid = np.asarray(theta_grid, dtype=float)
    return np.cos((cavity_n - target_n) * theta_grid / 2.0) ** 2


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
    if shots is not None:
        rng = np.random.default_rng(seed)
        signal = rng.binomial(shots, np.clip(signal, 0.0, 1.0)) / shots
    return signal


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
    traces: list[PnrTrace] = []
    # (bits, unnormalized amplitudes, probability)
    frontier: list[tuple[tuple[int, ...], np.ndarray]] = [((), state.amplitudes.copy())]
    for j in range(1, m + 1):
        theta = math.pi / 2 ** (j - 1)
        nxt = []
        for bits, amps in frontier:
            # feedback phase cancels the Ramsey phase of the already-read bits
            resolved = sum(b << (l - 1) for l, b in enumerate(bits, start=1))
            phi = theta * resolved
            arg = (dn * theta - phi) / 2.0
            nxt.append((bits + (0,), amps * np.cos(arg)))
            nxt.append((bits + (1,), amps * np.sin(arg)))
        frontier = nxt
    for bits, amps in frontier:
        p = float(np.sum(np.abs(amps) ** 2))
        post = PureState(amps / math.sqrt(p), state.spec) if p > BRANCH_EPS else None
        resolved = sum(b << (j - 1) for j, b in enumerate(bits, start=1))
        traces.append(PnrTrace(bits=bits, resolved_n=resolved, probability=p, post_state=post))
    return traces
