"""Open-system dynamics and closed-form error models.

Exact Lindblad propagation with the sparse Liouvillian, the first-order
perturbative correction by Van Loan's block exponential, the analytic noisy
parity probability, and the lambda1/lambda2 toy model predicting precision
versus photon number.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .composite import DeviceParams
from .errors import ModelBreakdownError
from .fockspace import HilbertSpec, LinearOp, MixedState
from .metrology import parity_curve_ideal, parity_shape, sql_baselines


@dataclass(frozen=True)
class LindbladSpec:
    """Hamiltonian, jump operators with rates, and evolution window.

    ``dt`` is validated but no longer sets the accuracy: the propagation is
    exact to double precision whatever its value.
    """

    hamiltonian: LinearOp
    jumps: list[tuple[LinearOp, float]]
    duration: float
    dt: float

    def __post_init__(self):
        if any(rate < 0 for _, rate in self.jumps):
            raise ValueError("jump rates must be non-negative")
        if self.dt <= 0 or self.dt > self.duration:
            raise ValueError("need 0 < dt <= duration")


def _lindblad_coo(hamiltonian: np.ndarray, jumps: list[tuple[LinearOp, float]]):
    """COO triplets (rows, cols, values) of the Lindblad generator on row-major vec(rho).

    With row-major vectorisation vec(A X B) = (A kron B^T) vec(X).  Writing
    G = sum kappa L^dag L / 2, the master equation is
    K rho + rho K' + sum kappa L rho L^dag with K = -iH - G and K' = iH - G,
    so the generator is K kron I + I kron K'^T + sum kappa L kron L*.  Each
    A kron B is index arithmetic on the nonzeros of the dense A and B, and
    duplicate positions are left for the CSR conversion to sum.
    """
    dim = hamiltonian.shape[0]
    eye = np.eye(dim)
    g = np.zeros((dim, dim), dtype=complex)
    for op, rate in jumps:
        g += 0.5 * rate * (op.matrix.conj().T @ op.matrix)
    pairs = [(-1j * hamiltonian - g, eye), (eye, (1j * hamiltonian - g).T)]
    pairs += [(rate * op.matrix, op.matrix.conj()) for op, rate in jumps]
    rows, cols, vals = [], [], []
    for a, b in pairs:
        a_rows, a_cols = np.nonzero(a)
        b_rows, b_cols = np.nonzero(b)
        rows.append((a_rows[:, None] * dim + b_rows).ravel())
        cols.append((a_cols[:, None] * dim + b_cols).ravel())
        vals.append(np.outer(a[a_rows, a_cols], b[b_rows, b_cols]).ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, size: int):
    """One COO-to-CSR conversion: duplicates summed, exact zeros dropped."""
    import scipy.sparse as sp

    out = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
    out.eliminate_zeros()
    return out


def _liouvillian(hamiltonian: np.ndarray, jumps: list[tuple[LinearOp, float]]):
    """Sparse Lindblad generator acting on the row-major vec(rho).

    Assembled in one pass: the COO triplets of every term from
    ``_lindblad_coo`` go through a single conversion to canonical CSR.
    """
    return _csr(*_lindblad_coo(hamiltonian, jumps), hamiltonian.shape[0] ** 2)


def lindblad_evolve(rho: MixedState, spec: LindbladSpec) -> MixedState:
    """Evolve rho under the Lindblad master equation over ``spec.duration``.

    Applies exp(L T) to vec(rho) with the sparse Liouvillian and
    ``expm_multiply`` (Al-Mohy & Higham 2011), symmetrizes the result once
    and raises ValueError if it is not a physical state (trace, hermiticity,
    positivity).
    """
    from scipy.sparse.linalg import expm_multiply

    dim = rho.spec.dim
    liou = _liouvillian(spec.hamiltonian.matrix, spec.jumps)
    state = expm_multiply(liou * spec.duration, rho.matrix.reshape(-1)).reshape(dim, dim)
    out = MixedState(0.5 * (state + state.conj().T), rho.spec)
    out.check_physical()
    return out


def unitary_evolution(rho0: MixedState, hamiltonian: LinearOp):
    """Return t -> exp(-iHt) rho0 exp(iHt) using one eigendecomposition of H."""
    evals, vecs = np.linalg.eigh(hamiltonian.matrix)
    rho_eig = vecs.conj().T @ rho0.matrix @ vecs

    def rho_of_t(t: float) -> np.ndarray:
        phases = np.exp(-1j * evals * t)
        rotated = (phases[:, None] * rho_eig) * phases.conj()[None, :]
        return vecs @ rotated @ vecs.conj().T

    return rho_of_t


def perturbation_first_order(
    rho0_of_t,
    hamiltonian: LinearOp,
    jumps: list[tuple[LinearOp, float]],
    T: float,
    num_points: int = 2001,
) -> np.ndarray:
    """First-order correction rho1(T) by Van Loan's block exponential.

    rho1(T) = int_0^T dtau exp(L0 (T-tau)) L1 rho0(tau), with L0 the
    Liouvillian of H alone and L1 that of the jumps alone, is the top half
    of exp([[L0, L1], [0, L0]] T) [0; vec rho0(0)] (Van Loan 1978).
    ``rho0_of_t`` must be the unitary evolution under ``hamiltonian``; a
    mismatch at T above 1e-9 raises ValueError.  ``num_points`` is validated
    but no longer sets the accuracy.  Warns when any kappa_m * T exceeds
    0.3.  Returns the traceless correction matrix.
    """
    from scipy.sparse.linalg import expm_multiply

    for _, rate in jumps:
        if rate * T > 0.3:
            warnings.warn(
                f"kappa*T = {rate * T:.3g} > 0.3; first-order expansion unreliable",
                stacklevel=2,
            )
    if num_points < 5:
        raise ValueError("num_points must be at least 5")

    h = hamiltonian.matrix
    dim = h.shape[0]
    n = dim * dim
    # Place L0 at both diagonal blocks and L1 at the top right by index offset.
    r0, c0, v0 = _lindblad_coo(h, [])
    r1, c1, v1 = _lindblad_coo(np.zeros_like(h), jumps)
    block = _csr(
        np.concatenate([r0, r0 + n, r1]),
        np.concatenate([c0, c0 + n, c1 + n]),
        np.concatenate([v0, v0, v1]),
        2 * n,
    )
    start = np.concatenate([np.zeros(n, dtype=complex), rho0_of_t(0.0).reshape(-1)])
    out = expm_multiply(block * T, start)
    # The bottom half is exp(-iHT) rho0(0) exp(iHT), the unitary evolution
    # the identity assumes rho0_of_t to be.
    mismatch = float(np.max(np.abs(out[n:].reshape(dim, dim) - rho0_of_t(T))))
    if mismatch > 1e-9:
        raise ValueError(
            "rho0_of_t is not the unitary evolution under hamiltonian: "
            f"deviation {mismatch:.2e} at T"
        )
    return out[:n].reshape(dim, dim)


def parity_prob_noisy(N: int, beta: float, params: DeviceParams) -> float:
    """Measured ground probability of the parity protocol with first-order noise.

    P_g = P_g0 + P_g1 where P_g0 is the ideal displaced-parity curve and
    P_g1 the closed-form first-order correction in kappa1, kappa3, kappa4
    over the measurement window.  L_{-1} is taken as 0 for N = 0.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    t = params.T_M
    k1, k3, k4 = params.kappa1, params.kappa3, params.kappa4
    sign = (-1.0) ** N
    s_n = parity_shape(N, beta)[0]
    s_np1 = parity_shape(N + 1, beta)[0]
    s_nm1 = parity_shape(N - 1, beta)[0] if N >= 1 else 0.0
    p_g1 = sign * (
        (-k1 * t * (beta * beta / 2.0 - 0.25) - 0.25 * (k3 + k4) * t) * s_n
        - k1 * t * (N + 1) / 4.0 * s_np1
        - k1 * t * N / 4.0 * s_nm1
    )
    return parity_curve_ideal(N, beta) + p_g1


def displacement_dephasing_bias(N: int, beta: float, params: DeviceParams) -> float:
    """Probability shift from cavity dephasing during the displacement pulse:
    (1/3) kappa2 T_D beta^2 N^3.  Valid for N kappa2 T_D << 1 and N beta^2 << 1."""
    if N * params.kappa2 * params.T_D > 0.1 or N * beta * beta > 0.1:
        warnings.warn("displacement-dephasing bias outside its validity domain", stacklevel=2)
    return params.kappa2 * params.T_D * beta * beta * N**3 / 3.0


@dataclass(frozen=True)
class ToyModelResult:
    lambda1: float
    lambda2: float
    fisher: float
    precision: float
    gain_db: float


def toy_model(N: int, params: DeviceParams) -> ToyModelResult:
    """Perturbative precision prediction for the displacement protocol.

    lambda1 collects offset errors, lambda2 slope errors; the Fisher
    information is (1 - lambda2)^2 * 8N and the gain compares the
    resulting precision to the coherent-state baseline of 1/2.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    k1, k2, k3, k4 = params.kappa1, params.kappa2, params.kappa3, params.kappa4
    t_i, t_m, t_d = params.T_i, params.T_M, params.T_D
    lambda1 = N * k1 * t_i + 0.5 * N * k1 * t_m + 0.25 * (k3 + k4) * t_m
    lambda2 = (
        2.0 * N * k1 * t_i
        + N * k1 * t_m
        + 0.5 * (k3 + k4) * t_m
        + k2 * t_d * N * N / 6.0
    )
    if lambda2 >= 1.0:
        raise ModelBreakdownError(f"lambda2 = {lambda2:.3g} >= 1 at N = {N}")
    fisher = (1.0 - lambda2) ** 2 * 8.0 * N
    precision = 1.0 / math.sqrt(fisher)
    sql_beta, _ = sql_baselines(max(N, 1))
    gain_db = 20.0 * math.log10(sql_beta / precision)
    return ToyModelResult(lambda1, lambda2, fisher, precision, gain_db)


def init_fidelity_model(N: int, params: DeviceParams) -> float:
    """Decay-limited fidelity of the initialized Fock state: 1 - N kappa1 T_i."""
    loss = N * params.kappa1 * params.T_i
    if loss >= 1.0:
        raise ModelBreakdownError(f"N kappa1 T_i = {loss:.3g} >= 1")
    return 1.0 - loss


def qubit_cavity_parity_setup(
    N: int, beta: float, params: DeviceParams, spec: HilbertSpec
) -> tuple[MixedState, LinearOp, list[tuple[LinearOp, float]]]:
    """Initial state, Hamiltonian and jump set of the parity-measurement stage.

    Cavity in the displaced Fock state D(beta)|N>, qubit in |+>, evolving
    under chi_sim * n |e><e| with cavity decay/dephasing and qubit
    decay/dephasing jumps.  chi_sim = pi / T_M so the conditional phase
    reaches exactly pi over the measurement window, matching the
    closed-form noisy parity probability.
    """
    from .fockspace import displacement, fock_state, ladder_ops

    dim = spec.dim
    cav = displacement(beta, spec).apply(fock_state(N, spec))
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    psi = np.kron(plus, cav)
    cspec = HilbertSpec(2 * dim, spec.guard)
    rho = MixedState(np.outer(psi, psi.conj()), cspec)

    chi_sim = math.pi / params.T_M
    n_diag = np.arange(dim)
    h = np.zeros((2 * dim, 2 * dim), dtype=complex)
    h[dim:, dim:] = np.diag(chi_sim * n_diag)
    hamiltonian = LinearOp(h, cspec)

    lower, _ = ladder_ops(spec)
    eye2 = np.eye(2)
    a_full = np.kron(eye2, lower.matrix)
    n_full = np.kron(eye2, np.diag(n_diag).astype(complex))
    sig_minus = np.zeros((2, 2)); sig_minus[0, 1] = 1.0
    proj_e = np.zeros((2, 2)); proj_e[1, 1] = 1.0
    eye_c = np.eye(dim)
    jumps = [
        (LinearOp(a_full, cspec), params.kappa1),
        (LinearOp(n_full, cspec), params.kappa2),
        (LinearOp(np.kron(sig_minus, eye_c).astype(complex), cspec), params.kappa3),
        (LinearOp(np.kron(proj_e, eye_c).astype(complex), cspec), params.kappa4),
    ]
    return rho, hamiltonian, jumps


def parity_readout_probability(rho: MixedState) -> float:
    """Ground probability after the closing -X/2 pulse: <+| rho_qubit |+>."""
    dim = rho.spec.dim // 2
    m = rho.matrix
    rho_gg = np.trace(m[:dim, :dim])
    rho_ee = np.trace(m[dim:, dim:])
    rho_ge = np.trace(m[:dim, dim:])
    return float(np.real(0.5 * (rho_gg + rho_ee + rho_ge + np.conj(rho_ge))))
