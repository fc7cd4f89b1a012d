"""Truncated Fock-basis linear algebra.

States and dense operators on a single bosonic mode truncated to ``dim``
levels: ladder operators, coherent states, displacement, parity, and
point-wise Wigner values.  Everything is immutable after construction and
all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InteriorAccuracyError, TruncationError

NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-8


@dataclass(frozen=True)
class HilbertSpec:
    """Truncation contract: ``dim`` levels with ``guard`` levels of headroom.

    Operations claiming interior accuracy assume the occupied population
    above index ``dim - guard`` is below 1e-10.
    """

    dim: int
    guard: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.guard < 0 or self.guard >= self.dim:
            raise ValueError(f"guard must be in [0, dim), got {self.guard}")

    @property
    def interior(self) -> int:
        return self.dim - self.guard


def default_spec(n_max: int) -> HilbertSpec:
    """Truncation rule covering 6-sigma Poisson tails plus displacement leakage.

    ``dim = n_max + ceil(6 sqrt(n_max)) + 20``; the headroom above ``n_max``
    is declared as the guard band.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    head = math.ceil(6.0 * math.sqrt(max(n_max, 1))) + 20
    return HilbertSpec(dim=n_max + head, guard=head // 2)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over the truncated number basis."""

    amplitudes: np.ndarray
    spec: HilbertSpec

    def __post_init__(self):
        amp = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.spec.dim,):
            raise ValueError(f"amplitude vector must have length {self.spec.dim}")
        object.__setattr__(self, "amplitudes", _frozen(amp))

    @classmethod
    def normalized(cls, amplitudes: np.ndarray, spec: HilbertSpec) -> "PureState":
        amp = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amp)
        if norm == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return cls(amp / norm, spec)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def mean_photon_number(self) -> float:
        n = np.arange(self.spec.dim)
        return float(np.real(np.sum(n * self.populations())))

    def photon_number_std(self) -> float:
        n = np.arange(self.spec.dim)
        p = self.populations()
        mean = np.sum(n * p)
        return float(np.sqrt(np.sum((n - mean) ** 2 * p)))

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_mixed(self) -> "MixedState":
        return MixedState(np.outer(self.amplitudes, self.amplitudes.conj()), self.spec)


@dataclass(frozen=True)
class MixedState:
    """Density matrix on the truncated space."""

    matrix: np.ndarray
    spec: HilbertSpec

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        if mat.shape != (self.spec.dim, self.spec.dim):
            raise ValueError(f"density matrix must be {self.spec.dim}x{self.spec.dim}")
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def check_physical(self) -> None:
        """Raise if the state violates hermiticity, trace or positivity bounds."""
        herm = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: deviation {herm:.2e}")
        if abs(self.trace - 1.0) > TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {self.trace - 1.0:.2e}")
        evals = np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2)
        if evals.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue {evals.min():.2e}")


@dataclass(frozen=True)
class LinearOp:
    """Dense complex operator on the truncated space."""

    matrix: np.ndarray
    spec: HilbertSpec

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        if mat.shape != (self.spec.dim, self.spec.dim):
            raise ValueError(f"operator must be {self.spec.dim}x{self.spec.dim}")
        object.__setattr__(self, "matrix", _frozen(mat))

    def dagger(self) -> "LinearOp":
        return LinearOp(self.matrix.conj().T, self.spec)

    def __matmul__(self, other: "LinearOp") -> "LinearOp":
        return LinearOp(self.matrix @ other.matrix, self.spec)

    def apply(self, state: PureState) -> np.ndarray:
        return self.matrix @ state.amplitudes

    def interior_unitarity_defect(self) -> float:
        """max |(U†U - I)[i,j]| over the interior block."""
        k = self.spec.interior
        block = (self.matrix.conj().T @ self.matrix)[:k, :k]
        return float(np.max(np.abs(block - np.eye(k))))


def ladder_ops(spec: HilbertSpec) -> tuple[LinearOp, LinearOp]:
    """(lowering, raising) operators; ``raise @ lower`` is the number operator."""
    lower = np.zeros((spec.dim, spec.dim), dtype=complex)
    n = np.arange(1, spec.dim)
    lower[n - 1, n] = np.sqrt(n)
    return LinearOp(lower, spec), LinearOp(lower.conj().T, spec)


def number_op(spec: HilbertSpec) -> LinearOp:
    return LinearOp(np.diag(np.arange(spec.dim)).astype(complex), spec)


def parity_op(spec: HilbertSpec) -> LinearOp:
    signs = (-1.0) ** np.arange(spec.dim)
    return LinearOp(np.diag(signs).astype(complex), spec)


def fock_state(n: int, spec: HilbertSpec) -> PureState:
    if not 0 <= n < spec.dim:
        raise ValueError(f"Fock index {n} outside [0, {spec.dim})")
    amp = np.zeros(spec.dim, dtype=complex)
    amp[n] = 1.0
    return PureState(amp, spec)


def _coherent_series(alpha: complex, dim: int) -> np.ndarray:
    """e^{-|alpha|^2/2} alpha^m / sqrt(m!) for m < dim, i.e. <m|D(alpha)|0>."""
    amp = np.empty(dim, dtype=complex)
    amp[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for m in range(1, dim):
        amp[m] = amp[m - 1] * alpha / math.sqrt(m)
    return amp


def coherent_state(alpha: complex, spec: HilbertSpec) -> PureState:
    """Coherent state with mean photon number |alpha|^2, built by recurrence.

    Raises TruncationError if the Poisson tail beyond ``dim`` exceeds 1e-10.
    """
    alpha = complex(alpha)
    nbar = abs(alpha) ** 2
    if nbar > spec.interior:
        raise InteriorAccuracyError(
            f"|alpha|^2 = {nbar:.3g} exceeds interior size {spec.interior}"
        )
    amp = _coherent_series(alpha, spec.dim)
    tail = 1.0 - float(np.sum(np.abs(amp) ** 2))
    if tail > 1e-10:
        raise TruncationError(f"coherent-state tail mass {tail:.2e} beyond dim {spec.dim}")
    return PureState.normalized(amp, spec)


def displacement(beta: complex, spec: HilbertSpec, check_interior: bool = False) -> LinearOp:
    """Displacement operator from the Cahill-Glauber closed form.

    Below the diagonal, <n+k|D(beta)|n> = sqrt(n!/(n+k)!) beta^k e^{-|beta|^2/2}
    L_n^(k)(|beta|^2).  One three-term Laguerre recurrence in n, on the
    normalised g_n = sqrt(n!/(n+k)!) L_n^(k), runs on every diagonal k at
    once from the displaced vacuum <k|D|0>; the upper triangle follows from
    D(beta)^dag = D(-beta).  Its rounding error grows polynomially in n at
    small |beta| (interior defect ~5e-12 at dim 540).  Unitary on the
    interior block when the guard band absorbs the displacement leakage;
    with ``check_interior=True`` the interior unitarity defect is measured
    and an InteriorAccuracyError is raised above 1e-8.
    """
    beta = complex(beta)
    dim = spec.dim
    x = abs(beta) ** 2
    if x > 0.25 * dim:
        raise InteriorAccuracyError(f"|beta|^2 = {x:.3g} too large for dim {dim}")
    k = np.arange(dim)
    sign = (-1.0) ** k
    mat = np.empty((dim, dim), dtype=complex)
    # g and prev hold <n+k|D|n> and <n-1+k|D|n-1> for k < dim - n.
    g, prev = _coherent_series(beta, dim), np.zeros(dim, dtype=complex)
    for n in range(dim):
        mat[n:, n] = g
        mat[n, n:] = sign[: dim - n] * g.conj()  # <n|D|n+k> = (-1)^k conj(<n+k|D|n>)
        kk = k[: dim - n - 1]
        g, prev = (
            (2 * n + 1 + kk - x) * g[:-1] - np.sqrt(n * (n + kk)) * prev[:-1]
        ) / np.sqrt((n + 1) * (n + 1 + kk)), g[:-1]
    op = LinearOp(mat, spec)
    if check_interior and spec.guard > 0:
        defect = op.interior_unitarity_defect()
        if defect > 1e-8:
            raise InteriorAccuracyError(
                f"guard {spec.guard} too small for beta {beta}: "
                f"interior unitarity defect {defect:.2e}"
            )
    return op


def displaced_state(beta: complex, state: PureState) -> PureState:
    return PureState(displacement(beta, state.spec).apply(state), state.spec)


def parity_expectation(state: MixedState) -> float:
    """Tr[rho Pi] with Pi = diag((-1)^n)."""
    signs = (-1.0) ** np.arange(state.spec.dim)
    return float(np.real(np.sum(signs * np.diag(state.matrix))))


def wigner_value(state: MixedState, alpha: complex) -> float:
    """W(alpha) = (2/pi) Tr[D(-alpha) rho D(alpha) Pi]."""
    d = displacement(alpha, state.spec)
    shifted = d.matrix.conj().T @ state.matrix @ d.matrix
    signs = (-1.0) ** np.arange(state.spec.dim)
    return float((2.0 / math.pi) * np.real(np.sum(signs * np.diag(shifted))))
