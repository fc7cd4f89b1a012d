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


def _frozen(arr, shape: tuple[int, ...], message: str) -> np.ndarray:
    """A read-only complex C-contiguous copy of ``arr``; ValueError(message) unless it has ``shape``.

    Every ``PureState``, ``MixedState`` and ``LinearOp`` keeps such a copy,
    whether its array came from a caller or from fockmet itself, so the
    caller stays free to write its array, and writing it (or the base of a
    view of it) never reaches the object.
    """
    out = np.array(arr, dtype=complex, order="C")
    if out.shape != shape:
        raise ValueError(message)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over the truncated number basis."""

    amplitudes: np.ndarray
    spec: HilbertSpec

    def __post_init__(self):
        dim = self.spec.dim
        amp = _frozen(self.amplitudes, (dim,), f"amplitude vector must have length {dim}")
        object.__setattr__(self, "amplitudes", amp)

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
        dim = self.spec.dim
        mat = _frozen(self.matrix, (dim, dim), f"density matrix must be {dim}x{dim}")
        object.__setattr__(self, "matrix", mat)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def check_physical(self) -> None:
        """Raise ValueError if the state is not finite, or violates hermiticity, trace or positivity bounds.

        Positivity is one Cholesky factorisation of rho - EIGENVALUE_FLOOR * I.
        Only when that fails does ``eigvalsh`` run, and its smallest eigenvalue
        alone decides and is named, so every rejection is eigvalsh's verdict.
        A state is accepted differently from an eigvalsh-only check only when
        its smallest eigenvalue lies within rounding (about n u ||rho||, 1e-14
        here) of the floor.  Both read one triangle; hermiticity is checked to
        1e-10 just above.
        """
        if not np.isfinite(self.matrix).all():
            raise ValueError("density matrix has non-finite entries")
        herm = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: deviation {herm:.2e}")
        if abs(self.trace - 1.0) > TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {self.trace - 1.0:.2e}")
        try:
            np.linalg.cholesky(self.matrix - EIGENVALUE_FLOOR * np.eye(self.spec.dim))
        except np.linalg.LinAlgError:
            low = np.linalg.eigvalsh(self.matrix).min()
            if low < EIGENVALUE_FLOOR:
                raise ValueError(f"negative eigenvalue {low:.2e}") from None


@dataclass(frozen=True, eq=False)
class LinearOp:
    """Dense complex operator on the truncated space.

    The matrix is a read-only copy that the operator owns, so an operator
    never changes.  It hashes and compares by identity: an operator equals
    only itself, and one rebuilt with equal contents is another key in the
    caches of ``fockmet.noise``.
    """

    matrix: np.ndarray
    spec: HilbertSpec

    def __post_init__(self):
        dim = self.spec.dim
        mat = _frozen(self.matrix, (dim, dim), f"operator must be {dim}x{dim}")
        object.__setattr__(self, "matrix", mat)

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
    return LinearOp(np.diag(np.arange(spec.dim)), spec)


def parity_op(spec: HilbertSpec) -> LinearOp:
    signs = (-1.0) ** np.arange(spec.dim)
    return LinearOp(np.diag(signs), spec)


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


def _displacement_diagonals(beta: complex, dim: int):
    """Yield g_n = <n+k|D(beta)|n> for k < dim - n, for n = 0, 1, ..., dim - 1.

    The three-term Laguerre recurrence in n on the normalised
    g_n = sqrt(n!/(n+k)!) L_n^(k) of ``displacement``, run on every diagonal
    k at once from the displaced vacuum <k|D|0>.  Step n costs O(dim - n).
    Raises InteriorAccuracyError for |beta|^2 > dim / 4 on the first step.
    """
    x = abs(beta) ** 2
    if x > 0.25 * dim:
        raise InteriorAccuracyError(f"|beta|^2 = {x:.3g} too large for dim {dim}")
    k = np.arange(dim)
    # g and prev hold <n+k|D|n> and <n-1+k|D|n-1> for k < dim - n.
    g, prev = _coherent_series(beta, dim), np.zeros(dim, dtype=complex)
    for n in range(dim):
        yield g
        kk = k[: dim - n - 1]
        g, prev = (
            (2 * n + 1 + kk - x) * g[:-1] - np.sqrt(n * (n + kk)) * prev[:-1]
        ) / np.sqrt((n + 1) * (n + 1 + kk)), g[:-1]


def displacement(beta: complex, spec: HilbertSpec, check_interior: bool = False) -> LinearOp:
    """Displacement operator from the Cahill-Glauber closed form.

    Below the diagonal, <n+k|D(beta)|n> = sqrt(n!/(n+k)!) beta^k e^{-|beta|^2/2}
    L_n^(k)(|beta|^2), from all ``dim`` steps of ``_displacement_diagonals``;
    the upper triangle follows from D(beta)^dag = D(-beta).  Its rounding
    error grows polynomially in n at small |beta| (interior defect ~5e-12
    at dim 540).  Raises InteriorAccuracyError for |beta|^2 > dim / 4.
    Unitary on the interior block when the guard band absorbs the
    displacement leakage; with ``check_interior=True`` the interior
    unitarity defect is measured and an InteriorAccuracyError is raised
    above 1e-8.  One state D(beta)|n> needs only column n, which
    ``_displaced_fock`` takes from the first n + 1 steps.
    """
    beta = complex(beta)
    dim = spec.dim
    sign = (-1.0) ** np.arange(dim)
    mat = np.empty((dim, dim), dtype=complex)
    for n, g in enumerate(_displacement_diagonals(beta, dim)):
        mat[n:, n] = g
        mat[n, n:] = sign[: dim - n] * g.conj()  # <n|D|n+k> = (-1)^k conj(<n+k|D|n>)
    op = LinearOp(mat, spec)
    if check_interior and spec.guard > 0:
        defect = op.interior_unitarity_defect()
        if defect > 1e-8:
            raise InteriorAccuracyError(
                f"guard {spec.guard} too small for beta {beta}: "
                f"interior unitarity defect {defect:.2e}"
            )
    return op


def _displaced_fock(beta: complex, n: int, spec: HilbertSpec) -> np.ndarray:
    """D(beta)|n>, column n of ``displacement(beta, spec)``, from n + 1 steps of its recurrence.

    Rows m > n are step n itself; row m <= n is <m|D|n> = (-1)^(n-m)
    conj(<n|D|m>), read from step m, as ``displacement`` writes its upper
    triangle and diagonal.  Equal in value to
    ``displacement(beta, spec).apply(fock_state(n, spec))`` (bytes may
    differ in the sign of a zero), with the same errors in the same order:
    InteriorAccuracyError for |beta|^2 > dim / 4, then ValueError for n
    outside [0, dim).
    """
    dim = spec.dim
    diagonals = _displacement_diagonals(complex(beta), dim)
    g = next(diagonals)
    if not 0 <= n < dim:
        raise ValueError(f"Fock index {n} outside [0, {dim})")
    col = np.empty(dim, dtype=complex)
    for m in range(n):
        col[m] = (-1.0) ** (n - m) * g[n - m].conjugate()
        g = next(diagonals)
    col[n:] = g
    col[n] = g[0].conjugate()
    return col


def displaced_state(beta: complex, state: PureState) -> PureState:
    return PureState(displacement(beta, state.spec).apply(state), state.spec)


def parity_expectation(state: MixedState) -> float:
    """Tr[rho Pi] with Pi = diag((-1)^n)."""
    signs = (-1.0) ** np.arange(state.spec.dim)
    return float(np.real(np.sum(signs * np.diag(state.matrix))))


def wigner_value(state: MixedState, alpha: complex) -> float:
    """W(alpha) = (2/pi) Tr[D(-alpha) rho D(alpha) Pi]."""
    d = displacement(alpha, state.spec).matrix
    # diag(D^dag rho D) column by column, from the one product rho D.
    diagonal = np.sum(d.conj() * (state.matrix @ d), axis=0)
    signs = (-1.0) ** np.arange(state.spec.dim)
    return float((2.0 / math.pi) * np.real(np.sum(signs * diagonal)))
