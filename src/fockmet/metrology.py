"""Closed-form sensing curves, Fisher information and precision reports.

Binary-outcome classical Fisher information, pure-state quantum Fisher
information, standard-quantum-limit baselines, metrological gain, and the
weighted Fisher information of the photon-number-resolved scheme.

Every closed-form curve in the package (parity and phase fringes, the fit
models, the noisy parity, the Fock-state Wigner map) is built on the one
kernel ``parity_shape``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fockspace import HilbertSpec, LinearOp, PureState, ladder_ops, number_op

CLAMP_EPS = 1e-12

# A curve of one real parameter, elementwise on a float or an array.
Curve = Callable[[float | np.ndarray], float | np.ndarray]


# The Laguerre recurrence divides its running values by 2^_SCALE_BITS
# wherever they pass it: at N = 400, beta = 19 the L_k(4 beta^2) for k < N
# pass 1e308 while exp(-2 beta^2) underflows, and inf * 0 is nan.
_SCALE_BITS = 500
_SCALE = 2.0**_SCALE_BITS


def parity_shape(N: int, beta: float | np.ndarray):
    """(exp(-2 beta^2) L_N(4 beta^2), its d/dbeta), elementwise on a float or array.

    The displaced-parity fringe of |N>.  One loop runs the three-term
    recurrences of L_k and of the associated L_k^(1), since
    d/dx L_N(x) = -L_{N-1}^(1)(x).  Wherever a running value passes 2^500,
    both pairs are divided by 2^500, which is exact, and the divisions go
    into the envelope as exp(-2 beta^2 + s ln 2); a value that never passes
    it is computed as if there were no scaling.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    array = isinstance(beta, np.ndarray)
    x = 4.0 * beta * beta
    # Szego: |L_k(x)| <= e^{x/2} and |L_k^(1)(x)| <= (k + 1) e^{x/2} for x >= 0,
    # so below this x no running value can pass _SCALE.
    may_pass = 0.5 * (x.max(initial=0.0) if array else x) + math.log(N + 1) > _SCALE_BITS * math.log(2.0)
    scaled = 0  # divisions by _SCALE so far, per element for an array
    prev, cur = 0.0, 1.0  # L_{k-2}, L_{k-1}
    prev1, cur1 = 0.0, 1.0  # L^(1)_{k-2}, L^(1)_{k-1}
    for k in range(1, N + 1):
        prev, cur = cur, ((2 * k - 1 - x) * cur - (k - 1) * prev) / k
        prev1, cur1 = cur1, ((2 * k - x) * cur1 - k * prev1) / k
        if may_pass and np.any(big := np.maximum(abs(cur), abs(cur1)) > _SCALE):
            step = np.where(big, 1.0 / _SCALE, 1.0) if array else (1.0 / _SCALE if big else 1.0)
            prev, cur, prev1, cur1 = prev * step, cur * step, prev1 * step, cur1 * step
            scaled = scaled + big
    env = (np.exp if array else math.exp)(-2.0 * beta * beta + scaled * (_SCALE_BITS * math.log(2.0)))
    # The loop leaves L_N in cur and L^(1)_{N-1} in prev1.
    return cur * env, env * (-prev1 * 8.0 * beta - 4.0 * beta * cur)


def displacement_generator(spec: HilbertSpec) -> LinearOp:
    """Hermitian generator i(a^dag - a) of real displacements."""
    lower, upper = ladder_ops(spec)
    return LinearOp(1j * (upper.matrix - lower.matrix), spec)


def phase_generator(spec: HilbertSpec) -> LinearOp:
    """Hermitian generator a^dag a of phase rotations."""
    return number_op(spec)


def parity_curve_ideal(N: int, beta: float | np.ndarray):
    """Ideal parity-readout probability 1/2 + 1/2 (-1)^N exp(-2 beta^2) L_N(4 beta^2)."""
    return 0.5 + 0.5 * (-1.0) ** N * parity_shape(N, beta)[0]


def parity_curve_deriv(N: int, beta: float | np.ndarray):
    """Analytic d/dbeta of the ideal parity curve."""
    return 0.5 * (-1.0) ** N * parity_shape(N, beta)[1]


def phase_curve_ideal(N: int, gamma: float, phi: float | np.ndarray):
    """Ideal phase-sensing curve: the parity curve at effective amplitude gamma*phi.

    Valid in the small-rotation regime where the phase acts as a
    displacement of the probe.
    """
    return parity_curve_ideal(N, gamma * phi)


def phase_curve_deriv(N: int, gamma: float, phi: float | np.ndarray):
    """Analytic d/dphi of the ideal phase curve."""
    return gamma * parity_curve_deriv(N, gamma * phi)


def binary_fisher(p, slope):
    """Binary-outcome Fisher information slope^2 / (p (1-p)), elementwise; a float for a float.

    Returns 0 at degenerate points where p is clamped to (eps, 1-eps)."""
    inside = (p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)
    # The masked denominator keeps clamped points free of division warnings.
    fisher = np.where(inside, slope * slope / np.where(inside, p * (1.0 - p), 1.0), 0.0)
    return fisher if np.ndim(fisher) else float(fisher)


def cfi_of_curve(P: Curve, lam: float | np.ndarray, dP: Curve):
    """``binary_fisher`` of the curve P with slope dP at lam; both must accept floats and arrays."""
    return binary_fisher(P(lam), dP(lam))


def fock_fisher(n):
    """Displacement Fisher information 4(2n+1) of |n>, elementwise on an int or array."""
    return 4.0 * (2.0 * n + 1.0)


def qfi_pure(generator: LinearOp, state: PureState) -> float:
    """4 (<h^2> - <h>^2) for a pure probe state and a Hermitian generator h."""
    h_psi = generator.apply(state)
    mean = np.real(np.vdot(state.amplitudes, h_psi))
    second = np.real(np.vdot(h_psi, h_psi))
    return float(4.0 * (second - mean * mean))


def sql_baselines(n_mean: float) -> tuple[float, float]:
    """(delta_beta_SQL, delta_phi_SQL) = (1/2, 1/(2 sqrt(n_mean)))."""
    if n_mean <= 0:
        raise ValueError("n_mean must be positive")
    return 0.5, 0.5 / math.sqrt(n_mean)


def gain_db_from_precision(sql_precision: float, precision: float) -> float:
    return 20.0 * math.log10(sql_precision / precision)


def gain_db_from_fisher(fisher: float, fisher_sql: float) -> float:
    return 10.0 * math.log10(fisher / fisher_sql)


def weighted_fisher(
    populations: Sequence[tuple[int, float]],
    per_n_fisher: Callable[[int], float],
) -> float:
    """Population-weighted Fisher information sum_n p_n F(n)."""
    total_p = sum(p for _, p in populations)
    if abs(total_p - 1.0) > 1e-6:
        raise ValueError(f"populations sum to {total_p}, expected 1")
    return sum(p * per_n_fisher(n) for n, p in populations)


def optimal_phase_displacement(n_mean_fock: float) -> float:
    """Displacement power gamma^2 = N + 1/2 maximizing phase QFI at fixed mean photons."""
    if n_mean_fock < 0:
        raise ValueError("n_mean_fock must be non-negative")
    return n_mean_fock + 0.5


class Parameter(enum.Enum):
    BETA = "beta"
    PHI = "phi"


@dataclass(frozen=True)
class PrecisionReport:
    """Maximized Fisher information and the resulting precision and gain."""

    parameter: Parameter
    fisher_max: float
    precision: float
    sql_precision: float
    gain_db: float
    argmax_location: float


def golden_max(f: Curve, lo: float, hi: float, grid_points: int, tol: float) -> tuple[float, float]:
    """(max f, argmax) on [lo, hi]: the package's one 1-D search.

    A dense grid, evaluated in one array call ``f(grid)``, then
    golden-section refinement around its best point with single floats.
    """
    grid = np.linspace(lo, hi, grid_points)
    values = f(grid)
    k = int(np.argmax(values))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, grid_points - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = f(c)
    fd = f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x_star = (a + b) / 2.0
    f_star = f(x_star)
    # The refinement assumes local unimodality; never do worse than the grid.
    if f_star < values[k]:
        return float(values[k]), float(grid[k])
    return float(f_star), float(x_star)


def maximize_fisher(fisher: Curve, lo: float, hi: float) -> tuple[float, float]:
    """(F_max, argmax) of a Fisher curve that accepts floats and arrays; ValueError if F_max <= 0."""
    fisher_max, argmax = golden_max(fisher, lo, hi, 401, 1e-4)
    if fisher_max <= 0:
        raise ValueError("the curve carries no Fisher information on [lo, hi]")
    return fisher_max, argmax


def precision_report(
    parameter: Parameter,
    P: Curve,
    lo: float,
    hi: float,
    sql_precision: float,
    dP: Curve,
) -> PrecisionReport:
    fisher_max, argmax = maximize_fisher(lambda lam: cfi_of_curve(P, lam, dP), lo, hi)
    precision = 1.0 / math.sqrt(fisher_max)
    return PrecisionReport(
        parameter=parameter,
        fisher_max=fisher_max,
        precision=precision,
        sql_precision=sql_precision,
        gain_db=gain_db_from_precision(sql_precision, precision),
        argmax_location=argmax,
    )
