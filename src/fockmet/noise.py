"""Open-system dynamics and closed-form error models.

Exact Lindblad propagation with the sparse Liouvillian, the first-order
perturbative correction in closed form in the eigenbasis of H, the analytic
noisy parity probability, and the lambda1/lambda2 toy model predicting
precision versus photon number.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .composite import DeviceParams
from .errors import AllocationLimitError, ModelBreakdownError, SubstepLimitError
from .fockspace import HilbertSpec, LinearOp, MixedState, _displaced_fock
from .metrology import gain_db_from_precision, parity_shape


@dataclass(frozen=True)
class LindbladSpec:
    """Hamiltonian, jump operators with rates, and evolution window.

    ``dt`` is validated but no longer sets the accuracy: the propagation is
    exact to double precision whatever its value.  A jump whose dimension
    differs from H's raises ValueError.  ``jumps`` is kept as a tuple copy of
    the sequence given, so a later change to the caller's list cannot reach
    a validated spec.
    """

    hamiltonian: LinearOp
    jumps: tuple[tuple[LinearOp, float], ...]
    duration: float
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(self.jumps))
        _check_jumps(self.jumps, self.hamiltonian)
        if not 0 < self.dt <= self.duration < math.inf:
            raise ValueError("need 0 < dt <= duration < inf")


def _check_jumps(jumps, hamiltonian: LinearOp) -> None:
    """Raise ValueError for a negative or NaN rate, then for a jump whose dimension differs from H's."""
    if not all(rate >= 0 for _, rate in jumps):
        raise ValueError("jump rates must be non-negative")
    for op, _ in jumps:
        _check_dim("jump operator", op.spec.dim, hamiltonian)


def _check_dim(name: str, dim: int, hamiltonian: LinearOp) -> None:
    """Raise ValueError unless ``dim`` is the dimension of ``hamiltonian``."""
    if dim != hamiltonian.spec.dim:
        raise ValueError(f"{name} has dim {dim}, the Hamiltonian has dim {hamiltonian.spec.dim}")


def _lindblad_coo(hamiltonian: np.ndarray, jumps: list[tuple[np.ndarray, float]]):
    """COO triplets (rows, cols, values) of the Lindblad generator on row-major vec(rho).

    ``jumps`` holds (matrix, rate) pairs.  With row-major vectorisation
    vec(A X B) = (A kron B^T) vec(X).  Writing G = sum kappa L^dag L / 2,
    the master equation is K rho + rho K' + sum kappa L rho L^dag with
    K = -iH - G and K' = iH - G, so the generator is
    K kron I + I kron K'^T + sum kappa L kron L*.  Each A kron B is index
    arithmetic on the nonzeros of the dense A and B, nnz(A) * nnz(B)
    triplets, and duplicate positions are left for the CSR conversion to
    sum.  AllocationLimitError is raised, before any triplet is built, when
    their count passes MAX_COO_TERMS.  The jump terms alone, nnz(L)^2 each,
    are counted first: they also bound the products that ``_gram`` forms.
    """
    dim = hamiltonian.shape[0]
    _check_coo_terms(sum(np.count_nonzero(l_mat) ** 2 for l_mat, _ in jumps), "at least ")
    eye = np.eye(dim)
    g = np.zeros((dim, dim), dtype=complex)
    for l_mat, rate in jumps:
        g += 0.5 * rate * _gram(l_mat)
    pairs = [(-1j * hamiltonian - g, eye), (eye, (1j * hamiltonian - g).T)]
    pairs += [(rate * l_mat, l_mat.conj()) for l_mat, rate in jumps]
    _check_coo_terms(sum(np.count_nonzero(a) * np.count_nonzero(b) for a, b in pairs))
    rows, cols, vals = [], [], []
    for a, b in pairs:
        a_rows, a_cols = np.nonzero(a)
        b_rows, b_cols = np.nonzero(b)
        rows.append((a_rows[:, None] * dim + b_rows).ravel())
        cols.append((a_cols[:, None] * dim + b_cols).ravel())
        vals.append(np.outer(a[a_rows, a_cols], b[b_rows, b_cols]).ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _check_coo_terms(terms: int, bound: str = "") -> None:
    """Raise AllocationLimitError when ``terms`` COO triplets pass MAX_COO_TERMS."""
    if terms > MAX_COO_TERMS:
        raise AllocationLimitError(
            f"the generator needs {bound}{terms:,} COO triplets ({terms * 32 / 2**30:.1f} GB), "
            f"past the ceiling of {MAX_COO_TERMS:,}"
        )


def _gram(l_mat: np.ndarray) -> np.ndarray:
    """L^dag L from the nonzeros of a complex L, with no dense product.

    Row k of L adds conj(L_ki) L_kj at (i, j) for each pair of its nonzeros,
    which ``np.nonzero`` lists row by row.  Where each (i, j) gets at most
    one such product, as for the jumps of ``qubit_cavity_parity_setup``, the
    result equals the dense product to the bit.
    """
    dim = l_mat.shape[0]
    rows, cols = np.nonzero(l_mat)
    vals = l_mat[rows, cols]
    first = np.searchsorted(rows, rows)  # where each entry's row starts
    width = np.searchsorted(rows, rows, side="right") - first
    left = np.repeat(np.arange(rows.size), width)
    # The partners of entry e run over its row: first[e], first[e] + 1, ...
    right = np.repeat(first - (np.cumsum(width) - width), width) + np.arange(left.size)
    products = vals[left].conj() * vals[right]
    return _sum_at(_pair_index(cols[left] * dim + cols[right]), products, dim * dim).reshape(dim, dim)


def _pair_index(index: np.ndarray) -> np.ndarray:
    """The float-view positions (2i, 2i + 1) of the complex entries at ``index``, interleaved."""
    return (2 * index[:, None] + np.arange(2)).ravel()


def _sum_at(pairs: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Complex ``values`` summed into n bins, ``pairs`` being ``_pair_index`` of their bins.

    One ``bincount`` over the float view of the values: each bin sums its
    real and imaginary parts in input order, as two ``bincount`` calls on
    the parts would, so the result is the same to the bit.
    """
    return np.bincount(pairs, values.view(float), 2 * n).view(complex)


def _block_labels(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Weakly connected component of each of n indices under the edges (rows, cols).

    Label propagation with pointer jumping: each sweep hooks the labels at
    both ends of every edge onto the smaller of the two, then replaces every
    label by its label's label, twice.  A label is always an index of the
    same component and never rises, and at the fixed point both ends of
    every edge carry the same label, so each component ends with one label.
    Numpy only: ``scipy.sparse.csgraph`` would import ``scipy.sparse.linalg``.
    """
    labels = np.arange(n)
    while True:
        new = labels.copy()
        ends_r, ends_c = labels[rows], labels[cols]
        low = np.minimum(ends_r, ends_c)
        np.minimum.at(new, ends_r, low)
        np.minimum.at(new, ends_c, low)
        new = new[new[new]]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _liouvillian(hamiltonian: np.ndarray, jumps: list[tuple[LinearOp, float]], duration: float):
    """((rows, cols, vals) of T L - M, the diagonal of M, block labels) for the Lindblad generator L on vec(rho).

    M is constant on each invariant block of L (a weakly connected component
    of its sparsity pattern), where it holds the block's mean diagonal of
    T L.  So M commutes with L, exp(T L) = exp(M) exp(T L - M) exactly, and
    T L - M has zero trace on every block.  A generator with one block (any
    dense H) gets the scalar shift tr(T L)/n.  Assembled in one pass: the
    off-diagonal COO triplets of every term from ``_lindblad_coo``, scaled
    by T, then the summed diagonal minus M, one triplet per index.
    Duplicate positions are left for ``_csr`` or ``_block_propagator`` to
    sum.  The labels are ``_block_labels`` of the off-diagonal pattern.
    AllocationLimitError is raised, before any triplet is built, past
    MAX_COO_TERMS triplets.
    """
    plain = [(op.matrix, rate) for op, rate in jumps]
    rows, cols, vals = _lindblad_coo(hamiltonian, plain)
    vals *= duration
    n = hamiltonian.shape[0] ** 2
    on_diag = rows == cols
    diag = _sum_at(_pair_index(rows[on_diag]), vals[on_diag], n)
    rows, cols, vals = rows[~on_diag], cols[~on_diag], vals[~on_diag]
    labels = _block_labels(rows, cols, n)
    shift = _sum_at(_pair_index(labels), diag, n)[labels] / np.bincount(labels, minlength=n)[labels]
    index = np.arange(n)
    coo = np.concatenate([rows, index]), np.concatenate([cols, index]), np.concatenate([vals, diag - shift])
    return coo, shift, labels


def _csr(coo, n: int):
    """n x n COO triplets as canonical sparse CSR: duplicates summed, exact zeros dropped."""
    import scipy.sparse as sp

    rows, cols, vals = coo
    out = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    out.eliminate_zeros()
    return out


# Al-Mohy & Higham (2011), table 3.1: the largest 1-norm over which a 55-term
# Taylor polynomial meets unit roundoff.
_THETA_55 = 9.9
_UNIT_ROUNDOFF = 2.0**-53
# The most substeps ``lindblad_evolve`` takes.  The working points of
# ``qubit_cavity_parity_setup`` need 3 (N = 4) to 85 (N = 400); a duration in
# seconds where the generator's unit is T_M asks for hundreds of thousands.
MAX_SUBSTEPS = 1000
# The largest COO triplet count (32 B each) that one generator assembly may
# build: the Liouvillian of ``lindblad_evolve``'s propagator, and the jump
# generator in the eigenbasis of H of ``perturbation_first_order``.  1 GB of
# triplets, before the arrays built on them.  The diagonal H of
# ``qubit_cavity_parity_setup`` keeps both sparse: about 5.2 million triplets
# at N = 400 (dim 1080, ``default_spec``), a sixth of the ceiling.  A dense H
# makes them dense: 2 dim^3 for H alone in the Liouvillian, nnz(L)^2 per
# rotated jump, 1e8 already at dim 100.  The count does not bound what is
# built from the triplets afterwards: the block labels (``_block_labels``),
# the CSR (``_csr``) and the propagator's blocks (``_block_propagator``,
# bounded by MAX_PROPAGATOR_SIZE instead).
MAX_COO_TERMS = 2**25
# The largest max|H - H^dag| / max|H| that counts as Hermitian.
_HERMITIAN_TOL = 1e-12
# The largest n * b_max (n entries of vec(rho), b_max the size of the largest
# invariant block of the generator) for which ``lindblad_evolve`` builds
# exp(T L) itself: cavity dim <= 20 for ``qubit_cavity_parity_setup``,
# n <= 256 for a generator with one block.  The blocks then hold at most
# n * b_max entries, 1 MB at the ceiling; at N = 100 they would take
# hundreds of MB.
MAX_PROPAGATOR_SIZE = 2**16


def _one_norm(op) -> float:
    """Largest column sum of |op| for a sparse CSR op."""
    return np.bincount(op.indices, np.abs(op.data), op.shape[0]).max()


def _substeps(one_norm: float, duration: float) -> int:
    """Taylor substeps max(1, ceil(||T L - M||_1 / theta_55)).

    Raises SubstepLimitError when that is more than MAX_SUBSTEPS.
    """
    steps = max(1, math.ceil(one_norm / _THETA_55))
    if steps > MAX_SUBSTEPS:
        raise SubstepLimitError(
            f"duration {duration:.6g} gives ||T L||_1 = {one_norm:.6g}, "
            f"{steps} Taylor substeps > {MAX_SUBSTEPS}; is the duration in the rates' time unit?"
        )
    return steps


@functools.lru_cache(maxsize=2)
def _propagator(hamiltonian: LinearOp, jumps: tuple[tuple[LinearOp, float], ...], duration: float):
    """The map vec(rho) -> exp(T L) vec(rho) of ``lindblad_evolve``, cached per generator.

    ``_block_propagator`` when n * b_max <= MAX_PROPAGATOR_SIZE; else
    ``_expm_action`` on T L - M as CSR, with s = ``_substeps`` and
    eta = exp(shift / s).  Raises SubstepLimitError, before any product,
    when the generator needs more than MAX_SUBSTEPS substeps,
    AllocationLimitError, before any triplet is built, when its assembly
    needs more than MAX_COO_TERMS triplets (``_liouvillian``), and
    ValueError when H is not Hermitian (``_check_hermitian``).
    """
    _check_hermitian(hamiltonian.matrix)
    coo, shift, labels = _liouvillian(hamiltonian.matrix, jumps, duration)
    n = labels.size
    if n * np.bincount(labels).max() <= MAX_PROPAGATOR_SIZE:
        return _block_propagator(coo, shift, labels, duration)
    op = _csr(coo, n)
    steps = _substeps(_one_norm(op), duration)
    return functools.partial(_expm_action, op, steps, np.exp(shift / steps))


def _block_propagator(coo, shift: np.ndarray, labels: np.ndarray, duration: float):
    """The map vec(rho) -> exp(T L) vec(rho), built once from dense Taylor runs on the invariant blocks.

    Each block of T L - M is laid out as a dense b x b matrix in one flat
    array (at most n * b_max entries), blocks ordered by size.  The blocks
    of one size form an m x b x b stack, which one ``_expm_action`` run
    exponentiates with batched matmuls, each block's eta being the scalar
    exp(M / s) on it.  The map is then one gather and one ``_sum_at`` over
    the nonzeros of exp(T L), whose pair index is built here once.  Numpy
    only: scipy.sparse would cost about 1.4 MB of resident memory in a
    process that does not load it already.
    """
    rows, cols, vals = coo
    n = labels.size
    sizes = np.bincount(labels, minlength=n)
    members = np.lexsort((labels, sizes[labels]))  # by block size, then block; each block in index order
    starts = np.flatnonzero(np.diff(labels[members], prepend=-1))  # each block's first position in members
    size = sizes[labels[members[starts]]]
    offsets = np.cumsum(size * size) - size * size  # each block's first entry in the flat layout
    rank, offset = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    rank[members] = np.arange(n) - np.repeat(starts, size)
    offset[members] = np.repeat(offsets, size)
    at = offset[rows] + rank[rows] * sizes[labels[rows]] + rank[cols]
    flat = _sum_at(_pair_index(at), vals, offsets[-1] + size[-1] ** 2)
    stacks = []
    for b in np.unique(size):
        same = np.flatnonzero(size == b)  # consecutive blocks
        stacks.append((same, flat[offsets[same[0]]:offsets[same[-1]] + b * b].reshape(-1, b, b)))
    steps = _substeps(max(np.abs(stack).sum(axis=1).max() for _, stack in stacks), duration)
    eta = np.exp(shift[members[starts]] / steps)
    entries = []
    for same, stack in stacks:
        b = stack.shape[-1]
        block = _expm_action(stack, steps, eta[same, None, None], np.broadcast_to(np.eye(b), stack.shape))
        index = members[starts[same, None] + np.arange(b)]  # the members of each block
        keep = block != 0
        entries.append((np.broadcast_to(index[:, :, None], block.shape)[keep],
                        np.broadcast_to(index[:, None, :], block.shape)[keep], block[keep]))
    rows, cols, vals = map(np.concatenate, zip(*entries))
    return functools.partial(_gather_sum, _pair_index(rows), cols, vals)


def _gather_sum(pairs: np.ndarray, cols: np.ndarray, vals: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """A @ vec for A given by the COO triplets (rows, cols, vals), with pairs = ``_pair_index(rows)``."""
    return _sum_at(pairs, vals * vec[cols], vec.size)


def _norm(x: np.ndarray) -> float:
    """2-norm of a complex vector, or Frobenius norm of a matrix, from one ``vdot``."""
    return math.sqrt(np.vdot(x, x).real)


def _expm_action(op, steps: int, eta: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """exp(diag(shift) + op) @ vec for an op that commutes with diag(shift).

    Algorithm 3.2 of Al-Mohy & Higham (2011) with their shift generalised to
    the diagonal M = diag(shift) that ``_liouvillian`` takes out of each
    invariant block: ``steps`` = ``_substeps`` substeps, each at most 55
    Taylor terms of exp(op / s) followed by eta = exp(M / s) elementwise.
    Their stopping rule ||b_{j-1}|| + ||b_j|| <= 2^-53 ||F|| uses the 2-norm
    throughout, one ``vdot`` per term; the exact ||F|| is taken only once
    the running sum of term norms, an upper bound on it, would pass the test.
    ``op`` is a sparse CSR matrix on a vector, or an m x b x b stack of dense
    blocks on a stack of the same shape with eta of shape m x 1 x 1; the
    norms are then Frobenius norms of the whole stack.

    On a vector each term is one sparse product, most of whose time is
    scipy's dispatch at the sizes of ``qubit_cavity_parity_setup``, so
    ``lindblad_evolve`` runs it per state only past MAX_PROPAGATOR_SIZE.
    Below it, ``_block_propagator`` runs it once per block size, when the
    generator is first seen.
    """
    out = np.array(vec, dtype=complex)
    for _ in range(steps):
        term = out
        prev = bound = _norm(out)
        for j in range(55):
            term = op @ term
            term *= 1.0 / (steps * (j + 1))
            size = _norm(term)
            out += term
            bound += size
            gap = prev + size
            if gap <= _UNIT_ROUNDOFF * bound and gap <= _UNIT_ROUNDOFF * _norm(out):
                break
            prev = size
        out *= eta
    return out


def lindblad_evolve(rho: MixedState, spec: LindbladSpec) -> MixedState:
    """Evolve rho under the Lindblad master equation over ``spec.duration``.

    Applies exp(L T) to vec(rho), computed with the Taylor propagator
    ``_expm_action`` (Al-Mohy & Higham 2011).  The generator T L is
    assembled once, with each invariant block shifted by its own mean
    diagonal: that shift is exact and leaves a smaller 1-norm, hence fewer
    substeps (3 instead of 5 at the N = 4, dim 16 working point of
    ``qubit_cavity_parity_setup``).  The result is symmetrized once, and
    ValueError is raised if it is not a physical state (trace, hermiticity,
    positivity).

    Rule, by size only: when n * b_max <= MAX_PROPAGATOR_SIZE (n = dim^2
    entries of vec(rho), b_max the largest invariant block; cavity dim
    <= 20 in ``qubit_cavity_parity_setup``, dim <= 16 for a dense
    generator), exp(T L) itself is built once, block by block
    (``_block_propagator``), and every call is one gather and one
    ``bincount`` over its nonzeros: about 0.08 ms instead of 2.2 ms per
    call at the working point above (one BLAS thread), of which the
    product takes about 40 us and the positivity check of the result
    about 30 us, after a build of about 30 ms.  Its outputs
    differ from a per-state Taylor run by about 1e-15.  Larger generators
    (N = 100, 400) take ``_expm_action`` on the sparse generator per call.

    The propagator depends only on H, the jumps with their rates and the
    duration.  ``_propagator`` keeps it in a ``functools.lru_cache`` of two
    entries, keyed on the H and jump ``LinearOp`` objects (which hash by
    identity), the rates and the duration: a sweep over states that passes
    the same operators builds it once, and cold and warm calls take the
    same path.  An operator rebuilt with equal contents misses.
    SubstepLimitError is raised, before any product and without keeping
    anything, when the generator needs more than MAX_SUBSTEPS substeps, and
    AllocationLimitError, the same way, when assembling it would build more
    than MAX_COO_TERMS COO triplets (a dense H alone needs 2 dim^3, the
    ceiling at dim 256); ValueError when rho and H differ in dimension, or
    when H is not Hermitian (max|H - H^dag| above 1e-12 max|H|), which the final
    symmetrisation would otherwise hide.
    """
    _check_dim("rho", rho.spec.dim, spec.hamiltonian)
    dim = rho.spec.dim
    propagate = _propagator(spec.hamiltonian, spec.jumps, spec.duration)
    state = propagate(rho.matrix.reshape(-1)).reshape(dim, dim)
    out = MixedState(0.5 * (state + state.conj().T), rho.spec)
    out.check_physical()
    return out


def _check_hermitian(h: np.ndarray) -> None:
    """Raise ValueError unless max|H - H^dag| <= _HERMITIAN_TOL * max|H|."""
    deviation = float(np.max(np.abs(h - h.conj().T)))
    scale = float(np.max(np.abs(h)))
    if deviation > _HERMITIAN_TOL * scale:
        raise ValueError(
            f"hamiltonian is not Hermitian: max|H - H^dag| = {deviation:.2e}, max|H| = {scale:.2e}"
        )


@functools.lru_cache(maxsize=2)
def _eigh(hamiltonian: LinearOp) -> tuple[np.ndarray, np.ndarray | None]:
    """eigh(H) as read-only (evals, vecs), cached per operator like ``_propagator``.

    A diagonal H, every off-diagonal entry exactly 0, takes no ``eigh``: evals
    is its real diagonal in basis order and vecs is None, for which
    ``_to_eigenbasis`` and ``_from_eigenbasis`` return their argument.
    ValueError when H is not Hermitian (``_check_hermitian``).
    """
    h = hamiltonian.matrix
    _check_hermitian(h)
    diagonal = np.diagonal(h)
    if np.count_nonzero(h) == np.count_nonzero(diagonal):
        evals, vecs = diagonal.real.copy(), None
    else:
        evals, vecs = np.linalg.eigh(h)
        vecs.flags.writeable = False
    evals.flags.writeable = False
    return evals, vecs


def _to_eigenbasis(vecs: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """V^dag x V for the vecs V of ``_eigh``; x itself when H is diagonal (V is None)."""
    return x if vecs is None else vecs.conj().T @ x @ vecs


def _from_eigenbasis(vecs: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """V x V^dag, the inverse of ``_to_eigenbasis``; x itself when V is None."""
    return x if vecs is None else vecs @ x @ vecs.conj().T


def unitary_evolution(rho0: MixedState, hamiltonian: LinearOp):
    """Return t -> exp(-iHt) rho0 exp(iHt) from eigh(H).

    eigh(H) comes from ``_eigh``, a ``functools.lru_cache`` of two entries
    keyed on the ``LinearOp`` (by identity), which ``perturbation_first_order``
    shares: a sweep of states under one H decomposes it once.  Each call is
    left with rho0 in the eigenbasis.  A diagonal H takes no ``eigh`` and no
    basis rotation: rho0 is already in its eigenbasis, and exp(-iHt) is a
    phase on each entry.  ValueError when H is not Hermitian.
    """
    evals, vecs = _eigh(hamiltonian)
    return functools.partial(_rotate, evals, vecs, _to_eigenbasis(vecs, rho0.matrix))


def _rotate(evals: np.ndarray, vecs: np.ndarray | None, rho_eig: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) rho exp(iHt) from (evals, vecs) = ``_eigh(H)`` and rho~ = ``_to_eigenbasis(vecs, rho)``."""
    phases = np.exp(-1j * evals * t)
    return _from_eigenbasis(vecs, phases[:, None] * rho_eig * phases.conj())


@functools.lru_cache(maxsize=2)
def _first_order_map(hamiltonian: LinearOp, jumps: tuple[tuple[LinearOp, float], ...], T: float):
    """The map vec(rho0~) -> vec(rho1~) of ``perturbation_first_order``, cached per generator.

    ``_block_propagator``'s shape: the jump generator's COO triplets in H's
    eigenbasis (``_eigh``, ``_lindblad_coo``), each weighted by T times its
    sinc kernel over the window.
    """
    evals, vecs = _eigh(hamiltonian)
    rotated = [(_to_eigenbasis(vecs, op.matrix), rate) for op, rate in jumps]
    rows, cols, vals = _lindblad_coo(np.zeros_like(hamiltonian.matrix), rotated)
    omega = (evals[:, None] - evals[None, :]).ravel() * T
    x = omega[rows] - omega[cols]
    kernel = np.exp(0.5j * x - 1j * omega[rows]) * np.sinc(x / (2 * np.pi))
    return functools.partial(_gather_sum, _pair_index(rows), cols, T * vals * kernel)


def perturbation_first_order(
    rho0_of_t,
    hamiltonian: LinearOp,
    jumps: list[tuple[LinearOp, float]],
    T: float,
    num_points: int = 2001,
) -> np.ndarray:
    """Traceless first-order correction rho1(T), in closed form in the eigenbasis of H.

    rho1(T) = int_0^T dtau exp(L0 (T-tau)) L1 rho0(tau), with L0 the
    Liouvillian of H alone and L1 that of the jumps alone.  With
    H = V diag(E) V^dag and omega_ab = E_a - E_b, L0 is diagonal on
    rho~ = V^dag rho V, and with x = (omega_ab - omega_jk) T each entry of L1
    (built from the jumps V^dag L V) integrates exactly to

        rho1~_ab = sum_jk L1_{ab,jk} rho0~_jk T e^{-i omega_ab T + ix/2} sinc(x/2pi),

    with rho1 = V rho1~ V^dag.  The sinc form is exact at x = 0, with no
    (e^{ix} - 1)/x cancellation.  A diagonal H, such as the one of
    ``qubit_cavity_parity_setup``, has V = I: it takes no ``eigh`` and no
    rotation of rho0, the jumps or rho1, and its guard below is elementwise.
    Cost scales with the nonzeros of the jumps in H's eigenbasis: the
    diagonal H keeps them sparse (4,296 terms at dim 32); a dense H makes
    them dense, and AllocationLimitError is raised, before they are built,
    past MAX_COO_TERMS triplets.

    ``rho0_of_t`` must be the unitary evolution under ``hamiltonian``; a
    mismatch at T above 1e-9 raises ValueError.  ``num_points`` is validated
    but ignored.  Warns when any kappa_m * T exceeds 0.3.

    The sum over jk is one weighted-triplet map of H, the jumps with their
    rates and T, cached by ``_first_order_map`` as ``lindblad_evolve``
    caches its propagator; each call is left with rho0 in the eigenbasis,
    the unitary guard, one gather and one sum.  ValueError is raised, before
    any cache lookup, for a non-finite T and for a negative jump rate; then
    when a jump or rho0_of_t(0) differs from H in dimension, and when H is
    not Hermitian.
    """
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    for _, rate in jumps:
        if rate * T > 0.3:
            warnings.warn(f"kappa*T = {rate * T:.3g} > 0.3; first-order expansion unreliable", stacklevel=2)
    if num_points < 5:
        raise ValueError("num_points must be at least 5")
    _check_jumps(jumps, hamiltonian)
    rho0 = np.asarray(rho0_of_t(0.0))
    _check_dim("rho0_of_t(0)", len(rho0), hamiltonian)

    evals, vecs = _eigh(hamiltonian)
    rho_eig = _to_eigenbasis(vecs, rho0)
    mismatch = float(np.max(np.abs(_rotate(evals, vecs, rho_eig, T) - rho0_of_t(T))))
    if mismatch > 1e-9:
        raise ValueError(
            "rho0_of_t is not the unitary evolution under hamiltonian: "
            f"deviation {mismatch:.2e} at T"
        )
    rho1 = _first_order_map(hamiltonian, tuple(jumps), T)(rho_eig.ravel())
    return _from_eigenbasis(vecs, rho1.reshape(rho_eig.shape))


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
    return 0.5 + 0.5 * sign * s_n + p_g1


def displacement_dephasing_bias(N: int, beta: float, params: DeviceParams) -> float:
    """Probability shift from cavity dephasing during the displacement pulse:
    (1/3) kappa2 T_D beta^2 N^3.  Valid for N kappa2 T_D << 1 and N beta^2 << 1."""
    if N * params.kappa2 * params.T_D > 0.1 or N * beta * beta > 0.1:
        warnings.warn("displacement-dephasing bias outside its validity domain", stacklevel=2)
    return params.kappa2 * params.T_D * beta * beta * N**3 / 3.0


class ToyModelResult(NamedTuple):
    """``toy_model``'s output at one N.

    A NamedTuple rather than a frozen dataclass: it is as immutable and
    compares by value, and builds in about a third of the time, which
    matters to callers that sweep N point by point.  It also iterates and
    unpacks; ``_replace`` and ``_asdict`` stand in for ``dataclasses.replace``
    and ``asdict``.
    """

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
    lambda2 = 2 lambda1 + kappa2 T_D N^2 / 6: its offset part is lambda1
    doubled, and doubling is exact in binary floating point, so this is the
    same to the bit as summing the four terms of lambda2 one by one.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    k1, k2, k3, k4 = params.kappa1, params.kappa2, params.kappa3, params.kappa4
    t_i, t_m, t_d = params.T_i, params.T_M, params.T_D
    lambda1 = N * k1 * t_i + 0.5 * N * k1 * t_m + 0.25 * (k3 + k4) * t_m
    lambda2 = 2.0 * lambda1 + k2 * t_d * N * N / 6.0
    if lambda2 >= 1.0:
        raise ModelBreakdownError(f"lambda2 = {lambda2:.3g} >= 1 at N = {N}")
    fisher = (1.0 - lambda2) ** 2 * 8.0 * N
    precision = 1.0 / math.sqrt(fisher)
    return ToyModelResult(lambda1, lambda2, fisher, precision, gain_db_from_precision(0.5, precision))


def init_fidelity_model(N: int, params: DeviceParams) -> float:
    """Decay-limited fidelity of the initialized Fock state: 1 - N kappa1 T_i."""
    loss = N * params.kappa1 * params.T_i
    if loss >= 1.0:
        raise ModelBreakdownError(f"N kappa1 T_i = {loss:.3g} >= 1")
    return 1.0 - loss


@functools.lru_cache(maxsize=4)
def _parity_operators(spec: HilbertSpec, T_M: float) -> tuple[LinearOp, ...]:
    """H = (pi / T_M) n |e><e| and the jump operators a, n, sigma_- and |e><e| on qubit x cavity."""
    from .fockspace import ladder_ops

    dim = spec.dim
    cspec = HilbertSpec(2 * dim, spec.guard)
    chi_sim = math.pi / T_M
    n_diag = np.arange(dim)
    h = np.zeros((2 * dim, 2 * dim), dtype=complex)
    h[dim:, dim:] = np.diag(chi_sim * n_diag)

    lower, _ = ladder_ops(spec)
    eye2 = np.eye(2)
    sig_minus = np.zeros((2, 2)); sig_minus[0, 1] = 1.0
    proj_e = np.zeros((2, 2)); proj_e[1, 1] = 1.0
    eye_c = np.eye(dim)
    matrices = (
        h,
        np.kron(eye2, lower.matrix),
        np.kron(eye2, np.diag(n_diag)),
        np.kron(sig_minus, eye_c),
        np.kron(proj_e, eye_c),
    )
    return tuple(LinearOp(m, cspec) for m in matrices)


def qubit_cavity_parity_setup(
    N: int, beta: float, params: DeviceParams, spec: HilbertSpec
) -> tuple[MixedState, LinearOp, list[tuple[LinearOp, float]]]:
    """Initial state, Hamiltonian and jump set of the parity-measurement stage.

    Cavity in the displaced Fock state D(beta)|N>, qubit in |+>, evolving
    under chi_sim * n |e><e| with cavity decay/dephasing and qubit
    decay/dephasing jumps.  chi_sim = pi / T_M so the conditional phase
    reaches exactly pi over the measurement window, matching the
    closed-form noisy parity probability.

    H and the four jump operators depend only on ``spec`` and ``params.T_M``;
    they are built once per pair (an LRU cache of at most four pairs) and
    shared, which is safe because a ``LinearOp``'s matrix is read-only.
    Every call with one pair returns the same operator objects, so the
    caches of ``lindblad_evolve`` and ``perturbation_first_order``, keyed
    on those objects, hit across a sweep of beta or N at fixed rates.  The
    jump list, with the rates of ``params``, is new on every call.
    """
    hamiltonian, *ops = _parity_operators(spec, params.T_M)
    half = _displaced_fock(beta, N, spec) * (1.0 / math.sqrt(2.0))
    psi = np.concatenate((half, half))  # |+> kron D(beta)|N>
    rho = MixedState(np.outer(psi, psi.conj()), hamiltonian.spec)
    rates = (params.kappa1, params.kappa2, params.kappa3, params.kappa4)
    return rho, hamiltonian, list(zip(ops, rates))


def parity_readout_probability(rho: MixedState) -> float:
    """Ground probability after the closing -X/2 pulse: <+| rho_qubit |+>."""
    dim = rho.spec.dim // 2
    m = rho.matrix
    rho_gg = np.trace(m[:dim, :dim])
    rho_ee = np.trace(m[dim:, dim:])
    rho_ge = np.trace(m[:dim, dim:])
    return float(np.real(0.5 * (rho_gg + rho_ee + rho_ge + np.conj(rho_ge))))
