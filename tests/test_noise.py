"""Lindblad propagation, perturbative correction, and closed-form error models."""

import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from fockmet import (
    AllocationLimitError,
    DeviceParams,
    HilbertSpec,
    LindbladSpec,
    LinearOp,
    MixedState,
    ModelBreakdownError,
    SubstepLimitError,
    ToyModelResult,
    coherent_state,
    default_spec,
    displacement,
    displacement_dephasing_bias,
    fock_state,
    init_fidelity_model,
    ladder_ops,
    lindblad_evolve,
    number_op,
    parity_prob_noisy,
    perturbation_first_order,
    toy_model,
)
from fockmet import noise
from fockmet.metrology import gain_db_from_precision, parity_curve_ideal, sql_baselines
from fockmet.noise import (
    _expm_action,
    parity_readout_probability,
    qubit_cavity_parity_setup,
    unitary_evolution,
)


def _scaled_params(scale: float) -> DeviceParams:
    base = DeviceParams()
    return DeviceParams(
        kappa1=base.kappa1 * scale,
        kappa2=base.kappa2 * scale,
        kappa3=base.kappa3 * scale,
        kappa4=base.kappa4 * scale,
    )


def _liouvillian_csr(h, jumps, t):
    """T L - M as canonical CSR, the diagonal of M and the block labels."""
    coo, shift, labels = noise._liouvillian(h, jumps, t)
    return noise._csr(coo, labels.size), shift, labels


def _steps(op) -> int:
    """Taylor substeps for a CSR op."""
    return noise._substeps(noise._one_norm(op), 1.0)


def _generator_by_columns(h, jumps):
    """Oracle: the dense Lindblad generator on row-major vec(rho), one column
    per matrix unit, each the master equation applied to that unit."""
    dim = h.shape[0]

    def rhs(rho):
        out = -1j * (h @ rho - rho @ h)
        for l_mat, rate in jumps:
            ldl = l_mat.conj().T @ l_mat
            out += rate * (l_mat @ rho @ l_mat.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
        return out

    units = np.eye(dim * dim).reshape(dim * dim, dim, dim)
    return np.stack([rhs(e).reshape(-1) for e in units], axis=1)


def _random_model(dim):
    """A Hermitian H, a non-normal and a Hermitian jump with rates, and a state."""
    rng = np.random.default_rng(3)

    def crandn(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    g = crandn(dim, dim)
    h = 0.5 * (g + g.conj().T) / dim
    non_normal = crandn(dim, dim) / dim
    hermitian = np.diag(rng.uniform(0.0, 1.0, dim)).astype(complex)
    w = crandn(dim, dim)
    rho0 = w @ w.conj().T
    return h, [(non_normal, 0.7), (hermitian, 0.4)], rho0 / np.trace(rho0)


def _dense_van_loan(h, jumps, rho0, t):
    """Oracle: rho1(t) as the top half of expm([[L0, L1], [0, L0]] t) [0; vec rho0]."""
    dim = h.shape[0]
    n = dim * dim
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = block[n:, n:] = _generator_by_columns(h, [])
    block[:n, n:] = _generator_by_columns(np.zeros_like(h), jumps)
    start = np.concatenate([np.zeros(n), rho0.reshape(-1)])
    return (expm(block * t) @ start)[:n].reshape(dim, dim)


def _first_order(h, jumps, rho0, t):
    """``perturbation_first_order`` on plain arrays."""
    spec = HilbertSpec(h.shape[0])
    ham = LinearOp(h, spec)
    ops = [(LinearOp(l_mat, spec), rate) for l_mat, rate in jumps]
    return perturbation_first_order(unitary_evolution(MixedState(rho0, spec), ham), ham, ops, t)


class TestLiouvillian:
    @pytest.mark.parametrize("case", ["full", "zero-hamiltonian", "zero-rate-jump", "non-normal-only"])
    def test_matches_generator_by_columns(self, case):
        dim = 6
        spec = HilbertSpec(dim)
        h, jumps, _ = _random_model(dim)
        if case == "zero-hamiltonian":
            h = np.zeros((dim, dim))
        elif case == "zero-rate-jump":
            jumps = [(jumps[0][0], 0.0), jumps[1]]
        elif case == "non-normal-only":
            jumps = jumps[:1]
        liou, shift, _ = _liouvillian_csr(h, [(LinearOp(l_mat, spec), rate) for l_mat, rate in jumps], 1.0)
        generator = liou.toarray() + np.diag(shift)
        assert np.max(np.abs(generator - _generator_by_columns(h, jumps))) <= 1e-14
        # Canonical CSR: column indices strictly increasing within every row.
        assert liou.format == "csr" and liou.has_canonical_format
        for row in range(dim * dim):
            assert np.all(np.diff(liou.indices[liou.indptr[row]:liou.indptr[row + 1]]) > 0)


class TestLindbladEvolve:
    def test_amplitude_damping_of_coherent_state(self):
        spec = default_spec(1)
        rho = coherent_state(1.0, spec).to_mixed()
        zero_h = LinearOp(np.zeros((spec.dim, spec.dim)), spec)
        lower, _ = ladder_ops(spec)
        out = lindblad_evolve(
            rho, LindbladSpec(zero_h, [(lower, 1.0)], duration=0.5, dt=0.005)
        )
        nbar = float(np.real(np.trace(number_op(spec).matrix @ out.matrix)))
        assert nbar == pytest.approx(math.exp(-0.5), rel=1e-6)
        assert out.trace == pytest.approx(1.0, abs=1e-9)
        out.check_physical()

    def test_two_level_decay(self):
        spec = HilbertSpec(2)
        rho = fock_state(1, spec).to_mixed()
        zero_h = LinearOp(np.zeros((2, 2)), spec)
        lower, _ = ladder_ops(spec)
        out = lindblad_evolve(
            rho, LindbladSpec(zero_h, [(lower, 2.0)], duration=1.0, dt=0.01)
        )
        assert out.matrix[1, 1].real == pytest.approx(math.exp(-2.0), rel=1e-6)

    def test_dephasing_kills_coherences_only(self):
        spec = default_spec(1)
        rho = coherent_state(1.0, spec).to_mixed()
        zero_h = LinearOp(np.zeros((spec.dim, spec.dim)), spec)
        out = lindblad_evolve(
            rho, LindbladSpec(zero_h, [(number_op(spec), 1.0)], duration=0.4, dt=0.004)
        )
        assert np.allclose(np.diag(out.matrix), np.diag(rho.matrix), atol=1e-9)
        # |0><1| coherence decays as exp(-kappa t / 2)
        expected = rho.matrix[0, 1] * math.exp(-0.2)
        assert out.matrix[0, 1] == pytest.approx(expected, rel=1e-6)

    @staticmethod
    def _against_dense_expm(h_scale):
        """Max deviation of lindblad_evolve from dense expm on the random model,
        and the 1-norm of the shifted generator that sets the substep count."""
        dim = 6
        spec = HilbertSpec(dim)
        h, jumps, rho0 = _random_model(dim)
        h = h_scale * h
        t = 1.3
        generator = _generator_by_columns(h, jumps) * t
        expected = (expm(generator) @ rho0.reshape(-1)).reshape(dim, dim)
        shifted = generator - np.trace(generator) / dim**2 * np.eye(dim**2)

        out = lindblad_evolve(
            MixedState(rho0, spec),
            LindbladSpec(
                LinearOp(h, spec),
                [(LinearOp(l_mat, spec), rate) for l_mat, rate in jumps],
                duration=t,
                dt=t,
            ),
        )
        return np.max(np.abs(out.matrix - expected)), np.abs(shifted).sum(axis=0).max()

    def test_matches_dense_liouvillian_expm(self):
        assert self._against_dense_expm(1.0)[0] <= 1e-12

    def test_matches_dense_expm_over_several_substeps(self):
        error, one_norm = self._against_dense_expm(40.0)
        # 13 substeps of at most 9.9 each, past the norm where scipy's
        # expm_multiply switches to estimated powers of the generator.
        assert one_norm > 63
        assert error <= 1e-12

    def test_block_shift_matches_dense_expm_on_parity_setup(self):
        params = _scaled_params(0.1)
        rho, h, jumps = qubit_cavity_parity_setup(1, 0.1, params, HilbertSpec(6, 0))
        t = params.T_M
        _, shift, _ = _liouvillian_csr(h.matrix, jumps, t)
        assert np.unique(shift).size > 1  # more than one invariant block
        generator = _generator_by_columns(h.matrix, [(op.matrix, rate) for op, rate in jumps]) * t
        dim = rho.spec.dim
        expected = (expm(generator) @ rho.matrix.reshape(-1)).reshape(dim, dim)
        out = lindblad_evolve(rho, LindbladSpec(h, jumps, duration=t, dt=t))
        assert np.max(np.abs(out.matrix - 0.5 * (expected + expected.conj().T))) <= 1e-12

    def test_block_shift_matches_dense_expm_on_direct_sum(self):
        # Two random models on C^3 + C^4, the second lifted by 25 in energy:
        # the coherence blocks rho_12 and rho_21 get diagonals +25i and -25i,
        # 50i apart, which only a shift per block removes.
        (h1, jumps1, _), (h2, jumps2, _) = _random_model(3), _random_model(4)
        dim = 7
        spec = HilbertSpec(dim)
        h = np.zeros((dim, dim), dtype=complex)
        h[:3, :3], h[3:, 3:] = h1, h2 + 25.0 * np.eye(4)
        jumps = []
        for (l1, rate), (l2, _) in zip(jumps1, jumps2):
            l_mat = np.zeros((dim, dim), dtype=complex)
            l_mat[:3, :3], l_mat[3:, 3:] = l1, l2
            jumps.append((l_mat, rate))
        rng = np.random.default_rng(5)
        w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho0 = w @ w.conj().T / np.trace(w @ w.conj().T)
        t = 1.3
        ops = [(LinearOp(l_mat, spec), rate) for l_mat, rate in jumps]
        liou, shift, _ = _liouvillian_csr(h, ops, t)
        assert np.ptp(shift.imag) == pytest.approx(50.0 * t, rel=0.01)
        assert _steps(liou) == 1
        assert _steps(liou + sp.diags(shift - shift.mean())) >= 4
        generator = _generator_by_columns(h, jumps) * t
        expected = (expm(generator) @ rho0.reshape(-1)).reshape(dim, dim)
        lindblad = LindbladSpec(LinearOp(h, spec), ops, duration=t, dt=t)
        out = lindblad_evolve(MixedState(rho0, spec), lindblad)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_block_shift_cuts_substeps_at_working_point(self):
        params = _scaled_params(0.1)
        _, h, jumps = qubit_cavity_parity_setup(4, 0.2, params, HilbertSpec(16, 0))
        liou, shift, _ = _liouvillian_csr(h.matrix, jumps, params.T_M)
        scalar_shifted = liou + sp.diags(shift - shift.mean())
        assert _steps(scalar_shifted) == 5
        assert _steps(liou) == 3

    def test_zero_generator_returns_the_state(self):
        dim = 5
        spec = HilbertSpec(dim)
        _, jumps, rho0 = _random_model(dim)
        out = lindblad_evolve(
            MixedState(rho0, spec),
            LindbladSpec(
                LinearOp(np.zeros((dim, dim)), spec),
                [(LinearOp(l_mat, spec), 0.0) for l_mat, _ in jumps],
                duration=2.0,
                dt=2.0,
            ),
        )
        assert np.max(np.abs(out.matrix - rho0)) <= 1e-15

    def test_leaves_global_rng_untouched(self):
        params = DeviceParams()
        rho, h, jumps = qubit_cavity_parity_setup(4, 0.1, params, HilbertSpec(24, 0))
        spec = LindbladSpec(h, jumps, duration=params.T_M, dt=params.T_M)
        np.random.seed(11)
        before = np.random.get_state()
        lindblad_evolve(rho, spec)
        after = np.random.get_state()
        assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]

    def test_rejects_unphysical_result(self):
        spec = HilbertSpec(2)
        zero_h = LinearOp(np.zeros((2, 2)), spec)
        lower, _ = ladder_ops(spec)
        doubled = MixedState(2.0 * fock_state(1, spec).to_mixed().matrix, spec)
        with pytest.raises(ValueError, match="trace"):
            lindblad_evolve(doubled, LindbladSpec(zero_h, [(lower, 1.0)], duration=1.0, dt=0.1))

    def test_spec_validation(self):
        spec = HilbertSpec(2)
        zero_h = LinearOp(np.zeros((2, 2)), spec)
        lower, _ = ladder_ops(spec)
        with pytest.raises(ValueError):
            LindbladSpec(zero_h, [(lower, -1.0)], duration=1.0, dt=0.1)
        with pytest.raises(ValueError):
            LindbladSpec(zero_h, [(lower, 1.0)], duration=1.0, dt=0.0)

    def test_spec_rejects_nan_rate_and_duration(self):
        spec = HilbertSpec(2)
        zero_h = LinearOp(np.zeros((2, 2)), spec)
        lower, _ = ladder_ops(spec)
        with pytest.raises(ValueError, match="^jump rates must be non-negative$"):
            LindbladSpec(zero_h, [(lower, math.nan)], duration=1.0, dt=0.1)
        for duration in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^need 0 < dt <= duration < inf$"):
                LindbladSpec(zero_h, [(lower, 1.0)], duration=duration, dt=0.1)

    def test_rejects_jumps_of_another_dim(self):
        h = LinearOp(np.zeros((16, 16)), HilbertSpec(16))
        lower, _ = ladder_ops(HilbertSpec(32))
        with pytest.raises(ValueError, match=r"^jump operator has dim 32, the Hamiltonian has dim 16$"):
            LindbladSpec(h, [(lower, 1.0)], duration=1.0, dt=0.1)

    def test_spec_keeps_its_own_jumps(self):
        # A rate made negative in the caller's list after validation must not reach the propagator.
        space = HilbertSpec(8)
        lower, _ = ladder_ops(space)
        jumps = [(lower, 1.0)]
        spec = LindbladSpec(LinearOp(np.zeros((8, 8)), space), jumps, duration=1.0, dt=0.1)
        jumps.append((lower, -50_000.0))
        jumps[0] = (lower, 2.0)
        assert spec.jumps == ((lower, 1.0),)

    @pytest.mark.parametrize("rho_dim, h_dim", [(32, 16), (16, 32)])
    def test_rejects_state_of_another_dim(self, rho_dim, h_dim):
        h_spec = HilbertSpec(h_dim)
        lower, _ = ladder_ops(h_spec)
        spec = LindbladSpec(LinearOp(np.zeros((h_dim, h_dim)), h_spec), [(lower, 1.0)], duration=1.0, dt=0.1)
        rho = fock_state(1, HilbertSpec(rho_dim)).to_mixed()
        with pytest.raises(ValueError, match=rf"^rho has dim {rho_dim}, the Hamiltonian has dim {h_dim}$"):
            lindblad_evolve(rho, spec)


def test_propagation_loads_no_sparse_linalg():
    # scipy.sparse.csgraph imports scipy.sparse.linalg, and both that and
    # scipy.linalg cost megabytes of memory and tens of milliseconds, which
    # propagation must not pay.  The block propagator (cavity dim 8) loads
    # no scipy.sparse at all; the Taylor path (cavity dim 24) loads only it.
    code = (
        "import sys, fockmet\n"
        "from fockmet import DeviceParams, HilbertSpec, LindbladSpec, lindblad_evolve\n"
        "from fockmet.noise import qubit_cavity_parity_setup\n"
        "params = DeviceParams()\n"
        "for dim in (8, 24):\n"
        "    rho, h, jumps = qubit_cavity_parity_setup(1, 0.1, params, HilbertSpec(dim, 0))\n"
        "    lindblad_evolve(rho, LindbladSpec(h, jumps, duration=params.T_M, dt=params.T_M))\n"
        "    names = ('scipy.sparse', 'scipy.sparse.csgraph', 'scipy.sparse.linalg', 'scipy.linalg')\n"
        "    print([m for m in names if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "['scipy.sparse']"]


def test_import_loads_no_scipy():
    code = "import sys, fockmet; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_duration_in_seconds_raises_before_any_product():
    # T = 1 s where the rates expect T_M = 1.6 us: 298,586 substeps.
    params = DeviceParams()
    rho, h, jumps = qubit_cavity_parity_setup(1, 0.1, params, HilbertSpec(4, 0))
    _clear_caches()
    start = time.perf_counter()
    with pytest.raises(SubstepLimitError, match=r"duration 1 gives \|\|T L\|\|_1 = 2\.9"):
        lindblad_evolve(rho, LindbladSpec(h, jumps, duration=1.0, dt=1.0))
    assert time.perf_counter() - start < 1.0
    assert _cached() == 0


def _parity_model(beta=0.2, scale=0.1, dim=8):
    """State, H, jumps and window of the parity readout at N = 2."""
    params = _scaled_params(scale)
    rho, h, jumps = qubit_cavity_parity_setup(2, beta, params, HilbertSpec(dim, 0))
    return rho, h, jumps, params.T_M


def _noise_outputs(rho, h, jumps, t):
    """Bytes of the evolved state and of the first-order term."""
    evolved = lindblad_evolve(rho, LindbladSpec(h, jumps, duration=t, dt=t))
    rho1 = perturbation_first_order(unitary_evolution(rho, h), h, jumps, t)
    return evolved.matrix.tobytes(), rho1.tobytes()


_CACHES = (noise._propagator, noise._first_order_map)


def _clear_caches():
    for cache in (*_CACHES, noise._eigh):
        cache.cache_clear()


def _cached() -> int:
    """Entries held by the generator caches of ``lindblad_evolve`` and ``perturbation_first_order``."""
    return sum(cache.cache_info().currsize for cache in _CACHES)


def _cold_outputs(*model):
    _clear_caches()
    return _noise_outputs(*model)


def _counted_outputs(*model):
    """``_noise_outputs`` and the (hits, misses) that each generator cache gained in it."""
    before = [cache.cache_info() for cache in _CACHES]
    out = _noise_outputs(*model)
    after = [cache.cache_info() for cache in _CACHES]
    return out, [(a.hits - b.hits, a.misses - b.misses) for a, b in zip(after, before)]


class TestGeneratorMemo:
    @pytest.mark.parametrize("beta", [0.12, 0.2, 0.28])
    def test_warm_call_is_bitwise_the_cold_call(self, beta):
        model = _parity_model(beta)
        cold = _cold_outputs(*model)
        assert _cached() == 2
        _noise_outputs(*_parity_model(0.5 * beta))  # same generator, another state
        assert _noise_outputs(*model) == cold
        assert _cached() == 2

    @pytest.mark.parametrize("change", ["rate", "hamiltonian-entry", "jump-matrix", "duration"])
    def test_changed_generator_misses(self, change):
        rho, h, jumps, t = _parity_model()
        if change == "rate":
            jumps = [jumps[0], (jumps[1][0], 2.0 * jumps[1][1]), *jumps[2:]]
        elif change == "hamiltonian-entry":
            matrix = h.matrix.copy()
            matrix[-1, -1] *= 1.5
            h = LinearOp(matrix, h.spec)
        elif change == "jump-matrix":
            op, rate = jumps[2]
            jumps = [*jumps[:2], (LinearOp(0.5 * op.matrix, op.spec), rate), jumps[3]]
        else:
            t = 0.9 * t
        cold = _cold_outputs(rho, h, jumps, t)
        _clear_caches()
        base = _noise_outputs(*_parity_model())
        assert _noise_outputs(rho, h, jumps, t) == cold != base
        assert _cached() == 4

    def test_memo_is_bounded(self):
        _clear_caches()
        for k in range(20):
            _noise_outputs(*_parity_model(scale=0.1 * (1 + k / 20)))
            assert _cached() <= 4
        assert [(cache.cache_info().maxsize, cache.cache_info().currsize) for cache in _CACHES] == [(2, 2), (2, 2)]

    def test_mutated_operator_misses(self):
        # LinearOp keeps its own copy, so writing the base of the view it was
        # given leaves it (and its cache hit) as it was; an operator built on
        # the changed bytes misses.
        rho, h, jumps, t = _parity_model()
        base = np.array(h.matrix)
        ham = LinearOp(base[:], h.spec)
        cold = _cold_outputs(rho, ham, jumps, t)
        base[-1, -1] *= 1.5
        assert _noise_outputs(rho, ham, jumps, t) == cold
        assert _cached() == 2
        changed = LinearOp(base, h.spec)
        warm = _noise_outputs(rho, changed, jumps, t)
        assert _cached() == 4
        assert warm == _cold_outputs(rho, changed, jumps, t) != cold

    def test_same_operators_hit(self):
        _cold_outputs(*_parity_model())
        # The setup hands out the same operator objects for another beta.
        assert _counted_outputs(*_parity_model(0.1))[1] == [(1, 0), (1, 0)]

    def test_rebuilt_operator_with_equal_contents_misses(self):
        # An operator keys the caches by identity: a copy with the same
        # matrix is a new generator, built again to the same bytes.
        rho, h, jumps, t = _parity_model()
        cold = _cold_outputs(rho, h, jumps, t)
        rebuilt = LinearOp(h.matrix, h.spec)
        assert _counted_outputs(rho, rebuilt, jumps, t) == (cold, [(0, 1), (0, 1)])

    @pytest.mark.parametrize("N, beta", [(0, 0.0), (1, 0.12), (4, 0.28), (7, 0.5 + 0.3j)])
    def test_setup_state_is_plus_times_displaced_fock(self, N, beta):
        spec = HilbertSpec(24, 0)
        rho, _, _ = qubit_cavity_parity_setup(N, beta, _scaled_params(0.1), spec)
        psi = np.kron(np.array([1.0, 1.0]) / math.sqrt(2.0), displacement(beta, spec).apply(fock_state(N, spec)))
        assert np.array_equal(rho.matrix, np.outer(psi, psi.conj()))

    def test_setup_returns_a_new_jump_list(self):
        params = _scaled_params(0.1)
        spec = HilbertSpec(8, 0)
        _, _, jumps = qubit_cavity_parity_setup(2, 0.2, params, spec)
        jumps.append(jumps[0])
        _, _, again = qubit_cavity_parity_setup(2, 0.2, params, spec)
        assert len(again) == 4
        assert [rate for _, rate in again] == [params.kappa1, params.kappa2, params.kappa3, params.kappa4]

    def test_concurrent_calls_match_cold_calls(self):
        # Three generators in turn over four threads keep the caches missing,
        # evicting and hitting.
        models = [_parity_model(0.1 + 0.05 * k, scale=0.05 * (k + 1)) for k in range(3)]
        cold = [_cold_outputs(*model) for model in models]
        _clear_caches()
        failures = []

        def worker(offset):
            try:
                for k in range(12):
                    i = (k + offset) % len(models)
                    if _noise_outputs(*models[i]) != cold[i]:
                        failures.append(f"thread {offset}, generator {i}: differs from the cold call")
            except Exception as exc:
                failures.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert _cached() <= 4


def _taylor_pieces(h, jumps, t):
    """(op, shift, labels, substeps, eta) of the generator, as the Taylor path builds them."""
    op, shift, labels = _liouvillian_csr(h, jumps, t)
    steps = _steps(op)
    return op, shift, labels, steps, np.exp(shift / steps)


def _propagator_entry(h, jumps, t):
    """The cache entry that ``lindblad_evolve`` keeps for the generator of (h, jumps, t)."""
    hits = noise._propagator.cache_info().hits
    entry = noise._propagator(h, tuple(jumps), t)
    assert noise._propagator.cache_info().hits == hits + 1
    return entry


class TestBlockPropagator:
    @pytest.mark.parametrize("dim", [8, 16, 20])
    @pytest.mark.parametrize("scale", [0.1, 1.0])
    def test_matches_taylor_path_and_dense_expm_per_block(self, dim, scale):
        params = _scaled_params(scale)
        rho, h, jumps = qubit_cavity_parity_setup(2 if dim == 8 else 4, 0.2, params, HilbertSpec(dim, 0))
        t = params.T_M
        op, shift, labels, steps, eta = _taylor_pieces(h.matrix, jumps, t)
        assert labels.size * np.bincount(labels).max() <= noise.MAX_PROPAGATOR_SIZE
        vec = rho.matrix.reshape(-1)
        out = noise._block_propagator(*noise._liouvillian(h.matrix, jumps, t), t)(vec)
        assert np.max(np.abs(out - _expm_action(op, steps, eta, vec))) <= 1e-14
        generator = (op + sp.diags(shift)).tocsr()
        expected = np.zeros_like(vec)
        for label in np.unique(labels):
            block = np.flatnonzero(labels == label)
            expected[block] = expm(generator[block][:, block].toarray()) @ vec[block]
        assert np.max(np.abs(out - expected)) <= 1e-14

    def test_dense_generator_at_the_ceiling(self):
        # A dense H makes one block of all n = 256 entries: n * b_max = 2^16.
        dim = 16
        n = dim * dim
        spec = HilbertSpec(dim)
        h, jumps, rho0 = _random_model(dim)
        t = 1.0
        ham = LinearOp(h, spec)
        ops = [(LinearOp(l_mat, spec), rate) for l_mat, rate in jumps]
        _clear_caches()
        out = lindblad_evolve(MixedState(rho0, spec), LindbladSpec(ham, ops, duration=t, dt=t))
        entry = _propagator_entry(ham, ops, t)
        assert entry.func is noise._gather_sum
        pairs, cols, vals = entry.args
        rows = pairs[::2] // 2
        assert np.array_equal(pairs, noise._pair_index(rows))
        assert vals.size == n * n
        propagator = np.zeros((n, n), dtype=complex)
        propagator[rows, cols] = vals
        generator = _generator_by_columns(h, jumps) * t
        assert np.max(np.abs(propagator - expm(generator))) <= 1e-14
        expected = (expm(generator) @ rho0.reshape(-1)).reshape(dim, dim)
        assert np.max(np.abs(out.matrix - 0.5 * (expected + expected.conj().T))) <= 1e-14

    def test_past_the_ceiling_keeps_the_taylor_path(self):
        # Cavity dim 21: n = 1,764 and b_max = 42, so n * b_max = 74,088 > 2^16.
        params = _scaled_params(0.1)
        rho, h, jumps = qubit_cavity_parity_setup(4, 0.2, params, HilbertSpec(21, 0))
        t = params.T_M
        op, _, labels, steps, eta = _taylor_pieces(h.matrix, jumps, t)
        assert labels.size * np.bincount(labels).max() > noise.MAX_PROPAGATOR_SIZE
        _clear_caches()
        out = lindblad_evolve(rho, LindbladSpec(h, jumps, duration=t, dt=t))
        assert _propagator_entry(h, jumps, t).func is _expm_action
        state = _expm_action(op, steps, eta, rho.matrix.reshape(-1)).reshape(rho.matrix.shape)
        assert out.matrix.tobytes() == (0.5 * (state + state.conj().T)).tobytes()


def test_sum_at_is_bitwise_two_bincounts():
    rng = np.random.default_rng(11)
    index = rng.integers(0, 50, 3000)  # repeated bins, and bins 50..59 empty
    values = rng.normal(size=3000) * 10.0 ** rng.integers(-8, 8, 3000) + 1j * rng.normal(size=3000)
    expected = np.bincount(index, values.real, 60) + 1j * np.bincount(index, values.imag, 60)
    assert noise._sum_at(noise._pair_index(index), values, 60).tobytes() == expected.tobytes()


def _dense_model():
    """``_random_model(6)`` as operators: state, dense H, jumps and window."""
    h, jumps, rho0 = _random_model(6)
    spec = HilbertSpec(6)
    ops = [(LinearOp(m, spec), rate) for m, rate in jumps]
    return MixedState(rho0, spec), LinearOp(h, spec), ops, 0.4


class TestUnitaryEvolution:
    def test_shares_one_eigh_with_the_first_order_term(self):
        for model in (_parity_model, _dense_model):
            rho, h, jumps, t = model()
            _clear_caches()
            rho0_of_t = unitary_evolution(rho, h)
            for _ in range(2):
                perturbation_first_order(rho0_of_t, h, jumps, t)
            assert noise._eigh.cache_info().misses == 1
            assert noise._first_order_map.cache_info().misses == 1
            evals, vecs = noise._eigh(h)
            assert not evals.flags.writeable
            if model is _parity_model:
                assert vecs is None  # diagonal H: the eigenbasis is the basis, nothing to rotate
            else:
                assert not vecs.flags.writeable

    def test_dense_path_is_the_diagonal_path_in_a_rotated_basis(self):
        # The parity model's H is diagonal, with eigenvalue 0 seven-fold; turned
        # by a random unitary Q it takes the eigh path, whose results must be
        # the diagonal path's turned by Q.
        rho, h, jumps, t = _parity_model(dim=6)
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))

        def turn(m):
            return q @ m @ q.conj().T

        q_h = turn(h.matrix)
        q_h = LinearOp(0.5 * (q_h + q_h.conj().T), h.spec)  # Hermitian to the bit
        q_jumps = [(LinearOp(turn(op.matrix), h.spec), rate) for op, rate in jumps]
        _clear_caches()
        diagonal = unitary_evolution(rho, h)
        dense = unitary_evolution(MixedState(turn(rho.matrix), h.spec), q_h)
        assert noise._eigh(h)[1] is None and noise._eigh(q_h)[1] is not None
        for s in (0.0, 0.3 * t, t):
            assert np.max(np.abs(dense(s) - turn(diagonal(s)))) <= 1e-12
        rho1 = perturbation_first_order(diagonal, h, jumps, t)
        q_rho1 = perturbation_first_order(dense, q_h, q_jumps, t)
        assert np.max(np.abs(rho1)) > 1e-4
        assert np.max(np.abs(q_rho1 - turn(rho1))) <= 1e-12

    def test_parity_model_at_n100_runs_no_eigh(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(args) or eigh(*args))
        params = _scaled_params(0.1)
        rho, h, jumps = qubit_cavity_parity_setup(100, 0.2, params, default_spec(100))
        _clear_caches()
        rho0_of_t = unitary_evolution(rho, h)
        rho1 = perturbation_first_order(rho0_of_t, h, jumps, params.T_M)
        assert calls == []
        assert abs(np.trace(rho1)) < 1e-12 and np.max(np.abs(rho1)) > 1e-4
        # The cache keeps one weighted-triplet map, 40 B per triplet: 22.1 MiB here.
        apply = noise._first_order_map(h, tuple(jumps), params.T_M)
        assert sum(a.nbytes for a in apply.args) == 40 * 579_608

    def test_matches_expm(self):
        spec = HilbertSpec(8)
        h = number_op(spec)
        rho0 = coherent_state(1.0, default_spec(1)).to_mixed()
        # rebuild on the small spec
        amp = coherent_state(1.0, default_spec(1)).amplitudes[:8]
        amp = amp / np.linalg.norm(amp)
        rho0 = np.outer(amp, amp.conj())
        rho_of_t = unitary_evolution(MixedState(rho0, spec), h)
        t = 0.37
        u = expm(-1j * h.matrix * t)
        assert np.max(np.abs(rho_of_t(t) - u @ rho0 @ u.conj().T)) < 1e-12


@pytest.mark.parametrize("entry", ["unitary_evolution", "perturbation_first_order", "lindblad_evolve"])
def test_rejects_non_hermitian_hamiltonian(entry):
    # exp(-iH) of this H takes |1><1| to a matrix of trace 1.92, while eigh
    # reads one triangle and would give trace 1 without a word.
    spec = HilbertSpec(4)
    m = number_op(spec).matrix.copy()
    m[0, 1] = 1.0
    h = LinearOp(m, spec)
    rho = fock_state(1, spec).to_mixed()
    _clear_caches()
    message = r"^hamiltonian is not Hermitian: max\|H - H\^dag\| = 1\.00e\+00, max\|H\| = 3\.00e\+00$"
    with pytest.raises(ValueError, match=message):
        if entry == "unitary_evolution":
            unitary_evolution(rho, h)
        elif entry == "perturbation_first_order":
            perturbation_first_order(lambda t: rho.matrix, h, [(ladder_ops(spec)[0], 0.1)], 1.0)
        else:
            lindblad_evolve(rho, LindbladSpec(h, [(ladder_ops(spec)[0], 0.1)], duration=1.0, dt=1.0))


class TestFirstOrderAllocationGuard:
    def test_past_the_ceiling_raises_before_building(self, monkeypatch):
        # The dense H makes both rotated jumps dense: 2 * 36^2 triplets, plus
        # 2 * 6 * 36 for G, 3,024 in all.
        monkeypatch.setattr(noise, "MAX_COO_TERMS", 3023)
        h, jumps, rho0 = _random_model(6)
        _clear_caches()
        message = r"^the generator needs 3,024 COO triplets .* past the ceiling of 3,023$"
        with pytest.raises(AllocationLimitError, match=message):
            _first_order(h, jumps, rho0, 0.4)
        assert noise._first_order_map.cache_info().currsize == 0
        monkeypatch.setattr(noise, "MAX_COO_TERMS", 3024)
        rho1 = _first_order(h, jumps, rho0, 0.4)
        assert np.max(np.abs(rho1 - _dense_van_loan(h, jumps, rho0, 0.4))) <= 1e-12

    def test_parity_model_at_n400_is_far_below_the_ceiling(self, monkeypatch):
        # Both assemblies: the jump generator of the first-order term (H = 0)
        # and the Liouvillian of the propagator (the diagonal H).
        ceiling = noise.MAX_COO_TERMS
        _, h, jumps = qubit_cavity_parity_setup(400, 0.2, DeviceParams(), default_spec(400))
        plain = [(op.matrix, rate) for op, rate in jumps]
        monkeypatch.setattr(noise, "MAX_COO_TERMS", 0)
        for ham in (np.zeros_like(h.matrix), h.matrix):
            with pytest.raises(AllocationLimitError) as info:
                noise._lindblad_coo(ham, plain)
            terms = int(re.search(r"needs ([\d,]+) COO", str(info.value)).group(1).replace(",", ""))
            assert 5e6 < terms < ceiling / 6


class TestPropagatorAllocationGuard:
    def test_past_the_ceiling_raises_before_building(self, monkeypatch):
        # Dense H and G: 2 * 36 * 6 triplets for -iH - G and iH - G, then
        # 36^2 for the non-normal jump and 6^2 for the diagonal one, 1,764 in all.
        h, jumps, rho0 = _random_model(6)
        spec = HilbertSpec(6)
        ops = [(LinearOp(l_mat, spec), rate) for l_mat, rate in jumps]
        lspec = LindbladSpec(LinearOp(h, spec), ops, duration=0.4, dt=0.4)
        rho = MixedState(rho0, spec)
        monkeypatch.setattr(noise, "MAX_COO_TERMS", 1763)
        _clear_caches()
        message = r"^the generator needs 1,764 COO triplets .* past the ceiling of 1,763$"
        with pytest.raises(AllocationLimitError, match=message):
            lindblad_evolve(rho, lspec)
        assert noise._propagator.cache_info().currsize == 0
        monkeypatch.setattr(noise, "MAX_COO_TERMS", 1764)
        out = lindblad_evolve(rho, lspec)
        exact = (expm(0.4 * _generator_by_columns(h, jumps)) @ rho0.reshape(-1)).reshape(6, 6)
        assert np.max(np.abs(out.matrix - exact)) <= 1e-12


class TestPerturbationFirstOrder:
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_window_before_any_cache_lookup(self, t):
        # At the parent a NaN window gave an all-NaN rho1 and an infinite one only warned.
        rho, h, jumps, _ = _parity_model()
        rho0_of_t = unitary_evolution(rho, h)
        _clear_caches()
        with pytest.raises(ValueError, match=f"^T must be finite, got {t}$"):
            perturbation_first_order(rho0_of_t, h, jumps, t)
        for cache in (noise._eigh, noise._first_order_map):
            info = cache.cache_info()
            assert info.hits == info.misses == 0

    def test_correction_is_traceless_and_small(self):
        params = _scaled_params(0.02)
        spec = HilbertSpec(12, 0)
        rho, h, jumps = qubit_cavity_parity_setup(2, 0.2, params, spec)
        rho0_of_t = unitary_evolution(rho, h)
        rho1 = perturbation_first_order(rho0_of_t, h, jumps, params.T_M, num_points=501)
        assert abs(np.trace(rho1)) < 1e-10
        assert np.max(np.abs(rho1)) < 0.05

    def test_matches_integrator_at_small_rates(self):
        params = _scaled_params(0.02)
        spec = HilbertSpec(12, 0)
        rho, h, jumps = qubit_cavity_parity_setup(2, 0.2, params, spec)
        rho0_of_t = unitary_evolution(rho, h)
        rho1 = perturbation_first_order(rho0_of_t, h, jumps, params.T_M, num_points=501)
        evolved = lindblad_evolve(
            rho, LindbladSpec(h, jumps, duration=params.T_M, dt=params.T_M / 2000)
        )
        approx = rho0_of_t(params.T_M) + rho1
        assert np.max(np.abs(evolved.matrix - approx)) < 1e-5

    def test_matches_dense_van_loan_block(self):
        h, jumps, rho0 = _random_model(6)
        rho1 = _first_order(h, jumps, rho0, 0.4)
        assert np.max(np.abs(rho1 - _dense_van_loan(h, jumps, rho0, 0.4))) <= 1e-12

    def test_degenerate_spectrum_matches_dense_van_loan_block(self):
        # H is diagonal with eigenvalue 0 thirteen-fold (the whole |g> block and |e, 0>).
        params = _scaled_params(0.1)
        rho, h, jumps = qubit_cavity_parity_setup(2, 0.2, params, HilbertSpec(12, 0))
        assert np.count_nonzero(np.diag(h.matrix) == 0) == 13
        rho1 = perturbation_first_order(unitary_evolution(rho, h), h, jumps, params.T_M)
        plain = [(op.matrix, rate) for op, rate in jumps]
        expected = _dense_van_loan(h.matrix, plain, rho.matrix, params.T_M)
        assert np.max(np.abs(rho1 - expected)) <= 1e-15

    def test_zero_hamiltonian_is_linear_in_t(self):
        # Every Bohr-frequency difference vanishes, so rho1 = T L1[rho0].
        _, jumps, rho0 = _random_model(6)
        h = np.zeros((6, 6))
        expected = 0.4 * (_generator_by_columns(h, jumps) @ rho0.reshape(-1)).reshape(6, 6)
        assert np.max(np.abs(_first_order(h, jumps, rho0, 0.4) - expected)) <= 1e-15

    def test_near_degenerate_spectrum_matches_dense_van_loan_block(self):
        # Eigenvalue gaps of about 1e-9 / T put every x near 0, where
        # (e^{ix} - 1)/x would cancel.
        _, jumps, rho0 = _random_model(6)
        t = 0.4
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(6, 6)))
        h = q @ np.diag(np.arange(6) * 1e-9 / t) @ q.T
        rho1 = _first_order(h, jumps, rho0, t)
        assert np.max(np.abs(rho1 - _dense_van_loan(h, jumps, rho0, t))) <= 1e-12

    def test_rejects_mismatched_hamiltonian(self):
        params = _scaled_params(0.02)
        spec = HilbertSpec(6, 0)
        rho, h, jumps = qubit_cavity_parity_setup(2, 0.2, params, spec)
        rho0_of_t = unitary_evolution(rho, h)
        doubled = LinearOp(2.0 * h.matrix, h.spec)
        with pytest.raises(ValueError, match="unitary evolution"):
            perturbation_first_order(rho0_of_t, doubled, jumps, params.T_M)

    def test_rejects_operators_of_another_dim(self):
        params = DeviceParams()
        rho, h, jumps = qubit_cavity_parity_setup(1, 0.1, params, HilbertSpec(8, 0))
        wide_rho, wide_h, wide_jumps = qubit_cavity_parity_setup(1, 0.1, params, HilbertSpec(16, 0))
        with pytest.raises(ValueError, match=r"^jump operator has dim 32, the Hamiltonian has dim 16$"):
            perturbation_first_order(unitary_evolution(rho, h), h, wide_jumps, params.T_M)
        with pytest.raises(ValueError, match=r"^rho0_of_t\(0\) has dim 32, the Hamiltonian has dim 16$"):
            perturbation_first_order(unitary_evolution(wide_rho, wide_h), h, jumps, params.T_M)

    def test_rejects_negative_rates(self):
        params = DeviceParams()
        rho, h, jumps = qubit_cavity_parity_setup(1, 0.1, params, HilbertSpec(8, 0))
        negated = [(op, -rate) for op, rate in jumps]
        with pytest.raises(ValueError, match=r"^jump rates must be non-negative$"):
            perturbation_first_order(unitary_evolution(rho, h), h, negated, params.T_M)

    def test_rejects_nan_rates(self):
        params = DeviceParams()
        rho, h, jumps = qubit_cavity_parity_setup(1, 0.1, params, HilbertSpec(8, 0))
        poisoned = [(op, math.nan) for op, _ in jumps]
        with pytest.raises(ValueError, match=r"^jump rates must be non-negative$"):
            perturbation_first_order(unitary_evolution(rho, h), h, poisoned, params.T_M)

    def test_warns_outside_validity(self):
        spec = HilbertSpec(4, 0)
        rho, h, jumps = qubit_cavity_parity_setup(1, 0.1, DeviceParams(), spec)
        strong = [(op, 1e6) for op, _ in jumps[:1]]
        rho0_of_t = unitary_evolution(rho, h)
        with pytest.warns(UserWarning):
            perturbation_first_order(rho0_of_t, h, strong, 1e-6, num_points=11)


class TestNoisyParity:
    def test_reduces_to_ideal_without_noise(self):
        params = DeviceParams(kappa1=0.0, kappa3=0.0, kappa4=0.0)
        for n, beta in ((0, 0.0), (3, 0.4), (8, 1.0)):
            assert parity_prob_noisy(n, beta, params) == pytest.approx(
                parity_curve_ideal(n, beta), abs=1e-14
            )

    def test_matches_full_simulation(self):
        params = _scaled_params(0.1)
        spec = HilbertSpec(16, 0)
        rho, h, jumps = qubit_cavity_parity_setup(4, 0.2, params, spec)
        evolved = lindblad_evolve(
            rho, LindbladSpec(h, jumps, duration=params.T_M, dt=params.T_M / 4000)
        )
        p_sim = parity_readout_probability(evolved)
        p_model = parity_prob_noisy(4, 0.2, params)
        assert abs(p_sim - p_model) < 5e-4

    @pytest.mark.parametrize("n, dim", [(1, 12), (4, 16), (10, 24)])
    def test_gap_to_full_simulation_is_second_order(self, n, dim):
        # An exact first-order term leaves a gap of order (kappa T)^2, so
        # halving every rate divides it by 4; a first-order error divides it by 2.
        gaps = []
        for scale in (0.1, 0.05):
            params = _scaled_params(scale)
            gap = 0.0
            for beta in np.linspace(0.0, 0.6, 7):
                rho, h, jumps = qubit_cavity_parity_setup(n, beta, params, HilbertSpec(dim, 0))
                evolved = lindblad_evolve(
                    rho, LindbladSpec(h, jumps, duration=params.T_M, dt=params.T_M)
                )
                p_sim = parity_readout_probability(evolved)
                gap = max(gap, abs(p_sim - parity_prob_noisy(n, beta, params)))
            gaps.append(gap)
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5


class TestClosedFormModels:
    def test_displacement_dephasing_bias_value(self):
        params = DeviceParams()
        n, beta = 4, 0.1
        expected = params.kappa2 * params.T_D * beta**2 * n**3 / 3.0
        assert displacement_dephasing_bias(n, beta, params) == pytest.approx(expected)

    def test_displacement_dephasing_bias_warns(self):
        params = DeviceParams()
        with pytest.warns(UserWarning):
            displacement_dephasing_bias(50, 0.5, params)

    def test_toy_model_lambdas(self):
        p = DeviceParams()
        r = toy_model(10, p)
        l1 = 10 * p.kappa1 * p.T_i + 5 * p.kappa1 * p.T_M + 0.25 * (p.kappa3 + p.kappa4) * p.T_M
        assert r.lambda1 == pytest.approx(l1)
        assert r.fisher == pytest.approx((1 - r.lambda2) ** 2 * 80)
        assert r.precision == pytest.approx(1 / math.sqrt(r.fisher))

    @pytest.mark.parametrize("scale", [0.01, 0.1, 1.0, 3.0])
    def test_toy_model_is_bitwise_the_four_term_sum(self, scale):
        # The reference writes lambda2 as its four terms, one by one, and
        # takes the gain over sql_baselines; it returns the breakdown message
        # past the model's validity.
        def reference(n, p):
            k1, k2, k3, k4 = p.kappa1, p.kappa2, p.kappa3, p.kappa4
            t_i, t_m, t_d = p.T_i, p.T_M, p.T_D
            lambda1 = n * k1 * t_i + 0.5 * n * k1 * t_m + 0.25 * (k3 + k4) * t_m
            lambda2 = (
                2.0 * n * k1 * t_i
                + n * k1 * t_m
                + 0.5 * (k3 + k4) * t_m
                + k2 * t_d * n * n / 6.0
            )
            if lambda2 >= 1.0:
                return f"lambda2 = {lambda2:.3g} >= 1 at N = {n}"
            fisher = (1.0 - lambda2) ** 2 * 8.0 * n
            precision = 1.0 / math.sqrt(fisher)
            return lambda1, lambda2, fisher, precision, gain_db_from_precision(sql_baselines(n)[0], precision)

        p = _scaled_params(scale)
        n = 1
        while isinstance(expected := reference(n, p), tuple):
            assert [x.hex() for x in toy_model(n, p)] == [x.hex() for x in expected]
            n += 1
        assert n > 1
        with pytest.raises(ModelBreakdownError, match=f"^{re.escape(expected)}$"):
            toy_model(n, p)

    def test_toy_model_result_contract(self):
        r = ToyModelResult(1.0, 2.0, 3.0, 4.0, 5.0)
        assert ToyModelResult._fields == ("lambda1", "lambda2", "fisher", "precision", "gain_db")
        same = ToyModelResult(1.0, 2.0, 3.0, 4.0, 5.0)
        assert r == same and hash(r) == hash(same)
        assert r != r._replace(gain_db=6.0)
        assert repr(r) == "ToyModelResult(lambda1=1.0, lambda2=2.0, fisher=3.0, precision=4.0, gain_db=5.0)"
        with pytest.raises(AttributeError):
            r.lambda1 = 0.0

    def test_toy_model_breakdown(self):
        with pytest.raises(ModelBreakdownError):
            toy_model(400, DeviceParams())
        with pytest.raises(ValueError):
            toy_model(0, DeviceParams())

    def test_init_fidelity(self):
        p = DeviceParams()
        assert init_fidelity_model(10, p) == pytest.approx(1 - 10 * p.kappa1 * p.T_i)
        with pytest.raises(ModelBreakdownError):
            init_fidelity_model(10**6, p)
