"""Lindblad propagation, perturbative correction, and closed-form error models."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from fockmet import (
    DeviceParams,
    HilbertSpec,
    LindbladSpec,
    LinearOp,
    MixedState,
    ModelBreakdownError,
    coherent_state,
    default_spec,
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
from fockmet.metrology import parity_curve_ideal
from fockmet.noise import (
    _liouvillian,
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
        liou = _liouvillian(h, [(LinearOp(l_mat, spec), rate) for l_mat, rate in jumps])
        assert np.max(np.abs(liou.toarray() - _generator_by_columns(h, jumps))) <= 1e-14
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

    def test_matches_dense_liouvillian_expm(self):
        dim = 6
        spec = HilbertSpec(dim)
        h, jumps, rho0 = _random_model(dim)
        t = 1.3
        expected = (expm(_generator_by_columns(h, jumps) * t) @ rho0.reshape(-1)).reshape(dim, dim)

        out = lindblad_evolve(
            MixedState(rho0, spec),
            LindbladSpec(
                LinearOp(h, spec),
                [(LinearOp(l_mat, spec), rate) for l_mat, rate in jumps],
                duration=t,
                dt=t,
            ),
        )
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

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


class TestUnitaryEvolution:
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


class TestPerturbationFirstOrder:
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
