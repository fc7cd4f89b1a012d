"""Truncated Fock-space layer against scipy oracles and exact identities."""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, eval_laguerre, factorial, gammaln
from scipy.stats import poisson

from fockmet import (
    HilbertSpec,
    InteriorAccuracyError,
    MixedState,
    PureState,
    TruncationError,
    coherent_state,
    default_spec,
    displacement,
    fock_state,
    ladder_ops,
    number_op,
    parity_expectation,
    parity_op,
    phase_generator,
    qfi_pure,
    wigner_value,
)
from fockmet.fockspace import displaced_state


def _column_defect(mat: np.ndarray, cols: int) -> float:
    """max |(U^dag U - I)[i, j]| over the first ``cols`` columns."""
    block = mat[:, :cols].conj().T @ mat[:, :cols]
    return float(np.max(np.abs(block - np.eye(cols))))


class TestHilbertSpec:
    def test_rejects_tiny_dim(self):
        with pytest.raises(ValueError):
            HilbertSpec(dim=1)

    def test_rejects_bad_guard(self):
        with pytest.raises(ValueError):
            HilbertSpec(dim=8, guard=8)
        with pytest.raises(ValueError):
            HilbertSpec(dim=8, guard=-1)

    def test_interior(self):
        assert HilbertSpec(dim=32, guard=8).interior == 24

    def test_default_spec_rule(self):
        spec = default_spec(100)
        assert spec.dim == 100 + math.ceil(6.0 * math.sqrt(100)) + 20
        assert spec.guard == (spec.dim - 100) // 2


class TestStates:
    def test_fock_state_basis_vector(self):
        spec = HilbertSpec(10)
        st = fock_state(3, spec)
        assert st.amplitudes[3] == 1.0
        assert st.norm == pytest.approx(1.0)
        assert st.mean_photon_number() == pytest.approx(3.0)
        assert st.photon_number_std() == pytest.approx(0.0, abs=1e-12)

    def test_fock_state_out_of_range(self):
        with pytest.raises(ValueError):
            fock_state(10, HilbertSpec(10))

    def test_amplitudes_are_immutable(self):
        st = fock_state(0, HilbertSpec(4))
        with pytest.raises(ValueError):
            st.amplitudes[0] = 0.5

    def test_coherent_matches_poisson(self):
        alpha = 1.7
        spec = default_spec(int(alpha**2) + 1)
        st = coherent_state(alpha, spec)
        expected = poisson.pmf(np.arange(spec.dim), alpha**2)
        assert np.max(np.abs(st.populations() - expected)) < 1e-12
        assert st.mean_photon_number() == pytest.approx(alpha**2, rel=1e-10)
        assert st.photon_number_std() == pytest.approx(alpha, rel=1e-10)

    def test_coherent_truncation_error(self):
        with pytest.raises((TruncationError, InteriorAccuracyError)):
            coherent_state(3.0, HilbertSpec(12))

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            PureState.normalized(np.zeros(4), HilbertSpec(4))

    def test_mixed_state_check_physical(self):
        spec = HilbertSpec(4)
        fock_state(2, spec).to_mixed().check_physical()
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            MixedState(bad, spec).check_physical()
        with pytest.raises(ValueError):
            MixedState(2.0 * np.eye(4) / 4.0 * 3.0, spec).check_physical()


class TestOperators:
    def test_ladder_action(self):
        spec = HilbertSpec(12)
        lower, upper = ladder_ops(spec)
        for n in range(1, 11):
            amp = lower.apply(fock_state(n, spec))
            assert amp[n - 1] == pytest.approx(math.sqrt(n))
        amp = upper.apply(fock_state(4, spec))
        assert amp[5] == pytest.approx(math.sqrt(5))

    def test_commutator_on_interior(self):
        spec = HilbertSpec(20, guard=4)
        lower, upper = ladder_ops(spec)
        comm = (lower @ upper).matrix - (upper @ lower).matrix
        k = spec.interior
        assert np.max(np.abs(comm[:k, :k] - np.eye(k))) < 1e-12

    def test_number_op_from_ladders(self):
        spec = HilbertSpec(16)
        lower, upper = ladder_ops(spec)
        assert np.allclose((upper @ lower).matrix, number_op(spec).matrix)

    def test_parity_expectation_on_fock(self):
        spec = HilbertSpec(9)
        for n in range(9):
            val = parity_expectation(fock_state(n, spec).to_mixed())
            assert val == pytest.approx((-1.0) ** n)
        assert np.allclose(np.diag(parity_op(spec).matrix), (-1.0) ** np.arange(9))


class TestDisplacement:
    def test_matches_expm_oracle(self):
        spec = HilbertSpec(60, guard=20)
        beta = 0.7 + 0.3j
        lower, upper = ladder_ops(spec)
        oracle = expm(beta * upper.matrix - np.conj(beta) * lower.matrix)
        mine = displacement(beta, spec).matrix
        k = spec.interior
        assert np.max(np.abs(mine[:k, :k] - oracle[:k, :k])) < 1e-10

    def test_first_row_closed_form(self):
        spec = HilbertSpec(30)
        beta = 0.9 - 0.4j
        row = displacement(beta, spec).matrix[0]
        n = np.arange(30)
        expected = (-np.conj(beta)) ** n / np.sqrt(factorial(n)) * math.exp(-abs(beta) ** 2 / 2)
        assert np.max(np.abs(row - expected)) < 1e-13

    def test_displaced_vacuum_is_coherent(self):
        spec = default_spec(6)
        alpha = 1.3 + 0.2j
        disp = displaced_state(alpha, fock_state(0, spec))
        coh = coherent_state(alpha, spec)
        assert abs(disp.overlap(coh)) == pytest.approx(1.0, abs=1e-10)

    def test_inverse_is_negative_displacement(self):
        spec = HilbertSpec(64, guard=24)
        d_plus = displacement(0.8, spec)
        d_minus = displacement(-0.8, spec)
        k = spec.interior
        prod = (d_minus @ d_plus).matrix
        assert np.max(np.abs(prod[:k, :k] - np.eye(k))) < 1e-10

    def test_interior_check_raises_when_guard_too_small(self):
        # beta = 3 leaks far beyond a 4-level guard band
        spec = HilbertSpec(64, guard=4)
        with pytest.raises(InteriorAccuracyError):
            displacement(3.0, spec, check_interior=True)

    def test_amplitude_too_large_for_dim(self):
        with pytest.raises(InteriorAccuracyError):
            displacement(5.0, HilbertSpec(32))

    def test_low_columns_unitary_at_large_amplitude(self):
        # The first 60 columns of D(5) stay far from the edge of dim 244.
        assert _column_defect(displacement(5.0, HilbertSpec(244)).matrix, 60) <= 1e-12

    def test_elements_match_laguerre_closed_form_at_n_400(self):
        spec = default_spec(400)
        beta = np.exp(0.7j)  # |beta| = 1
        x = abs(beta) ** 2
        mat = displacement(beta, spec).matrix
        worst = 0.0
        for n in range(360, 441):
            k = np.arange(60)
            # <n+k|D|n> = sqrt(n!/(n+k)!) beta^k e^{-x/2} L_n^(k)(x)
            ref = np.exp(0.5 * (gammaln(n + 1) - gammaln(n + k + 1)) - x / 2) * beta**k
            ref = ref * eval_genlaguerre(n, k, x)
            worst = max(worst, np.max(np.abs(mat[n + k, n] - ref)))
            worst = max(worst, np.max(np.abs(mat[n, n + k] - (-1.0) ** k * np.conj(ref))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("beta", [1e-3, 0.05, 0.3, 1.0])
    def test_interior_unitary_at_n_400(self, beta):
        assert displacement(beta, default_spec(400)).interior_unitarity_defect() <= 1e-11

    def test_finite_and_unitary_at_amplitude_limit(self):
        beta = 15.0 + 5.0j  # |beta|^2 = 250 = dim / 4, the largest allowed
        mat = displacement(beta, HilbertSpec(1000)).matrix
        assert np.all(np.isfinite(mat))
        assert _column_defect(mat, 60) <= 1e-12

    @pytest.mark.parametrize("N", [50, 100])
    def test_displaced_fock_phase_qfi(self, N):
        # Var(n) of D(sqrt N)|N> is N (2N + 1).
        spec = HilbertSpec(6 * N, 100)
        probe = displaced_state(math.sqrt(N), fock_state(N, spec))
        assert qfi_pure(phase_generator(spec), probe) == pytest.approx(4 * N * (2 * N + 1), rel=1e-9)


class TestWigner:
    def test_vacuum_gaussian(self):
        spec = default_spec(4)
        rho = fock_state(0, spec).to_mixed()
        for alpha in (0.0, 0.5, 1.0 + 0.5j):
            expected = (2.0 / math.pi) * math.exp(-2.0 * abs(alpha) ** 2)
            assert wigner_value(rho, alpha) == pytest.approx(expected, abs=1e-10)

    def test_fock_origin_value(self):
        spec = default_spec(7)
        rho = fock_state(7, spec).to_mixed()
        assert wigner_value(rho, 0.0) == pytest.approx(-2.0 / math.pi, abs=1e-10)

    def test_fock_400_matches_cahill_glauber(self):
        # W(alpha) = (2/pi) (-1)^N exp(-2|alpha|^2) L_N(4|alpha|^2)
        rho = fock_state(400, default_spec(400)).to_mixed()
        expected = (2.0 / math.pi) * math.exp(-2.0) * eval_laguerre(400, 4.0)
        assert abs(wigner_value(rho, 1.0) - expected) <= 1e-12
