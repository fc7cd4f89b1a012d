"""Photon-number filters, Fock preparation, Ramsey and spectroscopy signals."""

import math

import numpy as np
import pytest
from scipy.stats import poisson

from fockmet import (
    DeviceParams,
    FilterKind,
    FilterSpec,
    FilterStarvationError,
    HilbertSpec,
    binary_fock_schedule,
    coherent_state,
    default_fock_schedule,
    default_spec,
    fock_state,
    gaussian_filter,
    gaussian_pnf,
    gaussian_sigma_from_pulse,
    generalized_filter,
    prepare_fock,
    ramsey_trace,
    resolve_photon_cascade,
    sinusoidal_filter,
    sinusoidal_pnf,
    spectroscopy_signal,
)
from fockmet.composite import apply_filter, photon_detuning_hz, ramsey_sandwich_circuit


class TestDeviceParams:
    def test_defaults_are_consistent(self):
        p = DeviceParams()
        assert p.chi_qc == pytest.approx(2 * math.pi * 0.626e6)
        assert p.kappa1 == pytest.approx(1 / 1.2e-3)
        assert p.T_M == pytest.approx(1600e-9)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            DeviceParams(kappa1=-1.0)

    def test_rejects_bad_readout_fidelity(self):
        with pytest.raises(ValueError):
            DeviceParams(readout_fidelity=0.4)


class TestFilterSpec:
    def test_sinusoidal_requires_theta_in_range(self):
        with pytest.raises(ValueError):
            sinusoidal_filter(0, 0.0)
        with pytest.raises(ValueError):
            sinusoidal_filter(0, 7.0)

    def test_gaussian_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            gaussian_filter(0, 0.0)

    def test_rejects_negative_target(self):
        with pytest.raises(ValueError):
            FilterSpec(FilterKind.GAUSSIAN, -1, sigma=1.0)


class TestSinusoidalFilter:
    def test_branch_probabilities_sum_to_one(self):
        spec = default_spec(10)
        st = coherent_state(math.sqrt(10), spec)
        out = sinusoidal_pnf(st, sinusoidal_filter(10, math.pi / 2))
        assert out.p_g + out.p_e == pytest.approx(1.0, abs=1e-12)

    def test_fock_input_weights(self):
        spec = HilbertSpec(16)
        theta = math.pi / 3
        for n in (0, 3, 7):
            out = sinusoidal_pnf(fock_state(n, spec), sinusoidal_filter(2, theta))
            assert out.p_g == pytest.approx(math.cos((n - 2) * theta / 2) ** 2, abs=1e-12)

    def test_circuit_matches_amplitude_profile(self):
        spec = default_spec(10)
        st = coherent_state(math.sqrt(10), spec)
        fspec = sinusoidal_filter(10, math.pi / 2)
        ideal = sinusoidal_pnf(st, fspec)
        circ = ramsey_sandwich_circuit(st, fspec)
        assert circ.p_g == pytest.approx(ideal.p_g, abs=1e-12)
        assert np.max(
            np.abs(np.abs(circ.branch_g.amplitudes) - np.abs(ideal.branch_g.amplitudes))
        ) < 1e-12

    def test_generalized_circuit_matches_profile(self):
        spec = default_spec(6)
        st = coherent_state(math.sqrt(6), spec)
        fspec = generalized_filter(6, math.pi / 2, 0.7)
        ideal = sinusoidal_pnf(st, fspec)
        circ = ramsey_sandwich_circuit(st, fspec)
        assert circ.p_g == pytest.approx(ideal.p_g, abs=1e-12)
        assert np.max(
            np.abs(np.abs(circ.branch_g.amplitudes) - np.abs(ideal.branch_g.amplitudes))
        ) < 1e-12

    def test_pi_filter_projects_parity(self):
        spec = default_spec(4)
        st = coherent_state(2.0, spec)
        out = sinusoidal_pnf(st, sinusoidal_filter(4, math.pi))
        pops = out.branch_g.populations()
        # target 4 is even: all odd components must vanish
        assert np.max(pops[1::2]) < 1e-24

    def test_rejects_gaussian_kind(self):
        spec = HilbertSpec(8)
        with pytest.raises(ValueError):
            sinusoidal_pnf(fock_state(0, spec), gaussian_filter(0, 1.0))


class TestGaussianFilter:
    def test_narrows_photon_distribution(self):
        spec = default_spec(50)
        st = coherent_state(math.sqrt(50), spec)
        out = gaussian_pnf(st, gaussian_filter(50, 0.9))
        assert out.branch_g.photon_number_std() < st.photon_number_std()

    def test_starvation_raises(self):
        spec = default_spec(2)
        with pytest.raises(FilterStarvationError):
            gaussian_pnf(fock_state(0, spec), gaussian_filter(30, 0.5))

    def test_sigma_from_pulse(self):
        p = DeviceParams()
        sigma = gaussian_sigma_from_pulse(800e-9, p.chi_qc)
        assert sigma == pytest.approx(2 * math.sqrt(2) / (p.chi_qc * 800e-9))

    def test_rejects_sinusoidal_kind(self):
        spec = HilbertSpec(8)
        with pytest.raises(ValueError):
            gaussian_pnf(fock_state(0, spec), sinusoidal_filter(0, math.pi))


class TestPrepareFock:
    def test_binary_schedule_reaches_target(self):
        spec = default_spec(10)
        state, p, fid = prepare_fock(10, binary_fock_schedule(10, 4), spec)
        assert fid > 0.999
        assert 0.0 < p < 1.0
        assert state.mean_photon_number() == pytest.approx(10.0, abs=0.05)

    def test_default_schedule_reaches_target(self):
        spec = default_spec(10)
        _, p, fid = prepare_fock(10, default_fock_schedule(10), spec)
        assert fid > 0.999
        assert 0.0 < p < 1.0

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            prepare_fock(4, [], default_spec(4))

    def test_filters_are_retargeted(self):
        # schedule built for another target still prepares the requested one
        spec = default_spec(6)
        _, _, fid = prepare_fock(6, binary_fock_schedule(0, 4), spec)
        assert fid > 0.999


class TestRamseyAndSpectroscopy:
    def test_ramsey_trace_formula(self):
        thetas = np.linspace(0.0, 2 * math.pi, 64)
        trace = ramsey_trace(5, 2, thetas)
        assert np.allclose(trace, np.cos(3 * thetas / 2) ** 2)

    def test_detuning_is_negative_and_quadratic(self):
        p = DeviceParams()
        f1 = photon_detuning_hz(1, p)
        f2 = photon_detuning_hz(2, p)
        assert f1 < 0 and f2 < f1
        assert f1 == pytest.approx(-(p.chi_qc + p.chi2_qc / 2) / (2 * math.pi))

    def test_spectroscopy_signal_peaks_at_centers(self):
        p = DeviceParams()
        pops = np.array([0.3, 0.7])
        centers = np.asarray(photon_detuning_hz(np.array([0, 1]), p))
        grid = np.linspace(centers.min() - 2e6, centers.max() + 2e6, 2001)
        sig = spectroscopy_signal(pops, grid, p, sigma_f=0.1e6)
        assert sig[np.argmin(np.abs(grid - centers[1]))] == pytest.approx(0.7, abs=1e-3)

    def test_spectroscopy_sampling_is_seeded(self):
        p = DeviceParams()
        grid = np.linspace(-2e6, 0.5e6, 301)
        a = spectroscopy_signal(np.array([1.0]), grid, p, 0.1e6, shots=1000, seed=3)
        b = spectroscopy_signal(np.array([1.0]), grid, p, 0.1e6, shots=1000, seed=3)
        assert np.array_equal(a, b)


class TestResolveCascade:
    def test_fock_input_is_deterministic(self):
        spec = HilbertSpec(32)
        for n in (0, 3, 5, 7, 9):
            traces = resolve_photon_cascade(fock_state(n, spec), 3)
            probs = {t.resolved_n: t.probability for t in traces}
            assert probs[n % 8] == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        spec = default_spec(3)
        st = coherent_state(math.sqrt(3), spec)
        traces = resolve_photon_cascade(st, 4)
        assert sum(t.probability for t in traces) == pytest.approx(1.0, abs=1e-10)

    def test_matches_aliased_poisson(self):
        spec = default_spec(3)
        st = coherent_state(math.sqrt(3), spec)
        traces = resolve_photon_cascade(st, 3)
        pmf = poisson.pmf(np.arange(spec.dim), 3.0)
        for t in traces:
            expected = pmf[t.resolved_n :: 8].sum()
            assert t.probability == pytest.approx(expected, abs=1e-12)

    def test_target_offset(self):
        spec = HilbertSpec(32)
        traces = resolve_photon_cascade(fock_state(9, spec), 3, target_n=2)
        probs = {t.resolved_n: t.probability for t in traces}
        assert probs[7] == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_branch_has_no_state(self):
        spec = HilbertSpec(8)
        traces = resolve_photon_cascade(fock_state(1, spec), 2)
        dead = [t for t in traces if t.probability < 1e-15]
        assert dead and all(t.post_state is None for t in dead)

    def test_depth_bounds(self):
        spec = HilbertSpec(8)
        with pytest.raises(ValueError):
            resolve_photon_cascade(fock_state(0, spec), 0)
        with pytest.raises(ValueError):
            resolve_photon_cascade(fock_state(0, spec), 7)


class TestApplyFilter:
    def test_dispatch(self):
        spec = default_spec(4)
        st = coherent_state(2.0, spec)
        assert apply_filter(st, gaussian_filter(4, 1.0)).p_g > 0
        assert apply_filter(st, sinusoidal_filter(4, math.pi)).p_g > 0
