"""Model fits, population reconstruction, frequency extraction, bootstrap."""

import math

import numpy as np
import pytest

from fockmet import (
    DeviceParams,
    Parameter,
    ShotRecord,
    bootstrap_precision,
    fit_displacement_curve,
    fit_multi_gaussian,
    fit_phase_curve,
    fit_ramsey_frequency,
    fit_scaling_exponent,
    parity_curve_ideal,
    phase_curve_ideal,
    ramsey_trace,
    spectroscopy_signal,
)
from fockmet import estimation
from fockmet.composite import photon_detuning_hz


class TestCurveFits:
    def test_displacement_fit_recovers_half_half(self):
        n = 4
        grid = np.linspace(0.0, 1.0, 41)
        pg = np.array([parity_curve_ideal(n, b) for b in grid])
        fit = fit_displacement_curve(grid, pg, n)
        assert fit.parameters["A"] == pytest.approx(0.5, abs=1e-10)
        assert fit.parameters["B"] == pytest.approx(0.5, abs=1e-10)
        assert fit.converged and not fit.degenerate

    def test_phase_fit_recovers_half_half(self):
        n = 6
        grid = np.linspace(0.0, 0.5, 41)
        pg = np.array([phase_curve_ideal(n, math.sqrt(n), p) for p in grid])
        fit = fit_phase_curve(grid, pg, n)
        assert fit.parameters["A"] == pytest.approx(0.5, abs=1e-9)
        assert fit.parameters["B"] == pytest.approx(0.5, abs=1e-9)

    def test_flat_data_flags_degenerate(self):
        grid = np.linspace(0.0, 1.0, 20)
        fit = fit_displacement_curve(grid, np.full(20, 0.5), 3)
        assert fit.degenerate

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError):
            fit_displacement_curve(np.linspace(0, 1, 5), np.full(5, 0.5), 2)

    def test_rejects_bad_probabilities(self):
        grid = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            fit_displacement_curve(grid, np.full(10, 1.5), 2)


class TestMultiGaussian:
    def test_round_trip_noiseless(self):
        params = DeviceParams()
        pops = np.array([0.05, 0.15, 0.8])
        ns = np.array([98, 99, 100])
        centers = np.asarray(photon_detuning_hz(ns, params))
        grid = np.linspace(centers.min() - 1.5e6, centers.max() + 1.5e6, 801)
        sig = spectroscopy_signal(pops, grid, params, sigma_f=0.15e6, n_offset=98)
        got, fit = fit_multi_gaussian(grid, sig, centers)
        assert np.sum(np.abs(got - pops)) < 1e-6
        assert fit.parameters["sigma_f"] == pytest.approx(0.15e6, rel=1e-3)

    def test_singular_design_rejected(self):
        grid = np.linspace(-1e6, 1e6, 401)
        sig = np.exp(-(grid**2) / (2 * (0.2e6) ** 2))
        with pytest.raises(ValueError):
            fit_multi_gaussian(grid, sig, np.array([0.0, 1e3]))


class TestRamseyFrequency:
    def test_recovers_integer_frequencies(self):
        thetas = np.linspace(0.0, 2 * math.pi, 1024)
        for n in (3, 12, 30):
            trace = ramsey_trace(n, 0, thetas)
            assert fit_ramsey_frequency(thetas, trace) == pytest.approx(n, abs=1e-6)

    def test_recovers_off_bin_tones(self):
        rng = np.random.default_rng(0)
        thetas = np.linspace(0.0, 2 * math.pi, 1024)
        for _ in range(50):
            freq, phase = rng.uniform(2.0, 120.0), rng.uniform(0.0, 2 * math.pi)
            trace = 0.5 + 0.45 * np.cos(freq * thetas + phase)
            assert fit_ramsey_frequency(thetas, trace) == pytest.approx(freq, rel=1e-9)

    def test_returns_python_float(self):
        thetas = np.linspace(0.0, 2 * math.pi, 256)
        assert type(fit_ramsey_frequency(thetas, ramsey_trace(7, 0, thetas))) is float

    def test_noisy_trace_result_minimises_residual(self):
        thetas = np.linspace(0.0, 2 * math.pi, 513)
        trace = np.random.default_rng(3).binomial(200, ramsey_trace(30, 0, thetas)) / 200

        def residual(freq):
            design = np.column_stack([np.ones_like(thetas), np.cos(freq * thetas), np.sin(freq * thetas)])
            coef = np.linalg.lstsq(design, trace, rcond=None)[0]
            return np.linalg.norm(trace - design @ coef)

        got = fit_ramsey_frequency(thetas, trace)
        assert residual(got) <= min(residual(got - 1e-7), residual(got + 1e-7))

    def test_flat_trace_rejected(self):
        thetas = np.linspace(0.0, 2 * math.pi, 256)
        with pytest.raises(ValueError):
            fit_ramsey_frequency(thetas, np.full(256, 0.5))

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            fit_ramsey_frequency(np.linspace(0, 1, 4), np.zeros(4))


class TestBootstrap:
    @staticmethod
    def _record(shots):
        n = 4
        grid = np.linspace(0.0, 1.0, 51)
        pg = np.array([parity_curve_ideal(n, b) for b in grid])
        return ShotRecord(grid=grid, pg=pg, shots=shots, model=Parameter.BETA, N=n)

    def test_deterministic_under_seed(self):
        rec = self._record(20000)
        assert bootstrap_precision(rec, resamples=200, seed=5) == bootstrap_precision(
            rec, resamples=200, seed=5
        )

    def test_exact_limit_has_zero_spread(self):
        mean, std = bootstrap_precision(self._record(None), resamples=200, seed=0)
        assert std == 0.0
        assert mean == pytest.approx(1.0 / 6.0, rel=0.01)

    def test_pinned_values(self):
        # Computed with the per-point Fisher search that preceded the array one.
        beta = bootstrap_precision(self._record(20000), resamples=200, seed=5)
        assert beta == pytest.approx((0.15334687670242744, 0.0209328099180988), rel=1e-12)
        n = 10
        phi = np.linspace(0.0, 0.2, 41)
        rec = ShotRecord(
            grid=phi, pg=phase_curve_ideal(n, math.sqrt(n), phi), shots=1000,
            model=Parameter.PHI, N=n,
        )
        got = bootstrap_precision(rec, resamples=300, seed=1)
        assert got == pytest.approx((0.027875683731520943, 0.008616618341414696), rel=1e-12)

    def test_minimum_resamples_enforced(self):
        with pytest.raises(ValueError):
            bootstrap_precision(self._record(1000), resamples=100)

    @pytest.mark.parametrize("shots", [0, -5, 2.5, True])
    def test_invalid_shot_count_rejected(self, shots):
        with pytest.raises(ValueError, match="shots"):
            bootstrap_precision(self._record(shots), resamples=200)

    def test_each_fisher_point_evaluates_its_curve_once(self, monkeypatch):
        calls = []
        parity_shape = estimation.parity_shape

        def recorder(N, beta):
            calls.append((N, np.array(beta, copy=True)))
            return parity_shape(N, beta)

        monkeypatch.setattr(estimation, "parity_shape", recorder)
        bootstrap_precision(self._record(20000), resamples=200, seed=5)
        assert len(calls) > 200
        for (n0, b0), (n1, b1) in zip(calls, calls[1:]):
            assert not (n0 == n1 and b0.shape == b1.shape and np.array_equal(b0, b1))


class TestShotRecord:
    def test_stores_float_arrays(self):
        rec = ShotRecord(grid=[0, 1, 2], pg=[1, 0, 1], shots=10, model=Parameter.BETA, N=2)
        assert rec.grid.dtype == float and rec.pg.dtype == float
        np.testing.assert_array_equal(rec.grid, [0.0, 1.0, 2.0])

    def test_keeps_read_only_copies(self):
        # Writes to the caller's float arrays after construction never reach the record.
        grid, pg = np.linspace(0.0, 1.0, 3), np.full(3, 0.5)
        rec = ShotRecord(grid=grid, pg=pg, shots=10, model=Parameter.BETA, N=2)
        grid[0], pg[0] = 0.7, 0.9
        np.testing.assert_array_equal(rec.grid, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(rec.pg, [0.5, 0.5, 0.5])
        assert not rec.grid.flags.writeable and not rec.pg.flags.writeable

    @pytest.mark.parametrize(
        "grid, pg",
        [
            (np.linspace(0.0, 1.0, 41), np.full(40, 0.5)),
            (np.linspace(0.0, 1.0, 41).reshape(1, 41), np.full((1, 41), 0.5)),
            (np.float64(0.5), np.float64(0.5)),
        ],
    )
    def test_rejects_mismatched_or_non_1d_arrays(self, grid, pg):
        with pytest.raises(ValueError, match="1-D"):
            ShotRecord(grid=grid, pg=pg, shots=100, model=Parameter.BETA, N=4)

    def test_rejects_negative_n(self):
        grid = np.linspace(0.0, 1.0, 41)
        with pytest.raises(ValueError, match="non-negative"):
            ShotRecord(grid=grid, pg=np.full(41, 0.5), shots=100, model=Parameter.BETA, N=-1)

    def test_phase_model_needs_photons(self):
        grid = np.linspace(0.0, 0.2, 41)
        with pytest.raises(ValueError, match="N >= 1"):
            ShotRecord(grid=grid, pg=np.full(41, 0.5), shots=100, model=Parameter.PHI, N=0)
        # The displacement model is defined at N = 0.
        ShotRecord(grid=grid, pg=parity_curve_ideal(0, grid), shots=100, model=Parameter.BETA, N=0)


class TestScalingFit:
    def test_recovers_power_law(self):
        x = np.arange(5, 60, dtype=float)
        y = 2.7 * x**-0.5
        exponent, intercept = fit_scaling_exponent(x, y)
        assert exponent == pytest.approx(-0.5, abs=1e-12)
        assert 10**intercept == pytest.approx(2.7, rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent([1.0, 2.0, 3.0], [1.0, -1.0, 1.0])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent([1.0, 2.0], [1.0, 2.0])
