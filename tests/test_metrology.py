"""Sensing curves, Fisher information and precision reporting."""

import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, eval_laguerre

from fockmet import (
    Parameter,
    cfi_of_curve,
    coherent_state,
    default_spec,
    displacement_generator,
    fock_state,
    optimal_phase_displacement,
    parity_curve_ideal,
    phase_curve_ideal,
    phase_generator,
    precision_report,
    qfi_pure,
    sql_baselines,
    weighted_fisher,
)
from fockmet.metrology import (
    binary_fisher,
    fock_fisher,
    gain_db_from_fisher,
    gain_db_from_precision,
    golden_max,
    maximize_fisher,
    parity_curve_deriv,
    parity_shape,
    phase_curve_deriv,
)

CENTRAL_DIFF_H = 1e-6


def _central_difference(P):
    """Reference slope of the curve P: a central difference with h = 1e-6."""
    return lambda x: (P(x + CENTRAL_DIFF_H) - P(x - CENTRAL_DIFF_H)) / (2.0 * CENTRAL_DIFF_H)


def _shape_oracle(n, x):
    """(beta, exp(-2 beta^2), L_n, d/dx L_n) from scipy at the kernel's x = 4 beta^2."""
    b = math.sqrt(x) / 2.0
    x = 4.0 * b * b
    dlag = 0.0 if n == 0 else -eval_genlaguerre(n - 1, 1, x)
    return b, math.exp(-2.0 * b * b), eval_laguerre(n, x), dlag


class TestLaguerre:
    """The Laguerre recurrences inside parity_shape, checked through the envelope."""

    def test_matches_scipy(self):
        for n in (0, 1, 2, 5, 20, 100):
            for x in (0.0, 0.3, 1.7, 10.0):
                b, env, lag, _ = _shape_oracle(n, x)
                shape, _ = parity_shape(n, b)
                assert shape == pytest.approx(lag * env, rel=1e-10, abs=1e-10 * env)

    def test_deriv_matches_scipy(self):
        for n in (0, 1, 2, 5, 20):
            for x in (0.0, 0.3, 1.7, 10.0):
                b, env, lag, dlag = _shape_oracle(n, x)
                _, dshape = parity_shape(n, b)
                expected = env * (8.0 * b * dlag - 4.0 * b * lag)
                assert dshape == pytest.approx(expected, rel=1e-10, abs=1e-10 * env * 8.0 * b)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            parity_shape(-1, 0.0)

    def test_array_call_equals_scalar_calls(self):
        betas = np.linspace(0.0, 2.0, 41)
        for n in (0, 1, 4, 100):
            shape, dshape = parity_shape(n, betas)
            scalar = [parity_shape(n, float(b)) for b in betas]
            np.testing.assert_allclose(shape, [s for s, _ in scalar], rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(dshape, [d for _, d in scalar], rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(
                parity_curve_ideal(n, betas), [parity_curve_ideal(n, float(b)) for b in betas],
                rtol=1e-15, atol=0.0,
            )
            np.testing.assert_allclose(
                parity_curve_deriv(n, betas), [parity_curve_deriv(n, float(b)) for b in betas],
                rtol=1e-15, atol=0.0,
            )

    def test_scalar_call_returns_python_floats(self):
        assert all(type(v) is float for v in parity_shape(7, 0.3))


class TestParityCurve:
    def test_origin_value_alternates(self):
        for n in range(8):
            assert parity_curve_ideal(n, 0.0) == pytest.approx(1.0 if n % 2 == 0 else 0.0)

    def test_bounded(self):
        for n in (0, 3, 10, 41):
            for b in np.linspace(0, 2, 40):
                assert 0.0 <= parity_curve_ideal(n, float(b)) <= 1.0

    def test_deriv_matches_central_difference(self):
        h = 1e-6
        for n in (1, 4, 12):
            for b in (0.05, 0.3, 0.8):
                numeric = (parity_curve_ideal(n, b + h) - parity_curve_ideal(n, b - h)) / (2 * h)
                assert parity_curve_deriv(n, b) == pytest.approx(numeric, rel=1e-6, abs=1e-8)

    def test_phase_curve_is_rescaled_parity(self):
        assert phase_curve_ideal(5, 3.0, 0.1) == pytest.approx(parity_curve_ideal(5, 0.3))

    @pytest.mark.parametrize("n", [0, 1, 10, 40])
    def test_phase_deriv_matches_central_difference(self, n):
        gamma = math.sqrt(n) if n > 0 else 1.0
        P = lambda x: phase_curve_ideal(n, gamma, x)  # noqa: E731
        numeric = _central_difference(P)
        for phi in (-0.3, -0.05, -0.01, 0.01, 0.05, 0.3):
            assert phase_curve_deriv(n, gamma, phi) == pytest.approx(numeric(phi), rel=1e-6, abs=1e-8)
            # The curve is even in phi and its slope odd, to the bit.
            assert P(-phi) == P(phi)
            assert phase_curve_deriv(n, gamma, -phi) == -phase_curve_deriv(n, gamma, phi)


class TestFisher:
    def test_cfi_degenerate_point_is_zero(self):
        # even-N curve saturates at P = 1 when beta = 0
        P = lambda b: parity_curve_ideal(4, b)  # noqa: E731
        assert cfi_of_curve(P, 0.0, lambda b: parity_curve_deriv(4, b)) == 0.0

    def test_cfi_numeric_matches_analytic_derivative(self):
        n, b = 3, 0.25
        analytic = cfi_of_curve(
            lambda x: parity_curve_ideal(n, x), b, lambda x: parity_curve_deriv(n, x)
        )
        P = lambda x: parity_curve_ideal(n, x)  # noqa: E731
        numeric = cfi_of_curve(P, b, _central_difference(P))
        assert numeric == pytest.approx(analytic, rel=1e-5)

    def test_qfi_coherent_displacement(self):
        spec = default_spec(4)
        st = coherent_state(1.5, spec)
        assert qfi_pure(displacement_generator(spec), st) == pytest.approx(4.0, abs=1e-9)

    def test_qfi_fock_displacement(self):
        spec = default_spec(12)
        st = fock_state(12, spec)
        assert qfi_pure(displacement_generator(spec), st) == pytest.approx(4 * 25, rel=1e-12)

    def test_qfi_fock_phase_is_zero(self):
        spec = default_spec(5)
        assert qfi_pure(phase_generator(spec), fock_state(5, spec)) == pytest.approx(0.0, abs=1e-9)

    def test_fock_fisher_is_fock_qfi(self):
        spec = default_spec(12)
        qfi = [qfi_pure(displacement_generator(spec), fock_state(n, spec)) for n in range(13)]
        np.testing.assert_allclose(fock_fisher(np.arange(13)), qfi, rtol=1e-12)
        assert fock_fisher(3) == 4 * 7

    @pytest.mark.parametrize("n", [10, 100, 400])
    @pytest.mark.parametrize("analytic, rtol", [(True, 1e-12), (False, 1e-9)])
    def test_cfi_on_array_matches_per_point(self, n, analytic, rtol):
        beta = np.linspace(0.0, 2.0, 401)
        P = lambda x: parity_curve_ideal(n, x)  # noqa: E731
        dP = (lambda x: parity_curve_deriv(n, x)) if analytic else _central_difference(P)
        on_array = cfi_of_curve(P, beta, dP)
        per_point = np.array([cfi_of_curve(P, float(b), dP) for b in beta])
        clamped = per_point == 0.0
        assert clamped[0]  # P = 1 at beta = 0 for even N
        np.testing.assert_array_equal(on_array[clamped], 0.0)
        np.testing.assert_allclose(on_array[~clamped], per_point[~clamped], rtol=rtol, atol=0)
        assert type(cfi_of_curve(P, 0.3, dP)) is float

    @pytest.mark.parametrize("n", [10, 100, 400])
    def test_binary_fisher_on_values_is_cfi_of_curve(self, n):
        P = lambda x: parity_curve_ideal(n, x)  # noqa: E731
        dP = lambda x: parity_curve_deriv(n, x)  # noqa: E731
        beta = np.linspace(0.0, 2.0, 401)
        np.testing.assert_array_equal(binary_fisher(P(beta), dP(beta)), cfi_of_curve(P, beta, dP))
        for b in (0.0, 1e-3, 0.05, 0.3):
            got = binary_fisher(P(b), dP(b))
            assert type(got) is float
            assert got == cfi_of_curve(P, b, dP)

    def test_weighted_fisher_identity(self):
        pops = [(0, 0.2), (1, 0.3), (2, 0.5)]
        nbar = sum(n * p for n, p in pops)
        got = weighted_fisher(pops, lambda n: 4.0 * (2 * n + 1))
        assert got == pytest.approx(4 * (2 * nbar + 1))

    def test_weighted_fisher_requires_normalized(self):
        with pytest.raises(ValueError):
            weighted_fisher([(0, 0.5)], lambda n: 1.0)


class TestBaselinesAndGain:
    def test_sql_values(self):
        db, dphi = sql_baselines(25.0)
        assert db == 0.5
        assert dphi == pytest.approx(0.1)
        with pytest.raises(ValueError):
            sql_baselines(0.0)

    def test_gain_conventions_agree(self):
        # 20 log10 on precision equals 10 log10 on Fisher for matched quantities
        f, f_sql = 360.0, 4.0
        assert gain_db_from_fisher(f, f_sql) == pytest.approx(
            gain_db_from_precision(1 / math.sqrt(f_sql), 1 / math.sqrt(f))
        )

    def test_optimal_phase_displacement(self):
        assert optimal_phase_displacement(10) == pytest.approx(10.5)
        with pytest.raises(ValueError):
            optimal_phase_displacement(-1)


class TestMaximization:
    def test_golden_max_evaluates_its_grid_in_one_call(self):
        calls = []

        def f(x):
            calls.append(np.array(x, copy=True))
            return -((x - 0.3) ** 2)

        f_max, arg = golden_max(f, 0.0, 1.0, 401, 1e-9)
        grids = [x for x in calls if x.ndim]
        assert len(grids) == 1
        np.testing.assert_array_equal(grids[0], np.linspace(0.0, 1.0, 401))
        assert calls[0].ndim == 1  # the grid comes first, then single floats
        assert f_max == pytest.approx(0.0, abs=1e-15)
        assert arg == pytest.approx(0.3, abs=1e-8)

    def test_finds_small_beta_plateau(self):
        n = 1
        f, arg = maximize_fisher(
            lambda b: cfi_of_curve(
                lambda x: parity_curve_ideal(n, x), b, lambda x: parity_curve_deriv(n, x)
            ),
            1e-3,
            1.0,
        )
        assert f == pytest.approx(4 * (2 * n + 1), rel=1e-2)
        assert arg < 0.1

    def test_precision_report_consistency(self):
        n = 2
        rep = precision_report(
            Parameter.BETA,
            lambda b: parity_curve_ideal(n, b),
            1e-3,
            1.0,
            sql_precision=0.5,
            dP=lambda b: parity_curve_deriv(n, b),
        )
        assert rep.precision == pytest.approx(1 / math.sqrt(rep.fisher_max))
        assert rep.gain_db == pytest.approx(20 * math.log10(0.5 / rep.precision))

    def test_flat_curve_carries_no_fisher_information(self):
        flat = lambda b: 0.5 + 0.0 * np.asarray(b)  # noqa: E731
        slope = lambda b: 0.0 * np.asarray(b)  # noqa: E731
        with pytest.raises(ValueError, match="no Fisher information"):
            precision_report(Parameter.BETA, flat, 1e-3, 1.0, sql_precision=0.5, dP=slope)
        with pytest.raises(ValueError, match="no Fisher information"):
            maximize_fisher(lambda b: 0.0 * np.asarray(b), 0.0, 1.0)

    def test_report_fields_are_python_floats(self):
        # N = 10 on [0, 1]: the maximum lies inside a grid cell, so the
        # golden-section refinement supplies it.
        n = 10
        rep = precision_report(
            Parameter.BETA,
            lambda b: parity_curve_ideal(n, b),
            0.0,
            1.0,
            sql_precision=0.5,
            dP=lambda b: parity_curve_deriv(n, b),
        )
        assert 0.0 < rep.argmax_location < 1.0 / 400
        assert type(rep.fisher_max) is float
        assert type(rep.argmax_location) is float
        assert all(type(v) is float for v in golden_max(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, 11, 1e-9))
