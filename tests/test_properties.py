"""Property-based invariants over randomized states, filters and fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from fockmet import (
    HilbertSpec,
    apply_filter,
    coherent_state,
    default_spec,
    displacement,
    fock_state,
    parity_curve_ideal,
    resolve_photon_cascade,
    sinusoidal_filter,
)
from fockmet.estimation import fit_scaling_exponent
from fockmet.metrology import parity_shape

SETTINGS = settings(max_examples=25, deadline=None)


@SETTINGS
@given(
    re=st.floats(-1.5, 1.5),
    im=st.floats(-1.5, 1.5),
)
def test_coherent_state_moments(re, im):
    alpha = complex(re, im)
    spec = default_spec(max(1, int(abs(alpha) ** 2) + 1))
    st_ = coherent_state(alpha, spec)
    nbar = abs(alpha) ** 2
    assert st_.mean_photon_number() == pytest.approx(nbar, abs=1e-8)
    assert st_.photon_number_std() == pytest.approx(math.sqrt(nbar), abs=1e-8)


@SETTINGS
@given(
    re=st.floats(-1.0, 1.0),
    im=st.floats(-1.0, 1.0),
)
def test_displacement_dagger_is_inverse_displacement(re, im):
    beta = complex(re, im)
    spec = HilbertSpec(48, guard=16)
    d = displacement(beta, spec)
    d_inv = displacement(-beta, spec)
    k = spec.interior
    diff = d.dagger().matrix[:k, :k] - d_inv.matrix[:k, :k]
    assert np.max(np.abs(diff)) < 1e-10


@SETTINGS
@given(
    n=st.integers(0, 15),
    theta=st.floats(0.05, 2 * math.pi),
    target=st.integers(0, 15),
)
def test_sinusoidal_filter_conserves_probability(n, theta, target):
    spec = HilbertSpec(20)
    out = apply_filter(fock_state(n, spec), sinusoidal_filter(target, theta))
    assert out.p_g + out.p_e == pytest.approx(1.0, abs=1e-12)


@SETTINGS
@given(n=st.integers(0, 60), x=st.floats(0.0, 30.0))
def test_laguerre_matches_scipy(n, x):
    b = math.sqrt(x) / 2.0
    env = math.exp(-2.0 * b * b)
    expected = eval_laguerre(n, 4.0 * b * b) * env
    assert parity_shape(n, b)[0] == pytest.approx(expected, rel=1e-8, abs=1e-8 * env)


@SETTINGS
@given(n=st.integers(0, 40), beta=st.floats(0.0, 2.0))
def test_parity_curve_is_a_probability(n, beta):
    p = parity_curve_ideal(n, beta)
    assert -1e-12 <= p <= 1.0 + 1e-12


@SETTINGS
@given(nbar=st.floats(0.2, 4.0), m=st.integers(1, 4))
def test_cascade_probabilities_normalize(nbar, m):
    spec = default_spec(int(nbar) + 2)
    traces = resolve_photon_cascade(coherent_state(math.sqrt(nbar), spec), m)
    assert sum(t.probability for t in traces) == pytest.approx(1.0, abs=1e-9)
    assert len(traces) == 2**m


@SETTINGS
@given(
    exponent=st.floats(-1.5, -0.1),
    scale=st.floats(0.1, 10.0),
)
def test_scaling_fit_recovers_exponent(exponent, scale):
    x = np.arange(5.0, 40.0)
    got, _ = fit_scaling_exponent(x, scale * x**exponent)
    assert got == pytest.approx(exponent, abs=1e-9)
