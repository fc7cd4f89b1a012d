"""Acceptance gate: one test per release criterion.

Each test prints a single ``ACCEPTANCE nn PASS`` line after its assertions
so that the criterion-level verdicts can be read off the captured output.
"""

import math
import time

import numpy as np
import yaml
from scipy.stats import poisson

from fockmet import (
    DeviceParams,
    HilbertSpec,
    LindbladSpec,
    PureState,
    binary_fock_schedule,
    cfi_of_curve,
    coherent_state,
    default_fock_schedule,
    default_spec,
    displacement,
    displacement_generator,
    fock_state,
    gaussian_filter,
    gaussian_sigma_from_pulse,
    lindblad_evolve,
    parity_curve_ideal,
    parity_expectation,
    phase_generator,
    prepare_fock,
    qfi_pure,
    ramsey_trace,
    resolve_photon_cascade,
    spectroscopy_signal,
    toy_model,
    weighted_fisher,
)
from fockmet.cli import load_config, run
from fockmet.composite import apply_filter, photon_detuning_hz
from fockmet.estimation import (
    fit_multi_gaussian,
    fit_ramsey_frequency,
    fit_scaling_exponent,
)
from fockmet.fockspace import displaced_state
from fockmet.metrology import parity_curve_deriv
from fockmet.noise import (
    perturbation_first_order,
    qubit_cavity_parity_setup,
    unitary_evolution,
)


def test_criterion_01_closed_form_matches_operator_simulation():
    start = time.time()
    betas = np.linspace(0.0, 1.0, 21)
    worst = 0.0
    for n in range(31):
        spec = HilbertSpec(n + 60, 0)
        for beta in betas:
            psi = displacement(float(beta), spec).apply(fock_state(n, spec))
            rho = PureState(psi, spec).to_mixed()
            p_op = 0.5 + 0.5 * parity_expectation(rho)
            worst = max(worst, abs(p_op - parity_curve_ideal(n, float(beta))))
    elapsed = time.time() - start
    assert worst < 1e-8
    assert elapsed < 30.0
    print(f"ACCEPTANCE 01 PASS: max |operator - closed form| = {worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_cfi_small_displacement_limit():
    worst = 0.0
    for n in range(1, 21):
        fisher = cfi_of_curve(
            lambda b, n=n: parity_curve_ideal(n, b),
            1e-3,
            lambda b, n=n: parity_curve_deriv(n, b),
        )
        rel = abs(fisher / (4.0 * (2 * n + 1)) - 1.0)
        worst = max(worst, rel)
        assert rel < 0.005
    print(f"ACCEPTANCE 02 PASS: CFI -> 4(2N+1) with worst relative error {worst:.2e}")


def test_criterion_03_qfi_identities():
    spec = HilbertSpec(256, 20)
    coh = qfi_pure(displacement_generator(spec), coherent_state(1.5, spec))
    assert abs(coh - 4.0) < 1e-9
    for n in (1, 5, 10, 40):
        got = qfi_pure(displacement_generator(spec), fock_state(n, spec))
        assert abs(got / (4.0 * (2 * n + 1)) - 1.0) < 1e-9
    for n in (1, 3, 5, 15):
        probe = displaced_state(math.sqrt(n), fock_state(n, spec))
        got = qfi_pure(phase_generator(spec), probe)
        assert abs(got / (4.0 * n * (2 * n + 1)) - 1.0) < 1e-6
    print("ACCEPTANCE 03 PASS: coherent, Fock and displaced-Fock QFI identities hold")


def test_criterion_04_filter_composition_and_fock_fidelity():
    spec = default_spec(10)
    for m in range(1, 5):
        state = coherent_state(math.sqrt(10), spec)
        for fspec in binary_fock_schedule(10, m):
            state = apply_filter(state, fspec).branch_g
        support = {10 + k * 2**m for k in range(-10, spec.dim)} & set(range(spec.dim))
        off = [abs(state.amplitudes[j]) for j in range(spec.dim) if j not in support]
        assert max(off) < 1e-10
    _, _, fidelity = prepare_fock(10, default_fock_schedule(10), spec)
    assert fidelity >= 0.999
    print(f"ACCEPTANCE 04 PASS: comb support exact to < 1e-10, prepare_fock(10) fidelity {fidelity:.6f}")


def test_criterion_05_gaussian_filter_width():
    params = DeviceParams()
    sigma = gaussian_sigma_from_pulse(800e-9, params.chi_qc)
    assert abs(sigma - 0.90) < 0.01
    spec = default_spec(50)
    out = apply_filter(coherent_state(math.sqrt(50), spec), gaussian_filter(50, sigma))
    std = out.branch_g.photon_number_std()
    assert 0.8 <= std <= 1.0
    print(f"ACCEPTANCE 05 PASS: sigma(800 ns) = {sigma:.4f}, post-filter std = {std:.4f}")


def test_criterion_06_toy_model_constants_and_minimum():
    start = time.time()
    p = DeviceParams()
    checks = [
        (2.0 * p.kappa1 * p.T_i, 5e-3),
        (p.kappa1 * p.T_M, 1.3e-3),
        ((p.kappa3 + p.kappa4) * p.T_M / 2.0, 1.0e-2),
        (p.kappa2 * p.T_D / 6.0, 8.3e-6),
    ]
    for got, expected in checks:
        assert abs(got / expected - 1.0) < 0.05
    results = [toy_model(n, p) for n in range(1, 101)]
    precisions = [r.precision for r in results]
    n_min = 1 + int(np.argmin(precisions))
    gain = results[n_min - 1].gain_db
    elapsed = time.time() - start
    assert 25 <= n_min <= 60
    assert 13.0 <= gain <= 17.0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 06 PASS: constants within 5%, minimum at N = {n_min}, gain {gain:.2f} dB")


def test_criterion_07_perturbation_is_first_order():
    base = DeviceParams()
    spec = HilbertSpec(16, 0)
    errors = []
    for s in (0.25, 0.5, 1.0):
        scale = 0.1 * s
        params = DeviceParams(
            kappa1=base.kappa1 * scale,
            kappa2=base.kappa2 * scale,
            kappa3=base.kappa3 * scale,
            kappa4=base.kappa4 * scale,
        )
        rho, h, jumps = qubit_cavity_parity_setup(4, 0.2, params, spec)
        rho0_of_t = unitary_evolution(rho, h)
        rho1 = perturbation_first_order(rho0_of_t, h, jumps, params.T_M, num_points=2001)
        evolved = lindblad_evolve(
            rho, LindbladSpec(h, jumps, duration=params.T_M, dt=params.T_M / 4000)
        )
        errors.append(float(np.max(np.abs(evolved.matrix - (rho0_of_t(params.T_M) + rho1)))))
    ratios = [errors[1] / errors[0], errors[2] / errors[1]]
    for ratio in ratios:
        assert 3.5 <= ratio <= 4.5
    print(f"ACCEPTANCE 07 PASS: residual ratios {ratios[0]:.3f}, {ratios[1]:.3f} under rate halving")


def test_criterion_08_resolved_scheme_oracle_and_weighted_fisher():
    spec = default_spec(3)
    state = coherent_state(math.sqrt(3), spec)
    traces = resolve_photon_cascade(state, 3)
    pmf = poisson.pmf(np.arange(spec.dim), 3.0)
    worst = max(abs(t.probability - pmf[t.resolved_n :: 8].sum()) for t in traces)
    assert worst < 1e-6
    pops = [(n, float(p)) for n, p in enumerate(state.populations())]
    fisher = weighted_fisher(pops, lambda n: 4.0 * (2 * n + 1))
    nbar = state.mean_photon_number()
    assert abs(fisher - 4.0 * (2.0 * nbar + 1.0)) < 1e-6
    assert abs(fisher - 28.0) < 1e-6
    print(f"ACCEPTANCE 08 PASS: aliased-Poisson error {worst:.2e}, weighted Fisher {fisher:.9f}")


def test_criterion_09_ramsey_frequency_linearity():
    thetas = np.linspace(0.0, 2.0 * math.pi, 1024)
    ns = np.array([30, 50, 70, 100], dtype=float)
    freqs = [fit_ramsey_frequency(thetas, ramsey_trace(int(n), 0, thetas)) for n in ns]
    slope, intercept = np.polyfit(ns, freqs, 1)
    assert abs(slope - 1.0) <= 0.001
    assert abs(intercept) <= 0.05
    print(f"ACCEPTANCE 09 PASS: frequency vs n slope {slope:.6f}, intercept {intercept:.2e}")


def test_criterion_10_spectroscopy_round_trip():
    params = DeviceParams()
    pops_by_n = {100: 0.8, 99: 0.15, 98: 0.05}
    pops = np.array([pops_by_n[n] for n in (98, 99, 100)])
    centers = np.asarray(photon_detuning_hz(np.array([98, 99, 100]), params))
    grid = np.linspace(centers.min() - 1.5e6, centers.max() + 1.5e6, 801)
    clean = spectroscopy_signal(pops, grid, params, sigma_f=0.15e6, n_offset=98)
    got, _ = fit_multi_gaussian(grid, clean, centers)
    l1_clean = float(np.sum(np.abs(got - pops)))
    assert l1_clean < 1e-3
    noisy = spectroscopy_signal(
        pops, grid, params, sigma_f=0.15e6, shots=10**4, seed=7, n_offset=98
    )
    got_noisy, _ = fit_multi_gaussian(grid, noisy, centers)
    l1_noisy = float(np.sum(np.abs(got_noisy - pops)))
    assert l1_noisy < 0.02
    print(f"ACCEPTANCE 10 PASS: L1 error {l1_clean:.2e} noiseless, {l1_noisy:.2e} at 1e4 shots")


def test_criterion_11_scaling_exponent():
    ns = np.arange(10, 41, dtype=float)
    precisions = [1.0 / math.sqrt(4.0 * (2.0 * n + 1.0)) for n in ns]
    exponent, _ = fit_scaling_exponent(ns, precisions)
    assert abs(exponent - (-0.47)) <= 0.02
    print(f"ACCEPTANCE 11 PASS: ideal delta-beta scaling exponent {exponent:.4f}")


def test_criterion_12_rerun_determinism(tmp_path):
    payload = {
        "experiment": "DisplacementSweep",
        "grids": {"N": 6, "beta": {"start": 0.0, "stop": 1.0, "step": 0.02}},
        "shots": 5000,
        "seed": 17,
    }
    cfg_path = tmp_path / "sweep.yaml"
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(payload, fh)
    first = run(load_config(cfg_path), out_dir=tmp_path / "a", threads=1)
    second = run(load_config(cfg_path), out_dir=tmp_path / "b", threads=4)
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes()
    print("ACCEPTANCE 12 PASS: repeated runs are byte-identical across thread counts")
