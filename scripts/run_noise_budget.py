#!/usr/bin/env python3
"""Noise budget of the parity protocol.

Left: the closed-form noisy parity probability against the full Lindblad
integration for one working point, and the gap between that integration and
the first-order expansion rho0(T) + rho1 next to its (sum kappa T_M)^2 scale.
Right: the lambda1/lambda2 toy model sweep locating the optimal photon
number under the default device rates.
"""

import argparse
import sys

import numpy as np

from fockmet import (
    DeviceParams,
    FockmetError,
    HilbertSpec,
    LindbladSpec,
    lindblad_evolve,
    parity_prob_noisy,
    perturbation_first_order,
    toy_model,
)
from fockmet.noise import parity_readout_probability, qubit_cavity_parity_setup, unitary_evolution


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=4)
    parser.add_argument("--beta", type=float, default=0.2)
    parser.add_argument("--rate-scale", type=float, default=0.1)
    parser.add_argument("--n-max", type=int, default=100)
    args = parser.parse_args()

    base = DeviceParams()
    params = DeviceParams(
        kappa1=base.kappa1 * args.rate_scale,
        kappa2=base.kappa2 * args.rate_scale,
        kappa3=base.kappa3 * args.rate_scale,
        kappa4=base.kappa4 * args.rate_scale,
    )
    spec = HilbertSpec(args.N + 12, 0)
    rho, h, jumps = qubit_cavity_parity_setup(args.N, args.beta, params, spec)
    evolved = lindblad_evolve(
        rho, LindbladSpec(h, jumps, duration=params.T_M, dt=params.T_M / 4000)
    )
    p_sim = parity_readout_probability(evolved)
    p_model = parity_prob_noisy(args.N, args.beta, params)
    print(f"N = {args.N}, beta = {args.beta}, rate scale = {args.rate_scale}")
    print(f"  simulated P_g   = {p_sim:.8f}")
    print(f"  closed-form P_g = {p_model:.8f}")
    print(f"  difference      = {abs(p_sim - p_model):.2e}")
    rho0_of_t = unitary_evolution(rho, h)
    rho1 = perturbation_first_order(rho0_of_t, h, jumps, params.T_M)
    residual = np.max(np.abs(evolved.matrix - (rho0_of_t(params.T_M) + rho1)))
    kappa_t = params.T_M * (params.kappa1 + params.kappa2 + params.kappa3 + params.kappa4)
    print(f"  max|rho_sim - (rho0(T) + rho1)| = {residual:.2e}, (sum kappa T_M)^2 = {kappa_t**2:.2e}")

    results = [toy_model(n, base) for n in range(1, args.n_max + 1)]
    precisions = np.array([r.precision for r in results])
    n_star = 1 + int(np.argmin(precisions))
    best = results[n_star - 1]
    print(f"\ntoy model over N in [1, {args.n_max}]:")
    print(f"  optimum at N = {n_star}: delta_beta = {best.precision:.5f}, "
          f"gain = {best.gain_db:.2f} dB (lambda2 = {best.lambda2:.4f})")


if __name__ == "__main__":
    try:
        main()
    except FockmetError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
