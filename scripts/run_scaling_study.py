#!/usr/bin/env python3
"""Precision scaling with photon number.

Fits the log-log slope of the ideal small-displacement precision
delta_beta(N) = 1/sqrt(4(2N+1)) and of the toy-model prediction that
includes decoherence, showing how noise pulls the exponent away from the
ideal -1/2 scaling.
"""

import argparse
import sys

import numpy as np

from fockmet import DeviceParams, FockmetError, fit_scaling_exponent, toy_model
from fockmet.metrology import fock_fisher


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=10)
    parser.add_argument("--n-max", type=int, default=40)
    args = parser.parse_args()

    ns = np.arange(args.n_min, args.n_max + 1, dtype=float)
    ideal = 1.0 / np.sqrt(fock_fisher(ns))
    exp_ideal, _ = fit_scaling_exponent(ns, ideal)

    params = DeviceParams()
    noisy = np.array([toy_model(int(n), params).precision for n in ns])
    exp_noisy, _ = fit_scaling_exponent(ns, noisy)

    print(f"N in [{args.n_min}, {args.n_max}]")
    print(f"  ideal delta_beta exponent     = {exp_ideal:+.4f}")
    print(f"  toy-model delta_beta exponent = {exp_noisy:+.4f}")


if __name__ == "__main__":
    try:
        main()
    except FockmetError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
