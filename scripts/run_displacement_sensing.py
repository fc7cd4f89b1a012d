#!/usr/bin/env python3
"""Displacement sensing with Fock probes: precision and gain versus N.

For each photon number the ideal parity fringe is sampled with a finite
shot budget, refit, and bootstrapped to extract the achievable precision
and its error bar, compared against the coherent-state baseline of 1/2.
"""

import argparse

import numpy as np

from fockmet import Parameter, ShotRecord, bootstrap_precision, parity_curve_ideal
from fockmet.metrology import gain_db_from_precision, sql_baselines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-values", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    parser.add_argument("--shots", type=int, default=10000)
    parser.add_argument("--points", type=int, default=51)
    parser.add_argument("--resamples", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    grid = np.linspace(0.0, 1.0, args.points)
    print(f"{'N':>4} {'delta_beta':>12} {'std_err':>10} {'gain_dB':>9}")
    for n in args.n_values:
        record = ShotRecord(
            grid=grid, pg=parity_curve_ideal(n, grid), shots=args.shots, model=Parameter.BETA, N=n
        )
        mean, std = bootstrap_precision(record, resamples=args.resamples, seed=args.seed)
        gain = gain_db_from_precision(sql_baselines(n)[0], mean)
        print(f"{n:>4} {mean:>12.5f} {std:>10.5f} {gain:>9.2f}")


if __name__ == "__main__":
    main()
