#!/usr/bin/env python3
"""Sweep measurement shots over several RNG seeds and report how the
terminal population deviation scales (expected log-log slope: -1/2)."""

import argparse
import dataclasses
import json
import sys

import numpy as np

from svdflow.config import RunConfig, build_generator
from svdflow.runner import run_qsvd


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, nargs="+",
                        default=[10**4, 10**5, 10**6])
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of RNG seeds per shot count")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--out", help="write the sweep table as JSON here")
    args = parser.parse_args(argv)

    cfg = RunConfig().validate()
    gen = build_generator(cfg)

    table = []
    for n_shots in args.shots:
        vals = []
        for k in range(args.seeds):
            run_cfg = dataclasses.replace(cfg, mode="sampled",
                                          n_shots=n_shots,
                                          rng_seed=args.seed_base + k)
            res = run_qsvd(run_cfg, gen)
            vals.append(abs(res.rows[-1, 3] - res.rows[-1, 1]))
        table.append({"n_shots": n_shots,
                      "mean_terminal_dP_D": float(np.mean(vals)),
                      "std_terminal_dP_D": float(np.std(vals))})
        print(f"N_s = {n_shots:>9,d}  mean terminal |dP_D| = "
              f"{table[-1]['mean_terminal_dP_D']:.4e}")

    slope = np.polyfit(np.log10([r["n_shots"] for r in table]),
                       np.log10([r["mean_terminal_dP_D"] for r in table]),
                       1)[0]
    print(f"log-log slope = {slope:+.3f} (expected ~ -0.5)")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"slope": float(slope), "table": table}, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
