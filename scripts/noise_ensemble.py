#!/usr/bin/env python3
"""Ensemble of noisy-mode runs: tabulate the ensemble-mean deviation from the
classical reference in 50-step windows (expected: non-decreasing in time)."""

import argparse
import dataclasses
import json
import sys

import numpy as np

from svdflow.config import RunConfig, build_generator
from svdflow.qsim import NoiseSpec
from svdflow.runner import run_qsvd


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--members", type=int, default=12)
    parser.add_argument("--shots", type=int, default=10**5)
    parser.add_argument("--p1", type=float, default=1e-3)
    parser.add_argument("--p2", type=float, default=1e-2)
    parser.add_argument("--pro", type=float, default=1e-2)
    parser.add_argument("--window", type=int, default=50)
    parser.add_argument("--seed-base", type=int, default=4000)
    parser.add_argument("--out", help="write window means as JSON here")
    args = parser.parse_args(argv)

    noise = NoiseSpec(p1=args.p1, p2=args.p2, p_ro=args.pro)
    cfg = RunConfig(mode="noisy", noise=noise, n_shots=args.shots).validate()
    if cfg.n_steps % args.window != 0:
        parser.error("window must divide n_steps")
    gen = build_generator(cfg)

    devs = []
    for k in range(args.members):
        run_cfg = dataclasses.replace(cfg, rng_seed=args.seed_base + k)
        res = run_qsvd(run_cfg, gen)
        devs.append(np.abs(res.rows[:, 3] - res.rows[:, 1]))
        print(f"member {k:2d}: max |dP_D| = {devs[-1].max():.4f}")

    mean_dev = np.mean(devs, axis=0)[1:]
    windows = mean_dev.reshape(-1, args.window).mean(axis=1)
    print("window means:", np.array2string(windows, precision=4))
    print("non-decreasing:", bool(np.all(np.diff(windows) >= 0.0)))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"window_means": windows.tolist(),
                       "non_decreasing": bool(np.all(np.diff(windows) >= 0.0))},
                      fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
