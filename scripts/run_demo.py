#!/usr/bin/env python3
"""Run the two-state demo end to end: classical reference, exact factor flow,
and a sampled run, then write trajectories, a comparison summary and a
gnuplot script for the population curves."""

import argparse
import dataclasses
import pathlib
import sys

from svdflow.config import RunConfig, build_generator
from svdflow.runner import compute_reference, run_qsvd, write_csv, write_json

GNUPLOT = """\
set datafile separator ','
set key autotitle columnhead
set xlabel 't (au)'
set ylabel 'population'
plot 'exact.csv' using 1:2 with lines title 'P_D reference', \\
     'exact.csv' using 1:4 with points pt 6 ps 0.4 title 'P_D exact flow', \\
     'sampled.csv' using 1:4 with points pt 7 ps 0.4 title 'P_D sampled'
pause -1
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="demo_out")
    parser.add_argument("--shots", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    cfg = RunConfig(n_shots=args.shots, rng_seed=args.seed).validate()
    gen = build_generator(cfg)
    print(f"seeding at t = {cfg.t_seed} au (h = {cfg.step_size:.3f}) ...")
    reference = compute_reference(cfg, gen)
    write_csv(outdir / "reference.csv", reference.columns, reference.rows)

    for mode in ("exact", "sampled"):
        run_cfg = dataclasses.replace(cfg, mode=mode)
        result = run_qsvd(run_cfg, gen, reference=reference)
        write_csv(outdir / f"{mode}.csv", result.columns, result.rows)
        write_json(outdir / f"{mode}.summary.json", result.summary)
        print(f"{mode:8s} max |dP_D| = {result.summary['max_abs_dP_D']:.3e}  "
              f"wall = {result.summary['wall_time_s']:.2f} s")

    (outdir / "plot.gp").write_text(GNUPLOT)
    print(f"outputs in {outdir}/ (gnuplot plot.gp to view)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
