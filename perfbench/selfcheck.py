#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed N]

1. A traced run of each workload, made twice with one seed in two fresh
   processes, reports the same work counts (layers.EXACT_COUNTS) and is
   correct both times.
2. A wrapped function that no longer exists makes its metrics absent (None)
   instead of failing the traced run.

Exits 1 on the first failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

import run  # pins BLAS threads and imports svdflow from this checkout
import layers

HERE = pathlib.Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload}: traced run failed (exit {proc.returncode}):\n{proc.stderr}")
    return {k: result["metrics"][k]["value"] for k in layers.EXACT_COUNTS}


def check_counts_repeat(seed: int) -> None:
    for workload in run.WORKLOADS:
        first, second = traced_counts(workload, seed), traced_counts(workload, seed)
        if first != second:
            sys.exit(f"{workload}: counts differ between runs: {first} vs {second}")
        print(f"{workload}: counts repeat: {first}")


def check_absent_function() -> None:
    from svdflow import qsim
    original = qsim.dilation_circuit
    del qsim.dilation_circuit
    try:
        tracer = layers.Tracer()
        with tracer.installed():
            pass
        values = tracer.metrics()
    finally:
        qsim.dilation_circuit = original
    absent = sorted(k for k, v in values.items() if v is None)
    expected = sorted(k for k, (_, needs) in layers.METRICS.items()
                      if needs == "dilation_circuit")
    if absent != expected:
        sys.exit(f"absent metrics {absent}, expected {expected}")
    print(f"missing dilation_circuit: absent metrics {absent}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args()
    check_absent_function()
    check_counts_repeat(args.seed)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
