#!/usr/bin/env python3
"""Fingerprint the trajectory CSVs of an rng-seed ensemble.

    python scripts/trajectory_digests.py --config F [--config G ...] --seed S --members K
    python scripts/trajectory_digests.py --config scripts/identity/*.json --seed S --members K

Runs `svdflow qsvd --config F --seed s` for every config and the member
seeds s = S + j * 1000003 (j = 0 .. K-1, the ensemble stride of perfbench)
and prints one line per member: the config's file stem, the seed, the
sha256 of its trajectory CSV and the flow digest, the sha256 of the CSV
without its `*_ref` columns; or `ErrorClass@step` when the run stops on a
guard. Each config ends with a line `STEM members=K failed=F`. svdflow is
imported from this checkout's src/, so running the script on two trees and
diffing the outputs checks that a change keeps every trajectory byte for
byte; a change that re-bases only the classical reference shows as equal
flow digests. scripts/identity/ holds the configs of that check:
the three perfbench workloads, synthetic n=5 sampled with dilation and
project, the demo noisy with dilation and project, the demo exact,
synthetic n=8 exact on [1, 3] (perfbench's oracle self-check config), and
a slow two-state set exact at 800 steps, whose A(t) varies on every chunk
of the integrator (the demo's is constant after t = 0.575, so its set-up
composes almost every chunk on the constant path of `odeflow`).
"""

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from svdflow.cli import main as svdflow_main  # noqa: E402

MEMBER_STRIDE = 1_000_003


def flow_bytes(csv: bytes) -> bytes:
    """The CSV with every `*_ref` column removed, other fields as written."""
    rows = [line.split(b",") for line in csv.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if not name.endswith(b"_ref")]
    return b"".join(b",".join(row[i] for i in keep) + b"\n" for row in rows)


def digest(config: str, seed: int, workdir: pathlib.Path) -> str:
    out = workdir / f"member{seed}.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = svdflow_main(["qsvd", "--config", config, "--seed", str(seed),
                             "--out", str(out)])
    if code != 0:
        record = json.loads(err.getvalue().strip().splitlines()[-1])
        return f"{record['error']}@{record.get('step')}"
    csv = out.read_bytes()
    return f"{hashlib.sha256(csv).hexdigest()} {hashlib.sha256(flow_bytes(csv)).hexdigest()}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, nargs="+", action="extend",
                        help="svdflow JSON config files (repeatable)")
    parser.add_argument("--seed", type=int, required=True, help="seed of member 0")
    parser.add_argument("--members", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for config in args.config:
            stem = pathlib.Path(config).stem
            failed = 0
            for j in range(args.members):
                seed = args.seed + j * MEMBER_STRIDE
                outcome = digest(config, seed, pathlib.Path(tmp))
                failed += "@" in outcome
                print(f"{stem} {seed} {outcome}", flush=True)
            print(f"{stem} members={args.members} failed={failed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
