"""Command-line driver.

Subcommands:
  reference  - classical RK2 populations, CSV output
  qsvd       - factor-flow run (exact / sampled / noisy), CSV + JSON summary
  compare    - per-column deviation metrics between two trajectory CSVs

Exit codes: 0 ok, 2 config error, 3 numerical guard tripped,
4 reconstruction failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import MODES, build_generator, load_config
from .errors import ConfigError, SvdFlowError
from .runner import compute_reference, read_csv, run_qsvd, write_csv, write_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svdflow",
        description="SVD-factor flow simulation of nonautonomous linear ODEs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--mode", choices=MODES)
        # each dest is the RunConfig field (or NoiseSpec probability) it sets
        p.add_argument("--shots", dest="n_shots", metavar="SHOTS", type=int,
                       help="measurement shots per circuit")
        p.add_argument("--seed", dest="rng_seed", metavar="SEED", type=int,
                       help="master RNG seed")
        p.add_argument("--steps", dest="n_steps", metavar="STEPS", type=int,
                       help="number of factor-flow steps")
        p.add_argument("--noise-p1", dest="p1", metavar="NOISE_P1", type=float,
                       help="1-qubit depolarizing probability")
        p.add_argument("--noise-p2", dest="p2", metavar="NOISE_P2", type=float,
                       help="multi-qubit depolarizing probability")
        p.add_argument("--noise-pro", dest="p_ro", metavar="NOISE_PRO", type=float,
                       help="readout flip probability per qubit")
        p.add_argument("--project", action="store_true", default=None,
                       help="project measured factors onto the nearest orthogonal matrix")
        p.add_argument("--dilation", action="store_true", default=None,
                       help="estimate per-step acceptance via the dilation circuit")
        p.add_argument("--out", required=True, help="trajectory CSV path")

    add_run_flags(sub.add_parser("reference", help="classical RK2 reference run"))
    add_run_flags(sub.add_parser("qsvd", help="factor-flow run"))

    cmp_p = sub.add_parser("compare", help="deviation metrics between two CSVs")
    cmp_p.add_argument("file_a")
    cmp_p.add_argument("file_b")
    cmp_p.add_argument("--out", help="write metrics JSON here (default stdout)")
    return parser


def _config_from_args(args) -> "RunConfig":
    """The config file with the run flags given, each overriding the field
    its dest names."""
    overrides = {k: v for k, v in vars(args).items()
                 if v is not None and k not in ("command", "config", "out")}
    noise = {k: overrides.pop(k) for k in ("p1", "p2", "p_ro") if k in overrides}
    if noise:
        overrides["noise"] = noise
    return load_config(args.config, overrides)


def _check_out_dir(path: str) -> None:
    """Fail before any work when the directory of an output path is missing."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory!r} of {path!r} does not exist")


def _write(writer, path: str, *data) -> None:
    try:
        writer(path, *data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def cmd_reference(args) -> int:
    _check_out_dir(args.out)
    cfg = _config_from_args(args)
    gen = build_generator(cfg)
    ref = compute_reference(cfg, gen)
    _write(write_csv, args.out, ref.columns, ref.rows)
    return 0


def cmd_qsvd(args) -> int:
    _check_out_dir(args.out)
    cfg = _config_from_args(args)
    result = run_qsvd(cfg)
    _write(write_csv, args.out, result.columns, result.rows)
    summary_path = args.out + ".summary.json" if not args.out.endswith(".csv") \
        else args.out[:-4] + ".summary.json"
    result.summary["outputs"] = {"trajectory": args.out}
    _write(write_json, summary_path, result.summary)
    return 0


def cmd_compare(args) -> int:
    if args.out:
        _check_out_dir(args.out)
    try:
        header_a, data_a = read_csv(args.file_a)
        header_b, data_b = read_csv(args.file_b)
    except OSError as exc:
        raise ConfigError(f"cannot read input: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed CSV: {exc}") from exc
    if "t" not in header_a or "t" not in header_b:
        raise ConfigError("both files need a 't' column")
    ta = data_a[:, header_a.index("t")]
    tb = data_b[:, header_b.index("t")]
    # match times to a fixed tolerance rather than bitwise
    ia, ib = [], []
    jb = 0
    for i, t in enumerate(ta):
        while jb < len(tb) and tb[jb] < t - 1e-9:
            jb += 1
        if jb < len(tb) and abs(tb[jb] - t) <= 1e-9:
            ia.append(i)
            ib.append(jb)
            jb += 1
    if not ia:
        raise ConfigError("no common time grid between the two files")
    metrics = {"common_points": len(ia)}
    for col in header_a:
        if col == "t" or col not in header_b:
            continue
        da = data_a[np.array(ia), header_a.index(col)]
        db = data_b[np.array(ib), header_b.index(col)]
        diff = da - db
        metrics[col] = {
            "max_abs": float(np.abs(diff).max()),
            "rms": float(np.sqrt(np.mean(diff**2))),
        }
    if args.out:
        _write(write_json, args.out, metrics)
    else:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "reference": cmd_reference,
        "qsvd": cmd_qsvd,
        "compare": cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except SvdFlowError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        if exc.step is not None:
            record["step"] = exc.step
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
