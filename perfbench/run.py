#!/usr/bin/env python3
"""Benchmark of svdflow's solve path, driven from outside through the same
public functions the `svdflow qsvd` command uses:

    load_config -> build_generator -> seed_factors + compute_reference   (set-up)
    run_qsvd(cfg, gen, seeds, reference) -> write_csv + write_json       (run)

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N --seconds S --trace 0|1]

The second form runs every workload, each in its own fresh process, and
prints a table. The last line of a single workload's output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the line before
it holds the run context and diagnostics, which are also saved under
perfbench/results/.

--trace 0 reports the end-to-end metrics:
  setup_s        median time of the set-up above
  run_s          median time of the run above
Both are seconds at a reference host speed (perfbench/calibration.py): the
raw median is scaled by fixed calibration kernels of the same kind of work
(set-up: integrator kernel; run: emulator kernel), each timed before and
after every sample of its timing, because this host's speed drifts by 20-30 % over tens of
seconds and raw medians spread by about 20 % between runs. The raw samples
and the scales are in the diagnostics.
  peak_rss_mb    peak resident memory, read before the oracle runs
  phi_rel_err    max over the grid of |Phi_flow - Phi_oracle|_F / |Phi_oracle|_F
  state_rel_err  the same for Phi v0 (all n components)
  ok_rate        share of pipeline calls that neither raised SvdFlowError
                 nor failed an output check (1 - fail rate; never 0, so a
                 relative bound applies)
The error metrics are means over a fixed ensemble of rng seeds derived from
--seed: member 0 uses --seed itself, member j adds j * MEMBER_STRIDE. One
seed's errors vary by 20-30 % between seeds, so a single seed cannot hold
the bound.

--trace 1 alternates untraced and traced solves of member 0 and reports the
per-layer metrics of perfbench/layers.py.

Every run checks, outside the timed region: each output (row count, finite
values, JSON summary), byte-identical CSVs for repeats of one rng seed, the
benchmark's own oracle against svdflow's exact mode, and CLI parity
(`svdflow.cli.main(["qsvd", ...])` writes the same CSV). A failed check
prints to stderr, sets "correct": false and exits 1. perfbench/selfcheck.py
checks the benchmark itself.
"""

from __future__ import annotations

import os

# One BLAS thread: the host's cores are shared, and svdflow's matrices are
# small enough that threading only adds noise. Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MEMBER_STRIDE = 1_000_003
MIN_TRACED = 2
# svdflow's exact mode must match the benchmark's oracle this closely on the
# synthetic_sampled config before the oracle judges anything (measured: 7.5e-7).
SELFCHECK_TOL = 1e-5

SYNTHETIC = {"name": "synthetic", "params": {"n": 8, "seed": 3, "smoothness": 0.1}}


@dataclasses.dataclass(frozen=True)
class Workload:
    config: dict            # svdflow config file contents, rng_seed excluded
    members: int            # rng seeds whose errors are averaged
    setups: int             # timed set-ups per run, at least
    runs_per_setup: int     # timed pipeline calls after each set-up
    oracle_substeps: tuple  # RK4 substeps on [0, t_seed] and per grid step

    def __post_init__(self):
        # every member runs, and member 0 runs twice for the determinism check
        if self.setups * self.runs_per_setup <= self.members:
            raise ValueError("setups * runs_per_setup must exceed members")


# Why each workload exists is recorded in BENCHMARK.json. synthetic_sampled
# keeps the sampled-path defect of ROADMAP item 2 in view (phi_rel_err near
# 0.7, guard trips on a few percent of rng seeds), so its configuration must
# not be changed to make those figures look better.
WORKLOADS = {
    "demo_sampled": Workload(
        config={"mode": "sampled", "n_shots": 1_000_000},
        members=24, setups=3, runs_per_setup=9, oracle_substeps=(32768, 4)),
    "synthetic_sampled": Workload(
        config={"model": SYNTHETIC, "t_seed": 1.0, "t_f": 3.0, "n_steps": 400,
                "seed_substeps": 5000, "ref_refine": 10, "mode": "sampled",
                "n_shots": 100_000, "project": True, "dilation": True},
        members=16, setups=9, runs_per_setup=2, oracle_substeps=(2048, 2)),
    "synthetic_noisy": Workload(
        config={"model": SYNTHETIC, "t_seed": 1.0, "t_f": 1.025, "n_steps": 5,
                "seed_substeps": 5000, "ref_refine": 10, "mode": "noisy",
                "n_shots": 100_000,
                "noise": {"p1": 1e-3, "p2": 1e-2, "p_ro": 1e-2}},
        members=4, setups=5, runs_per_setup=1, oracle_substeps=(2048, 2)),
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                    "phi_rel_err": "ratio", "state_rel_err": "ratio",
                    "ok_rate": "ratio"}


def member_seed(seed: int, j: int) -> int:
    return seed + j * MEMBER_STRIDE


def import_svdflow():
    """Import svdflow from this checkout's src/, never from elsewhere."""
    if not (SRC / "svdflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no svdflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import svdflow
    if SRC not in pathlib.Path(svdflow.__file__).resolve().parents:
        sys.exit(f"perfbench: imported svdflow from {svdflow.__file__}, not {SRC}")
    from svdflow import cli, config, errors, odeflow, runner
    return cli, config, errors, odeflow, runner


CLI, CONFIG, ERRORS, ODEFLOW, RUNNER = import_svdflow()

import numpy as np  # noqa: E402  (after the thread pinning above)

import calibration  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402


# --------------------------------------------------------------- pipeline

def setup(cfg_path):
    """Config file to (cfg, gen, seeds, reference), as `svdflow qsvd` does."""
    return prepare(CONFIG.load_config(str(cfg_path)))


def prepare(cfg):
    """Generator, seeds and reference of a config.

    Functions are looked up on their modules at call time, so the traced
    run sees them wrapped.
    """
    gen = CONFIG.build_generator(cfg)
    seeds = ODEFLOW.seed_factors(gen, cfg.t_seed, cfg.step_size,
                                 nsub=cfg.seed_substeps, tol_degen=cfg.tol_degen)
    return cfg, gen, seeds, RUNNER.compute_reference(cfg, gen)


def pipeline(cfg, gen, seeds, reference, csv_path):
    """run_qsvd plus the CSV and JSON summary, as `svdflow qsvd` writes them."""
    result = RUNNER.run_qsvd(cfg, gen, seeds, reference)
    RUNNER.write_csv(str(csv_path), result.columns, result.rows)
    result.summary["outputs"] = {"trajectory": str(csv_path)}
    RUNNER.write_json(str(summary_path(csv_path)), result.summary)
    return result


def summary_path(csv_path):
    return csv_path.with_name(csv_path.stem + ".summary.json")


def check_outputs(csv_path, cfg, columns) -> list[str]:
    """Problems with one call's CSV and JSON summary; empty when they pass."""
    problems = []
    lines = csv_path.read_text().splitlines()
    if not lines:
        return ["CSV is empty"]
    if lines[0] != ",".join(columns):
        problems.append(f"CSV header {lines[0]!r} does not match the result columns")
    if len(lines) - 1 != cfg.n_steps + 1:
        problems.append(f"CSV has {len(lines) - 1} rows, expected {cfg.n_steps + 1}")
    try:
        values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        problems.append(f"CSV rows do not parse as numbers: {exc}")
    else:
        if not np.all(np.isfinite(values)):
            problems.append("CSV holds a non-finite value")
    try:
        summary = json.loads(summary_path(csv_path).read_text())
    except json.JSONDecodeError as exc:
        problems.append(f"JSON summary does not parse: {exc}")
    else:
        if summary.get("mode") != cfg.mode or summary.get("rng_seed") != cfg.rng_seed:
            problems.append(
                f"JSON summary has mode={summary.get('mode')!r} "
                f"rng_seed={summary.get('rng_seed')!r}, expected "
                f"{cfg.mode!r} and {cfg.rng_seed}")
    return problems


class Ledger:
    """Attempts, failures, check problems and per-rng-seed outcomes of a run.

    An outcome is ("ok", csv bytes) or ("error", class, step, message); a
    repeat of an rng seed must reproduce the first outcome exactly.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.problems = []
        self.outcomes = {}

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"perfbench: CHECK FAILED: {text}", file=sys.stderr)

    def record(self, cfg, result, exc, csv_path):
        """Check one pipeline call; returns True for the first outcome of
        its rng seed that passed every check."""
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            outcome = ("error", type(exc).__name__, exc.step, str(exc))
            self.failures.append({"rng_seed": cfg.rng_seed, "error": outcome[1],
                                  "step": outcome[2], "message": outcome[3]})
        else:
            problems = check_outputs(csv_path, cfg, result.columns)
            if len(result.factors) != cfg.n_steps + 1:
                problems.append(f"{len(result.factors)} factor sets for "
                                f"{cfg.n_steps + 1} grid points")
            for text in problems:
                self.problem(f"rng_seed {cfg.rng_seed}: {text}")
            if problems:
                self.failed += 1
            outcome = ("ok" if not problems else "bad", csv_path.read_bytes())
        first = self.outcomes.setdefault(cfg.rng_seed, outcome)
        if first is not outcome and first != outcome:
            self.problem(f"rng_seed {cfg.rng_seed}: repeat is not identical "
                         f"({first[0]} then {outcome[0]})")
        return first is outcome and outcome[0] == "ok"


def run_guarded(cfg, gen, seeds, reference, csv_path):
    try:
        return pipeline(cfg, gen, seeds, reference, csv_path), None
    except ERRORS.SvdFlowError as exc:
        return None, exc


# ------------------------------------------------------------------ checks

def oracle_for(wl: Workload, cfg, gen) -> np.ndarray:
    return oracle.grid_propagators(gen, gen.dim, cfg.t_seed, cfg.t_f, cfg.n_steps,
                                   *wl.oracle_substeps)


def oracle_selfcheck(ledger: Ledger) -> float:
    """svdflow exact mode vs the oracle on the synthetic_sampled config."""
    wl = WORKLOADS["synthetic_sampled"]
    cfg, gen, seeds, reference = prepare(
        CONFIG.load_config(None, dict(wl.config, mode="exact")))
    result = RUNNER.run_qsvd(cfg, gen, seeds, reference)
    phi_err, _ = oracle.rel_errors(oracle.flow_propagators(result.factors),
                                   oracle_for(wl, cfg, gen))
    if not phi_err <= SELFCHECK_TOL:
        ledger.problem(f"oracle self-check: exact mode differs from the oracle "
                       f"by {phi_err:.3e} > {SELFCHECK_TOL:.0e}")
    return phi_err


def cli_parity(ledger: Ledger, cfg_path, expected, work) -> None:
    """`svdflow qsvd --config` must reproduce the pipeline's outcome."""
    out = work / "cli.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = CLI.main(["qsvd", "--config", str(cfg_path), "--out", str(out)])
    if expected[0] == "error":
        lines = err.getvalue().strip().splitlines()
        record = json.loads(lines[-1]) if lines else {}
        if code == 0 or (record.get("error"), record.get("step")) != expected[1:3]:
            ledger.problem(f"CLI parity: exit {code}, error record {record}, "
                           f"expected {expected[1]} at step {expected[2]}")
    elif code != 0:
        ledger.problem(f"CLI parity: exit {code}: {err.getvalue().strip()}")
    elif out.read_bytes() != expected[1]:
        ledger.problem("CLI parity: CLI CSV differs from the pipeline CSV")


# ------------------------------------------------------------------- runs

def measure(wl: Workload, cfg_path, seed: int, seconds: float, work, ledger):
    """Timed loop: a set-up, then runs_per_setup pipeline calls cycling
    through the rng-seed ensemble, until `seconds` have passed and at least
    wl.setups set-ups were timed. Checks happen between the timed regions."""
    clock = calibration.Clock()
    samples = {"setup": [], "run": []}
    phi_flow = {}
    i = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples["setup"]) < wl.setups:
        (cfg, gen, seeds, reference), elapsed = clock.time(
            "integrator", setup, cfg_path)
        samples["setup"].append(elapsed)
        for _ in range(wl.runs_per_setup):
            j = i % wl.members
            mcfg = dataclasses.replace(cfg, rng_seed=member_seed(seed, j))
            csv_path = work / f"member{j}.csv"
            (result, exc), elapsed = clock.time(
                "emulator", run_guarded, mcfg, gen, seeds, reference, csv_path)
            if exc is None:
                samples["run"].append(elapsed)
            if ledger.record(mcfg, result, exc, csv_path):
                phi_flow[j] = oracle.flow_propagators(result.factors)
            i += 1
            del result
            gc.collect()
    samples.update({f"{k}_kernel": v for k, v in clock.kernel_s.items()})
    return samples, clock, phi_flow


def end_to_end(wl: Workload, cfg_path, seed, seconds, work, ledger):
    samples, clock, phi_flow = measure(wl, cfg_path, seed, seconds, work, ledger)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    selfcheck = oracle_selfcheck(ledger)
    cfg = CONFIG.load_config(str(cfg_path))
    gen = CONFIG.build_generator(cfg)
    phi_oracle = oracle_for(wl, cfg, gen)
    member_errors = {j: oracle.rel_errors(phi, phi_oracle)
                     for j, phi in sorted(phi_flow.items())}
    if not member_errors:
        ledger.problem("no pipeline call succeeded; errors cannot be measured")
    errs = np.array(list(member_errors.values())).reshape(-1, 2)
    if not np.all(np.isfinite(errs)):
        ledger.problem("non-finite error against the oracle")
    cli_parity(ledger, cfg_path, ledger.outcomes[member_seed(seed, 0)], work)

    values = {
        "setup_s": statistics.median(samples["setup"]) * clock.scale("integrator"),
        "run_s": (statistics.median(samples["run"]) * clock.scale("emulator")
                  if samples["run"] else None),
        "peak_rss_mb": peak_rss_mb,
        "phi_rel_err": float(errs[:, 0].mean()) if member_errors else None,
        "state_rel_err": float(errs[:, 1].mean()) if member_errors else None,
        "ok_rate": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    diagnostics = {
        "timings": {k: sample_summary(v) for k, v in samples.items()},
        "kernel_reference_s": calibration.REFERENCE_S,
        "scale": {kind: clock.scale(kind) for kind in calibration.REFERENCE_S},
        "members": wl.members,
        "member_errors": {str(member_seed(seed, j)): e for j, e in member_errors.items()},
        "oracle_selfcheck_phi_rel_err": selfcheck,
    }
    return metrics, diagnostics


def traced(wl: Workload, cfg_path, seed, seconds, work, ledger):
    """Alternate untraced and traced solves (set-up + run) of member 0."""
    untraced_s, traced_s, layer_values, last = [], [], [], None
    csv_path = work / "member0.csv"
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced_s) < MIN_TRACED:
        for tracer in (None, layers.Tracer()):
            hooks = tracer.installed() if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with hooks:
                cfg, gen, seeds, reference = setup(cfg_path)
                result, exc = run_guarded(cfg, gen, seeds, reference, csv_path)
            elapsed = time.perf_counter() - start
            ledger.record(cfg, result, exc, csv_path)
            (traced_s if tracer else untraced_s).append(elapsed)
            if tracer:
                layer_values.append(tracer.metrics())
                last = tracer
            del result
            gc.collect()

    counts = [{k: v[k] for k in layers.EXACT_COUNTS} for v in layer_values]
    if any(c != counts[0] for c in counts):
        ledger.problem(f"traced counts differ between solves: {counts}")
    oracle_selfcheck(ledger)
    cli_parity(ledger, cfg_path, ledger.outcomes[seed], work)

    metrics = {}
    for name, (unit, _) in layers.METRICS.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced_s) - statistics.median(untraced_s)
        else:
            samples = [v[name] for v in layer_values]
            value = None if None in samples else statistics.median_low(samples)
        metrics[name] = {"value": value, "unit": unit}
    diagnostics = {
        "timings": {"untraced_solve_s": sample_summary(untraced_s),
                    "traced_solve_s": sample_summary(traced_s)},
        "absent_functions": sorted(last.missing),
        "spans": last.spans,
    }
    return metrics, diagnostics


def sample_summary(samples) -> dict:
    if not samples:
        return {"n": 0}
    q1, med, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                   if len(samples) > 1 else samples * 3)
    return {"n": len(samples), "min": min(samples), "q1": q1, "median": med, "q3": q3}


# ---------------------------------------------------------------- context

def run_context(seconds, trace) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "svdflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seconds": seconds,
        "trace": trace,
    }


# ------------------------------------------------------------------- main

def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    wl = WORKLOADS[name]
    work = HERE / "_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(dict(wl.config, rng_seed=seed), indent=2))
        ledger = Ledger()
        run = traced if trace else end_to_end
        metrics, diagnostics = run(wl, cfg_path, seed, seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    # a per-layer value may be None (absent); an end-to-end one may not
    correct = not ledger.problems and (
        bool(trace) or all(m["value"] is not None for m in metrics.values()))
    result = {"correct": correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "context": run_context(seconds, trace),
              **diagnostics, "failures": ledger.failures,
              "problems": ledger.problems, "result": result}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for key, m in metrics.items():
        print(f"{name:18s} {key:24s} {m['value']!s:>24} {m['unit']}")
    record.pop("spans", None)
    print(json.dumps({"diagnostics": record}))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    rows, status = [], 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        rows.append((name, result))
    for name, result in rows:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:24s} {m['value']!s:>24} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
