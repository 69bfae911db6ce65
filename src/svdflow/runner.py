"""Pipelines shared by the CLI and the test harness: reference integration,
factor-flow propagation (one step loop over `qsim.qsvd_step` in every
fidelity mode), and CSV/JSON output."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .config import MODES, RunConfig, build_generator, config_as_dict
from .errors import ConfigError, SvdFlowError
from .odeflow import Generator, apply_step_products, seed_factors, step_products
from .qsim import (
    STREAM_BLOCK,
    NoiseSpec,
    ShotPlan,
    dilation_stack,
    qsvd_step,
    release_streams,
    stream_rng,
)
from .svdeom import SvdFactors, reconstruct_phi, sigma_plus, snapshot_from_arrays

TRAJECTORY_COLUMNS = (
    "t", "P_D_ref", "P_A_ref", "P_D_qsvd", "P_A_qsvd", "sigma1",
    "ortho_err_U", "ortho_err_V", "sigma_mod_err", "acceptance_rate",
)
# Grid points whose dilation circuits run as one stack. It divides
# STREAM_BLOCK, so the grid points of a stack share the block of stream seeds
# that the step loop has cached when the stack runs.
DILATION_STACK = 16
assert STREAM_BLOCK % DILATION_STACK == 0


def initial_state(dim: int) -> np.ndarray:
    v0 = np.zeros(dim)
    v0[0] = 1.0
    return v0


@dataclass(frozen=True)
class ReferenceResult:
    times: np.ndarray       # 0 followed by the factor-flow grid
    states: np.ndarray      # populations at those times

    @property
    def grid_states(self) -> np.ndarray:
        return self.states[1:]

    @property
    def columns(self) -> tuple:
        """t, then P_D_ref, P_A_ref and P_2_ref ... P_{n-1}_ref."""
        n = self.states.shape[1]
        names = ["P_D", "P_A", *(f"P_{j}" for j in range(2, n))]
        return ("t", *(f"{name}_ref" for name in names))

    @property
    def rows(self) -> np.ndarray:
        return np.column_stack([self.times, self.states])


def _grid_step_products(cfg: RunConfig, gen: Generator) -> np.ndarray:
    """Step-product deviations onto every factor-flow grid point: [0, t_seed]
    on the seeding grid, then each of the n_steps output intervals with
    ref_refine substeps. Entry k ends at grid point k, so an overflow's step
    is the grid index."""
    return step_products(gen, [
        (0.0, cfg.t_seed, 1, cfg.seed_substeps),
        (cfg.t_seed, cfg.t_f, cfg.n_steps, cfg.ref_refine),
    ])


def compute_reference(cfg: RunConfig, gen: Generator | None = None) -> ReferenceResult:
    """RK2 populations at t=0 and on the factor-flow grid [t_seed, t_f].

    The segment [0, t_seed] uses the seeding grid; each of the n_steps
    output intervals uses ref_refine substeps.
    """
    gen = build_generator(cfg) if gen is None else gen
    v0 = initial_state(gen.dim)
    states = apply_step_products(_grid_step_products(cfg, gen), v0)
    h = cfg.step_size
    times = np.concatenate([[0.0, cfg.t_seed],
                            (cfg.t_seed + h * np.arange(cfg.n_steps)) + h])
    return ReferenceResult(times=times, states=np.vstack([v0, states]))


def oracle_propagators(cfg: RunConfig, gen: Generator) -> list[np.ndarray]:
    """Finely integrated propagators at every factor-flow grid point."""
    return list(apply_step_products(_grid_step_products(cfg, gen), np.eye(gen.dim)))


@dataclass(frozen=True)
class QsvdRunResult:
    columns: tuple
    rows: np.ndarray      # shape (n_steps + 1, len(columns))
    summary: dict
    factors: list         # SvdFactors at every grid point


def _record_row(p_ref: np.ndarray, f: SvdFactors, dilated: bool) -> list[float]:
    """CSV row at one grid point. The acceptance rate is NaN when it is left
    to the dilation circuit (see `_dilation_column`), else read from Phi v0."""
    v0 = initial_state(f.dim)
    p_q = reconstruct_phi(f) @ v0
    acc = np.nan if dilated else float(p_q @ p_q / f.sigma1**2)
    eye = np.eye(f.dim)
    return [
        f.t, p_ref[0], p_ref[1], p_q[0], p_q[1], f.sigma1,
        float(np.linalg.norm(f.u.T @ f.u - eye)),
        float(np.linalg.norm(f.v.T @ f.v - eye)),
        float(np.max(np.abs(np.abs(sigma_plus(f.tilde)) - 1.0))),
        acc,
    ]


def _dilation_column(cfg: RunConfig, plan: ShotPlan, factors: list,
                     steps: list[int]) -> np.ndarray:
    """Acceptance rates of the dilation circuits at the grid points `steps`,
    run as one stack; grid point k draws the stream (rng_seed, k, 3), and a
    failure carries the grid point it belongs to."""
    n = factors[0].dim
    return dilation_stack(
        initial_state(n), [factors[k] for k in steps], plan,
        lambda i: stream_rng(cfg.rng_seed, n, steps[i], 3), steps).acceptance_rate


def run_qsvd(cfg: RunConfig, gen: Generator | None = None,
             seeds: tuple | None = None,
             reference: ReferenceResult | None = None) -> QsvdRunResult:
    """Seed, propagate the SVD factors over [t_seed, t_f], and tabulate
    populations against the classical reference.

    Every fidelity mode runs the same step loop over `qsvd_step`; the mode
    is read here alone, as its ShotPlan: none for "exact", a noise-free one
    for "sampled", one with cfg.noise for "noisy" (`RunConfig.validate`
    rejects a nonzero cfg.noise in the other modes).

    With cfg.dilation a measured run reads the acceptance column off the
    dilation circuit. Grid point k's circuit is queued once the rest of its
    row is built, and every DILATION_STACK queued grid points run as one
    stacked circuit, each drawing the stream it would draw alone. When the
    loop raises, the queued circuits run first: their grid points precede
    the failure, so the earliest of their errors is raised in its place.
    Guard errors carry the step they tripped at.
    """
    t_start = time.perf_counter()
    if cfg.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    plan = None if cfg.mode == "exact" else ShotPlan(
        cfg.n_shots, cfg.noise if cfg.mode == "noisy" else NoiseSpec())
    gen = build_generator(cfg) if gen is None else gen
    h = cfg.step_size
    if seeds is None:
        seeds = seed_factors(gen, cfg.t_seed, h, nsub=cfg.seed_substeps,
                             tol_degen=cfg.tol_degen)
    if reference is None:
        reference = compute_reference(cfg, gen)
    ref_grid = reference.grid_states

    history = [snapshot_from_arrays(f.u, f.tilde, gen, f.t, cfg.tol_degen, cfg.tol_sat)
               for f in seeds[:2]]
    factors = [seeds[2]]
    dilated = cfg.dilation and plan is not None
    rows, queue = [], []  # queue: grid points whose dilation has not run

    def flush():
        steps = queue.copy()
        queue.clear()
        if steps:
            for k, acc in zip(steps, _dilation_column(cfg, plan, factors, steps)):
                rows[k][-1] = float(acc)

    def record(k):
        rows.append(_record_row(ref_grid[k], factors[k], dilated))
        if dilated:
            queue.append(k)
            if len(queue) == DILATION_STACK:
                flush()

    try:
        try:
            record(0)
            for i in range(cfg.n_steps):
                state, snap = qsvd_step(
                    factors[-1], history, gen, h, plan, master_seed=cfg.rng_seed,
                    step_index=i, project=cfg.project, tol_degen=cfg.tol_degen,
                    tol_sat=cfg.tol_sat)
                history = [history[1], snap]
                factors.append(state)
                record(i + 1)
            flush()
        except SvdFlowError:
            flush()
            raise
    finally:
        queue.clear()
        release_streams()

    table = np.array(rows)
    dpd = np.abs(table[:, 3] - table[:, 1])
    dpa = np.abs(table[:, 4] - table[:, 2])
    summary = {
        "mode": cfg.mode,
        "rng_seed": cfg.rng_seed,
        "n_steps": cfg.n_steps,
        "n_shots": cfg.n_shots,
        "max_abs_dP_D": float(dpd.max()),
        "mean_abs_dP_D": float(dpd.mean()),
        "max_abs_dP_A": float(dpa.max()),
        "mean_abs_dP_A": float(dpa.mean()),
        "wall_time_s": time.perf_counter() - t_start,
        "config": config_as_dict(cfg),
    }
    return QsvdRunResult(columns=TRAJECTORY_COLUMNS, rows=table,
                         summary=summary, factors=factors)


def write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and data of a CSV; ValueError when the data rows are not as
    wide as the header."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size and data.shape[1] != len(header):
        raise ValueError(f"{path}: {len(header)} header columns but "
                         f"{data.shape[1]} data columns")
    return header, data
