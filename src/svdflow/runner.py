"""Pipelines shared by the CLI and the test harness: reference integration,
factor-flow propagation (one step loop over `qsim.qsvd_step` in every
fidelity mode), and CSV/JSON output."""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .config import RunConfig, build_generator
from .errors import OverflowGuardError, SvdFlowError
from .odeflow import (Generator, apply_step_products, seed_factors, seed_segments,
                      step_products)
from .qsim import ShotPlan, derive_rng, dilation_stack, qsvd_step
from .svdeom import SvdFactors, reconstruct_phi, sigma_plus, start_history

TRAJECTORY_COLUMNS = (
    "t", "P_D_ref", "P_A_ref", "P_D_qsvd", "P_A_qsvd", "sigma1",
    "ortho_err_U", "ortho_err_V", "sigma_mod_err", "acceptance_rate",
)
# Grid points tabulated together, their dilation circuits as one stack. A
# performance constant only: each grid point's circuit draws its own stream.
GRID_BLOCK = 16


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


def _grid_states(cfg: RunConfig, gen: Generator, x0: np.ndarray) -> np.ndarray:
    """x0 propagated to every factor-flow grid point: [0, t_seed] over the
    seeding's `seed_segments`, memoized on `gen` and so shared with
    `seed_factors`, then each of the n_steps output intervals with
    ref_refine substeps. Entry e of the joint product ends at grid point
    max(0, e - 2), and an overflow carries that grid point as its step."""
    segments = (*seed_segments(cfg.t_seed, cfg.step_size, cfg.seed_substeps),
                (cfg.t_seed, cfg.t_f, cfg.n_steps, cfg.ref_refine))
    try:
        return apply_step_products(step_products(gen, segments), x0)[2:]
    except OverflowGuardError as exc:
        step = max(0, exc.step - 2)
        raise OverflowGuardError(
            f"non-finite reference by grid point {step} "
            f"(t={cfg.t_seed + step * cfg.step_size:g})", step=step) from exc


def compute_reference(cfg: RunConfig, gen: Generator | None = None) -> ReferenceResult:
    """RK2 populations at t=0 and on the factor-flow grid [t_seed, t_f].

    The segment [0, t_seed] is the seeding's three `seed_segments`, whose
    step products `seed_factors` on the same generator shares. Each of the
    n_steps output intervals uses ref_refine substeps.
    """
    gen = build_generator(cfg) if gen is None else gen
    v0 = initial_state(gen.dim)
    states = _grid_states(cfg, gen, v0)
    h = cfg.step_size
    times = np.concatenate([[0.0, cfg.t_seed],
                            (cfg.t_seed + h * np.arange(cfg.n_steps)) + h])
    return ReferenceResult(times=times, states=np.vstack([v0, states]))


def oracle_propagators(cfg: RunConfig, gen: Generator) -> list[np.ndarray]:
    """Finely integrated propagators at every factor-flow grid point."""
    return list(_grid_states(cfg, gen, np.eye(gen.dim)))


@dataclass(frozen=True)
class QsvdRunResult:
    columns: tuple
    rows: np.ndarray      # shape (n_steps + 1, len(columns))
    summary: dict
    factors: list         # SvdFactors at every grid point


def _tabulate(cfg: RunConfig, plan: ShotPlan | None, ref_grid: np.ndarray,
              factors: list) -> np.ndarray:
    """CSV rows of the factor states at grid points 0 .. len(factors) - 1,
    one stacked pass per GRID_BLOCK of them. With cfg.dilation a measured run
    reads the acceptance rates off the block's dilation circuits, run as one
    stack (grid point k draws from derive_rng(rng_seed, k, 3) and a failure
    carries k), else off Phi v0; so the earliest starved dilation raises.
    Acceptance and orthogonality are reduced per point as 1-d dots with a
    float sigma1**2, as a point alone reduces them, to keep every byte."""
    table = []
    for start in range(0, len(factors), GRID_BLOCK):
        block = factors[start:start + GRID_BLOCK]
        steps = range(start, start + len(block))
        f = SvdFactors(*(np.array([getattr(x, name) for x in block])
                         for name in ("u", "v", "tilde", "sigma1", "t")))
        v0 = initial_state(f.dim)
        p_q = reconstruct_phi(f) @ v0
        if cfg.dilation and plan is not None:
            acc = dilation_stack(v0, block, plan, [derive_rng(cfg.rng_seed, k, 3)
                                                   for k in steps], steps).acceptance_rate
        else:
            acc = [p @ p / x.sigma1**2 for p, x in zip(p_q, block)]
        uv = np.stack([f.u, f.v])
        defects = (uv.mT @ uv - np.eye(f.dim)).reshape(2 * len(block), -1)
        ortho = np.sqrt([d @ d for d in defects]).reshape(2, -1)
        sigma_err = np.max(np.abs(np.abs(sigma_plus(f.tilde)) - 1.0), axis=-1)
        table.append(np.column_stack([f.t, ref_grid[steps, :2],
                                      p_q[:, :2], f.sigma1, *ortho, sigma_err, acc]))
    return np.concatenate(table)


def run_qsvd(cfg: RunConfig, gen: Generator | None = None,
             seeds: tuple | None = None,
             reference: ReferenceResult | None = None) -> QsvdRunResult:
    """Seed, propagate the SVD factors over [t_seed, t_f], and tabulate
    populations against the classical reference.

    `cfg` is validated first. Every fidelity mode runs the same step loop
    over `qsvd_step`, under its ShotPlan: none for "exact", else one with
    cfg.noise (zero outside "noisy"). The loop only steps; `_tabulate` then
    reads the grid points out, also those built before a guard error, so an
    earlier starved dilation is raised in its place. Guard errors carry the
    step they tripped at.
    """
    t_start = time.perf_counter()
    cfg.validate()
    plan = None if cfg.mode == "exact" else ShotPlan(cfg.n_shots, cfg.noise)
    gen = build_generator(cfg) if gen is None else gen
    h = cfg.step_size
    if seeds is None:
        seeds = seed_factors(gen, cfg.t_seed, h, nsub=cfg.seed_substeps)
    if reference is None:
        reference = compute_reference(cfg, gen)
    ref_grid = reference.grid_states

    history = start_history(seeds, gen)
    factors = [seeds[2]]
    try:
        for i in range(cfg.n_steps):
            state, history = qsvd_step(
                factors[-1], history, gen, h, plan, master_seed=cfg.rng_seed,
                step_index=i, project=cfg.project)
            factors.append(state)
    except SvdFlowError:
        _tabulate(cfg, plan, ref_grid, factors)
        raise

    table = _tabulate(cfg, plan, ref_grid, factors)
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
        "config": asdict(cfg),
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
    """Header and data of a CSV; ValueError when it has no data rows, a
    non-finite value, or data rows not as wide as the header."""
    with open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data: raised below
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not data.size:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {len(header)} header columns but "
                         f"{data.shape[1]} data columns")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite value")
    return header, data
