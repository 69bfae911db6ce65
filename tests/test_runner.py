"""The step loop of `run_qsvd` against the classical `step_factors` oracle."""

import dataclasses

import numpy as np
import pytest

from svdflow.config import RunConfig, build_generator
from svdflow.odeflow import seed_factors
from svdflow.runner import run_qsvd
from svdflow.svdeom import compute_snapshot, reconstruct_phi, step_factors


def synthetic_cfg(n, **extra):
    return RunConfig(model_name="synthetic",
                     model_params={"n": n, "seed": 3, "smoothness": 0.1},
                     t_seed=1.0, t_f=1.2, n_steps=40, seed_substeps=5000,
                     ref_refine=10, **extra).validate()


def step_factors_propagators(cfg, gen, seeds):
    """Propagators of a plain `step_factors` loop at every grid point."""
    history = [compute_snapshot(x, gen) for x in seeds[:2]]
    f = seeds[2]
    out = [reconstruct_phi(f)]
    for _ in range(cfg.n_steps):
        snap = compute_snapshot(f, gen)
        f = step_factors(f, history, gen, cfg.step_size, snapshot=snap)
        history = [history[1], snap]
        out.append(reconstruct_phi(f))
    return out


def max_rel_phi_error(result, oracle):
    return max(np.linalg.norm(reconstruct_phi(f) - phi) / np.linalg.norm(phi)
               for f, phi in zip(result.factors, oracle, strict=True))


def test_exact_run_matches_step_factors_on_demo(demo_cfg, demo_gen, demo_seeds,
                                                demo_exact_run):
    oracle = step_factors_propagators(demo_cfg, demo_gen, demo_seeds)
    assert max_rel_phi_error(demo_exact_run, oracle) <= 1e-13


@pytest.mark.parametrize("n", [3, 4, 8])
def test_exact_run_matches_step_factors_on_synthetic(n):
    cfg = synthetic_cfg(n)
    gen = build_generator(cfg)
    seeds = seed_factors(gen, cfg.t_seed, cfg.step_size, nsub=cfg.seed_substeps)
    result = run_qsvd(cfg, gen, seeds)
    oracle = step_factors_propagators(cfg, gen, seeds)
    assert max_rel_phi_error(result, oracle) <= 1e-13


def test_exact_run_ignores_project():
    cfg = synthetic_cfg(4)
    plain = run_qsvd(cfg)
    projected = run_qsvd(dataclasses.replace(cfg, project=True))
    assert np.array_equal(plain.rows, projected.rows)
    for a, b in zip(plain.factors, projected.factors, strict=True):
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
        assert np.array_equal(a.tilde, b.tilde) and a.sigma1 == b.sigma1
