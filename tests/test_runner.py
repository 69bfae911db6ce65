"""The step loop of `run_qsvd` against the classical `step_factors` oracle."""

import dataclasses

import numpy as np
import pytest

from svdflow import qsim, runner
from svdflow.config import RunConfig, build_generator
from svdflow.errors import (
    ConfigError,
    PostSelectionStarvedError,
    StepFailureError,
    SvdFlowError,
)
from svdflow.odeflow import Generator, seed_factors
from svdflow.qsim import NoiseSpec, ShotPlan, derive_rng, dilation_circuit
from svdflow.runner import initial_state, run_qsvd
from svdflow.svdeom import SvdFactors, reconstruct_phi, snapshot_from_arrays, step_factors


def synthetic_cfg(n, **extra):
    return RunConfig(model_name="synthetic",
                     model_params={"n": n, "seed": 3, "smoothness": 0.1},
                     t_seed=1.0, t_f=1.2, n_steps=40, seed_substeps=5000,
                     ref_refine=10, **extra).validate()


def step_factors_propagators(cfg, gen, seeds):
    """Propagators of a plain `step_factors` loop at every grid point."""
    history = [snapshot_from_arrays(x.u, x.tilde, gen, x.t) for x in seeds[:2]]
    f = seeds[2]
    out = [reconstruct_phi(f)]
    for _ in range(cfg.n_steps):
        snap = snapshot_from_arrays(f.u, f.tilde, gen, f.t)
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


@pytest.mark.parametrize("mode", ["exact", "sampled", "noisy"])
def test_every_grid_point_holds_the_one_factor_state(mode):
    # n = 3 pads to 4 amplitudes on the device
    noise = NoiseSpec(p1=1e-3, p2=1e-2, p_ro=1e-2) if mode == "noisy" else NoiseSpec()
    cfg = dataclasses.replace(synthetic_cfg(3), mode=mode, noise=noise, n_shots=10**4,
                              project=True).validate()
    gen = build_generator(cfg)
    seeds = seed_factors(gen, cfg.t_seed, cfg.step_size, nsub=cfg.seed_substeps)
    result = run_qsvd(cfg, gen, seeds)
    assert result.factors[0] is seeds[2]
    assert len(result.factors) == cfg.n_steps + 1
    for f in result.factors:
        assert type(f) is SvdFactors
        assert f.tilde[0] == 1.0
        assert np.all((f.phases >= 0.0) & (f.phases <= np.pi))


# The mode is read once, in run_qsvd: exact runs without a ShotPlan, sampled
# with a noise-free one and noisy with one that carries cfg.noise.

def measured_demo_cfg(small_cfg, **extra):
    return dataclasses.replace(small_cfg, mode="sampled", project=True,
                               dilation=True, **extra).validate()


def test_noise_free_noisy_mode_matches_sampled(small_cfg):
    cfg = measured_demo_cfg(small_cfg)
    sampled = run_qsvd(cfg)
    noisy = run_qsvd(dataclasses.replace(cfg, mode="noisy"))
    assert np.array_equal(noisy.rows, sampled.rows)


def test_sampled_mode_rejects_configured_noise(small_cfg):
    cfg = measured_demo_cfg(small_cfg)
    noise = NoiseSpec(p1=1e-3, p2=1e-2, p_ro=1e-2)
    for mode in ("sampled", "exact"):
        with pytest.raises(ConfigError, match="mode"):
            dataclasses.replace(cfg, mode=mode, noise=noise).validate()
    # the same spec does act in noisy mode
    plain = run_qsvd(cfg)
    noisy = run_qsvd(dataclasses.replace(cfg, mode="noisy", noise=noise).validate())
    assert not np.array_equal(noisy.rows, plain.rows)


@pytest.mark.parametrize("mode", ["sampled", "noisy"])
def test_dilation_column_draws_the_derive_rng_stream(small_cfg, mode):
    # grid point i draws derive_rng(rng_seed, i, 3), as its circuit would
    # alone; the 71 grid points cross a stream block and end in a partial
    # stack of 7
    noise = NoiseSpec(p1=1e-3, p2=1e-2, p_ro=1e-2) if mode == "noisy" else NoiseSpec()
    cfg = dataclasses.replace(measured_demo_cfg(small_cfg, n_steps=70), mode=mode,
                              noise=noise).validate()
    result = run_qsvd(cfg)
    assert qsim._stream_block.cache_info().currsize == 0  # released with the solve
    plan, v0 = ShotPlan(cfg.n_shots, noise), initial_state(2)
    want = [dilation_circuit(v0, f, plan, derive_rng(cfg.rng_seed, i, 3)).acceptance_rate
            for i, f in enumerate(result.factors)]
    assert np.array_equal(result.rows[:, -1], want)


def test_unknown_mode_is_a_config_error(small_cfg):
    # raised before seeding or any step: A(t) is never evaluated
    def untouched(t):
        raise AssertionError("generator evaluated")

    with pytest.raises(ConfigError, match="bogus") as excinfo:
        run_qsvd(dataclasses.replace(small_cfg, mode="bogus"), Generator(2, untouched))
    assert excinfo.value.step is None


# Earliest error: the dilations queued when the step loop raises run first,
# and the earliest of their failures is raised instead. With one shot per
# circuit and rng seed 8, grid point 5 is the first whose dilation keeps no
# shot (tests/test_cli.py names the same step from the command line).

@pytest.mark.parametrize("fail_at,shots,want", [
    (8, 1, (PostSelectionStarvedError, 5)),    # starved dilation 5 still queued
    (3, 1, (StepFailureError, 3)),             # the guard precedes grid point 5
    (8, 10_000, (StepFailureError, 8)),        # no queued dilation fails
])
def test_earliest_error_wins(small_cfg, monkeypatch, fail_at, shots, want):
    cfg = measured_demo_cfg(small_cfg, n_shots=shots, rng_seed=8)

    def failing_step(state, *args, step_index, **kwargs):
        if step_index == fail_at:
            raise StepFailureError("planted guard", step_index)
        return qsim.qsvd_step(state, *args, step_index=step_index, **kwargs)

    monkeypatch.setattr(runner, "qsvd_step", failing_step)
    with pytest.raises(SvdFlowError) as excinfo:
        run_qsvd(cfg)
    assert (type(excinfo.value), excinfo.value.step) == want
    assert qsim._stream_block.cache_info().currsize == 0
