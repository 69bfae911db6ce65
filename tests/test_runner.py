"""The step loop of `run_qsvd` against the classical `step_factors` oracle."""

import dataclasses

import numpy as np
import pytest

from conftest import counting
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
from svdflow.runner import GRID_BLOCK, compute_reference, initial_state, run_qsvd
from svdflow.svdeom import (
    SvdFactors,
    reconstruct_phi,
    sigma_plus,
    start_history,
    step_factors,
)


def synthetic_cfg(n, **extra):
    return RunConfig(model_name="synthetic",
                     model_params={"n": n, "seed": 3, "smoothness": 0.1},
                     t_seed=1.0, t_f=1.2, n_steps=40, seed_substeps=5000,
                     ref_refine=10, **extra).validate()


def step_factors_propagators(cfg, gen, seeds):
    """Propagators of a plain `step_factors` loop at every grid point."""
    history = start_history(seeds, gen)
    f = seeds[2]
    out = [reconstruct_phi(f)]
    for _ in range(cfg.n_steps):
        f, history = step_factors(f, history, gen, cfg.step_size)
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


def record_row_oracle(p_ref, f, dilated):
    """The CSV row of one grid point, as it was built before grid points were
    tabulated in blocks: the specification of `runner._tabulate`. The
    acceptance rate is NaN when it is left to the dilation circuit."""
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


NOISE = NoiseSpec(p1=1e-3, p2=1e-2, p_ro=1e-2)


# Every row of a block-tabulated run, bit for bit as the per-point record.
# Demo exact row 246 is where an array power sigma1**2 differs from the
# per-point float power in the last bit. 401 and 41 grid points end in a
# partial block; the dilated run's 48 in a full one.
@pytest.mark.parametrize("case", ["demo_exact", "n8_exact", "n3_noisy",
                                  "n3_sampled_dilation"])
def test_block_record_matches_the_per_point_record(request, case):
    if case == "demo_exact":
        cfg = request.getfixturevalue("demo_cfg")
        result = request.getfixturevalue("demo_exact_run")
        ref = request.getfixturevalue("demo_reference")
    else:
        cfg = {"n8_exact": lambda: synthetic_cfg(8),
               "n3_noisy": lambda: synthetic_cfg(3, mode="noisy", noise=NOISE,
                                                 n_shots=10**4),
               "n3_sampled_dilation": lambda: dataclasses.replace(synthetic_cfg(
                   3, mode="sampled", n_shots=10**4, project=True, dilation=True),
                   n_steps=47, t_f=1.235).validate()}[case]()
        result, ref = run_qsvd(cfg), compute_reference(cfg)
    dilated = cfg.dilation and cfg.mode != "exact"
    assert (len(result.rows) % GRID_BLOCK == 0) == dilated
    plan = ShotPlan(cfg.n_shots, cfg.noise)
    for k, (row, f) in enumerate(zip(result.rows, result.factors, strict=True)):
        want = record_row_oracle(ref.grid_states[k], f, dilated)
        if dilated:
            want[-1] = dilation_circuit(initial_state(f.dim), f, plan,
                                        derive_rng(cfg.rng_seed, k, 3)).acceptance_rate
        assert np.array_equal(row, want), k


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
        # run_qsvd validates too, where it would run without the noise
        with pytest.raises(ConfigError, match=f"'{mode}'"):
            run_qsvd(dataclasses.replace(cfg, mode=mode, noise=noise))
    # the same spec does act in noisy mode
    plain = run_qsvd(cfg)
    noisy = run_qsvd(dataclasses.replace(cfg, mode="noisy", noise=noise).validate())
    assert not np.array_equal(noisy.rows, plain.rows)


@pytest.mark.parametrize("mode", ["sampled", "noisy"])
def test_dilation_column_draws_the_derive_rng_stream(small_cfg, mode):
    # grid point i draws derive_rng(rng_seed, i, 3), as its circuit would
    # alone; the 71 grid points end in a partial stack of 7
    noise = NoiseSpec(p1=1e-3, p2=1e-2, p_ro=1e-2) if mode == "noisy" else NoiseSpec()
    cfg = dataclasses.replace(measured_demo_cfg(small_cfg, n_steps=70), mode=mode,
                              noise=noise).validate()
    result = run_qsvd(cfg)
    plan, v0 = ShotPlan(cfg.n_shots, noise), initial_state(2)
    want = [dilation_circuit(v0, f, plan, derive_rng(cfg.rng_seed, i, 3)).acceptance_rate
            for i, f in enumerate(result.factors)]
    assert np.array_equal(result.rows[:, -1], want)


def test_second_run_evaluates_a_only_at_snapshots(small_cfg):
    # ensemble loops call run_qsvd(cfg, gen) once per member on one generator:
    # the first run memoizes every step product on it, so a later member
    # evaluates A only at its n_steps + 2 snapshot times
    counted, sizes = counting(build_generator(small_cfg))
    run_qsvd(small_cfg, counted)
    assert sum(sizes) > 2 * small_cfg.n_steps * small_cfg.ref_refine
    sizes.clear()
    run_qsvd(dataclasses.replace(small_cfg, mode="sampled", rng_seed=9), counted)
    assert sizes == [1] * (small_cfg.n_steps + 2)


def test_unknown_mode_is_a_config_error(small_cfg):
    # raised before seeding or any step: A(t) is never evaluated
    def untouched(t):
        raise AssertionError("generator evaluated")

    with pytest.raises(ConfigError, match="bogus") as excinfo:
        run_qsvd(dataclasses.replace(small_cfg, mode="bogus"), Generator(2, untouched))
    assert excinfo.value.step is None


# Earliest error: the grid points built when the step loop raises are
# tabulated first, and the earliest of their dilation failures is raised
# instead. The rng seed is the smallest >= 8 whose one-shot run first fails on
# a dilation that keeps no shot at a grid point in 4..7: at seed 16 that is
# grid point 6 (tests/test_cli.py names the same step from the command line).
# The 50-step horizon keeps small_cfg's step size, and with it the first 21
# grid points, so that a guard planted past the first block can fire. A
# dilation failure is raised over the loop's, which the loop reached.

@pytest.mark.parametrize("fail_at,shots,want", [
    (8, 1, (PostSelectionStarvedError, 6)),    # starved dilation 6 precedes it
    (3, 1, (StepFailureError, 3)),             # the guard precedes grid point 6
    (8, 10_000, (StepFailureError, 8)),        # no dilation before it fails
    (40, 1, (PostSelectionStarvedError, 6)),   # dilation 6 precedes it by more than one block
])
def test_earliest_error_wins(small_cfg, monkeypatch, fail_at, shots, want):
    cfg = measured_demo_cfg(small_cfg, t_f=small_cfg.t_seed + 50 * small_cfg.step_size,
                            n_steps=50, n_shots=shots, rng_seed=16)
    assert cfg.step_size == small_cfg.step_size

    def failing_step(state, *args, step_index, **kwargs):
        if step_index == fail_at:
            raise StepFailureError("planted guard", step_index)
        return qsim.qsvd_step(state, *args, step_index=step_index, **kwargs)

    monkeypatch.setattr(runner, "qsvd_step", failing_step)
    with pytest.raises(SvdFlowError) as excinfo:
        run_qsvd(cfg)
    assert (type(excinfo.value), excinfo.value.step) == want
    if want[0] is PostSelectionStarvedError:
        assert excinfo.value.__context__.step == fail_at
