"""Shared fixtures: the default demo pipeline's seeds, reference trajectory,
fine-grained oracle propagators and exact factor-flow run are computed once
per session and shared."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from svdflow.config import RunConfig, build_generator
from svdflow.models import synthetic_generator
from svdflow.odeflow import Generator, seed_factors
from svdflow.qsim import evolve_sigma_phase, propagate_row, read_phases, read_rows, sample_probs
from svdflow.runner import compute_reference, oracle_propagators, run_qsvd

settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")


@pytest.fixture(scope="session")
def demo_cfg():
    return RunConfig().validate()


@pytest.fixture(scope="session")
def demo_gen(demo_cfg):
    return build_generator(demo_cfg)


@pytest.fixture(scope="session")
def demo_seeds(demo_cfg, demo_gen):
    return seed_factors(demo_gen, demo_cfg.t_seed, demo_cfg.step_size,
                        nsub=demo_cfg.seed_substeps)


@pytest.fixture(scope="session")
def demo_reference(demo_cfg, demo_gen):
    return compute_reference(demo_cfg, demo_gen)


@pytest.fixture(scope="session")
def demo_oracles(demo_cfg, demo_gen):
    return oracle_propagators(demo_cfg, demo_gen)


@pytest.fixture(scope="session")
def demo_exact_run(demo_cfg, demo_gen, demo_seeds, demo_reference):
    return run_qsvd(demo_cfg, demo_gen, demo_seeds, demo_reference)


@pytest.fixture(scope="session")
def small_cfg():
    """A cheap non-default configuration for CLI round-trips."""
    return RunConfig(t_seed=5.0, t_f=50.0, n_steps=20, n_shots=10_000,
                     seed_substeps=2000, ref_refine=10).validate()


def constant(m):
    """The generator A(t) = m, at a time or broadcast on an array of times."""
    m = np.asarray(m, dtype=float)
    return Generator(dim=m.shape[0],
                     matrix=lambda t: np.broadcast_to(m, np.shape(t) + m.shape))


def skew_generator(n, seed, smoothness=0.0):
    """Skew-projected synthetic generator; its exact flow is orthogonal."""
    base = synthetic_generator(n, seed, smoothness)

    def matrix(t):
        m = base(t)
        return (m - m.mT) / 2.0

    return Generator(dim=n, matrix=matrix)


def counting(gen):
    """A `dataclasses.replace` copy of gen, as perfbench's tracer makes, and
    the list its matrix appends the number of times of each call to."""
    sizes = []

    def matrix(t):
        sizes.append(np.size(t))
        return gen.matrix(t)

    return dataclasses.replace(gen, matrix=matrix), sizes


def measured_rows(rows, cay_zt, plan, rng):
    """The rows' circuits drawn from rng and read back: a row step on its own."""
    probs = propagate_row(rows, cay_zt, plan.noise)
    return read_rows(rows, cay_zt, sample_probs(probs, plan, rng), plan.n_shots)


def measured_phases(phases, lplus, h, plan, rng):
    """The phase interferometers drawn from rng and read: a phase step on its own."""
    return read_phases(sample_probs(evolve_sigma_phase(phases, lplus, h, plan.noise),
                                    plan, rng))


def stack_factors(factors):
    """Factor states as one state whose fields carry a leading member axis,
    as `runner._tabulate` stacks a block of grid points."""
    from svdflow.svdeom import SvdFactors

    return SvdFactors(*(np.array([getattr(f, field.name) for f in factors])
                        for field in dataclasses.fields(SvdFactors)))


def random_factors(rng, n):
    """Random well-separated SVD factors for property tests."""
    from svdflow.svdeom import SvdFactors

    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    tilde = np.sort(rng.uniform(0.05, 0.9, n))[::-1]
    tilde = np.concatenate([[1.0], tilde[1:]])
    sigma1 = rng.uniform(0.5, 2.0)
    return SvdFactors(u=q1, v=q2, tilde=tilde, sigma1=sigma1, t=0.0)
