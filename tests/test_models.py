import inspect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import skew_generator
from svdflow.config import RunConfig, build_generator
from svdflow.errors import ConfigError, InvalidInputError
from svdflow.models import (
    MODELS,
    RateChannel,
    analytic_two_state,
    synthetic_generator,
    two_state_demo,
)
from svdflow.odeflow import apply_step_products, propagator, step_products
from svdflow.svdeom import TOL_DEGEN, TOL_SAT


def constant_model(k_da, k_ad):
    return two_state_demo(k_da, k_da, 1.0, k_ad, k_ad, 1.0)


class TestRateChannel:
    def test_endpoints(self):
        ch = RateChannel(k0=2.0, k_inf=0.5, tau=0.1)
        assert ch.rate(0.0) == 2.0
        assert np.isclose(ch.rate(100.0), 0.5)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            RateChannel(-1.0, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            RateChannel(1.0, 0.0, 0.0)


class TestTwoStateGenerator:
    def test_zero_rates(self):
        gen = constant_model(0.0, 0.0)
        assert np.array_equal(gen(3.0), np.zeros((2, 2)))

    def test_constant_rates(self):
        gen = constant_model(2.0, 1.0)
        assert np.array_equal(gen(0.5), np.array([[-2.0, 1.0], [2.0, -1.0]]))

    @given(st.floats(0.0, 1e4))
    def test_column_sums_vanish(self, t):
        gen = two_state_demo()
        assert np.abs(gen(t).sum(axis=0)).max() == 0.0


class TestAnalyticTwoState:
    def test_initial_condition(self):
        assert analytic_two_state(2.0, 1.0, 0.0) == (1.0, 0.0)

    def test_equilibrium(self):
        p_d, p_a = analytic_two_state(2.0, 1.0, 1e6)
        assert np.isclose(p_d, 1.0 / 3.0)
        assert np.isclose(p_a, 2.0 / 3.0)

    def test_one_relaxation_time(self):
        k_da, k_ad = 2.0, 1.0
        k = k_da + k_ad
        p_d, _ = analytic_two_state(k_da, k_ad, 1.0 / k)
        assert np.isclose(p_d, k_ad / k + (k_da / k) / np.e)

    def test_matches_integrator(self):
        k_da, k_ad = 1.3, 0.4
        gen = constant_model(k_da, k_ad)
        d = step_products(gen, [(0.0, 2.0, 1, 20000)])
        state = apply_step_products(d, np.array([1.0, 0.0]))[-1]
        p_d, p_a = analytic_two_state(k_da, k_ad, 2.0)
        assert np.abs(state - [p_d, p_a]).max() <= 1e-6


class TestSyntheticGenerator:
    def test_zero_smoothness_is_constant(self):
        gen = synthetic_generator(3, seed=2, smoothness=0.0)
        assert np.array_equal(gen(0.0), gen(17.3))

    def test_seed_determinism(self):
        a = synthetic_generator(3, seed=4, smoothness=0.5)
        b = synthetic_generator(3, seed=4, smoothness=0.5)
        assert np.array_equal(a(1.7), b(1.7))

    def test_rejects_small_dimension(self):
        with pytest.raises(InvalidInputError):
            synthetic_generator(1, seed=0, smoothness=0.0)

    def test_skew_variant_orthogonal_flow(self):
        gen = skew_generator(3, seed=6, smoothness=0.3)
        assert np.array_equal(gen(0.9), -gen(0.9).T)
        phi = propagator(gen, 0.0, 1.0, 2000)
        assert np.linalg.norm(phi.T @ phi - np.eye(3)) <= 1e-5


# the hand-picked cases first, so their test ids stay, then NaN for every
# other float-default parameter of every config model
NON_FINITE_PARAMS = [
    ("two_state_demo", {"k0_da": np.nan}), ("two_state_demo", {"kinf_da": np.inf}),
    ("two_state_demo", {"tau_ad": np.nan}), ("synthetic", {"smoothness": np.nan}),
    ("synthetic", {"omega": np.inf}), ("synthetic", {"decay": np.nan})]
_COVERED = {(name, key) for name, params in NON_FINITE_PARAMS for key in params}
NON_FINITE_PARAMS += [
    (name, {key: np.nan}) for name, model in MODELS.items()
    for key, p in inspect.signature(model).parameters.items()
    if isinstance(p.default, float) and (name, key) not in _COVERED]


@pytest.mark.parametrize("model,params", NON_FINITE_PARAMS)
def test_non_finite_parameter_rejected_by_the_model(model, params):
    # RateChannel and synthetic_generator raise also outside RunConfig.validate,
    # which build_generator does not call; it maps the error to exit 2
    with pytest.raises(ConfigError, match="finite") as excinfo:
        build_generator(RunConfig(model_name=model, model_params=params))
    assert isinstance(excinfo.value.__cause__, InvalidInputError)
    assert excinfo.value.exit_code == 2


def test_default_demo_guard_corridor(demo_exact_run):
    """The shipped demo parameters keep sigma~2 inside the guard corridor
    (TOL_DEGEN-safe away from 1 and from 0) over the whole run."""
    tildes = np.array([f.tilde[1] for f in demo_exact_run.factors])
    assert tildes.max() <= 1.0 - TOL_SAT
    assert (1.0 - tildes).min() >= TOL_DEGEN
    assert tildes.min() > 0.0
