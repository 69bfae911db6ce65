import dataclasses

import numpy as np
import pytest
import scipy.linalg

from svdflow import matcore
from svdflow.errors import DegenerateSingularValuesError, InvalidInputError, OverflowGuardError
from svdflow.models import (
    DEFAULT_DEMO_MODEL,
    skew_generator,
    synthetic_generator,
    two_state_generator,
)
from svdflow.odeflow import (
    CHUNK_ELEMENTS,
    Generator,
    apply_step_products,
    propagator,
    seed_factors,
    step_products,
)
from svdflow.runner import compute_reference


def constant(m):
    m = np.asarray(m, dtype=float)
    return Generator(dim=m.shape[0], matrix=lambda t: m)


def kernel_states(gen, v0, t0, t1, intervals, substeps=1):
    """States after each interval, through the step-product kernel."""
    d = step_products(gen, [(t0, t1, intervals, substeps)])
    return apply_step_products(d, v0)


def one_step(gen, v, t, h):
    """One sequential RK2 step of a state vector."""
    return propagator(gen, t, t + h, 1, phi0=v[:, None])[:, 0]


class TestRk2Step:
    def test_null_dynamics(self):
        v = np.array([0.3, -0.7])
        gen = constant(np.zeros((2, 2)))
        assert np.array_equal(one_step(gen, v, 0.0, 0.5), v)
        assert np.array_equal(kernel_states(gen, v, 0.0, 0.5, 1)[0], v)

    def test_scalar_expansion_factor(self):
        c, h = 0.8, 0.2
        expected = 1.0 + c * h + (c * h) ** 2 / 2.0
        out = one_step(constant([[c]]), np.array([1.0]), 0.0, h)
        assert np.isclose(out[0], expected, atol=1e-15)
        d = step_products(constant([[c]]), [(0.0, h, 1, 1)])
        assert np.isclose(1.0 + d[0, 0, 0], expected, atol=1e-15)

    def test_population_conservation(self):
        gen = two_state_generator(DEFAULT_DEMO_MODEL)
        v = np.array([0.6, 0.4])
        for t in (0.0, 0.003, 1.0, 100.0):
            # 1^T A = 0 kills every update term; only the final additions round
            out = one_step(gen, v, t, 7.0)
            assert abs(out.sum() - v.sum()) <= 1e-15
            out = kernel_states(gen, v, t, t + 7.0, 1)[0]
            assert abs(out.sum() - v.sum()) <= 1e-15

    def test_rejects_nonpositive_step(self):
        gen = constant(np.zeros((1, 1)))
        with pytest.raises(InvalidInputError):
            propagator(gen, 1.0, 0.5, 1)
        with pytest.raises(InvalidInputError):
            propagator(gen, 0.0, 1.0, 0)
        for segment in ((0.0, 0.0, 1, 1), (0.0, 1.0, 0, 1), (0.0, 1.0, 1, 0)):
            with pytest.raises(InvalidInputError):
                step_products(gen, [segment])


class TestIntegrate:
    def test_single_step_matches_rk2(self):
        gen = two_state_generator(DEFAULT_DEMO_MODEL)
        v0 = np.array([1.0, 0.0])
        by_hand = v0 + 0.5 * (gen(0.25) @ (v0 + 0.25 * (gen(0.0) @ v0)))
        assert np.array_equal(one_step(gen, v0, 0.0, 0.5), by_hand)
        # deviation form D v0 rounds differently from the nested update
        assert np.abs(kernel_states(gen, v0, 0.0, 0.5, 1)[0] - by_hand).max() <= 1e-15

    def test_constant_skew_norm_drift(self):
        s = matcore.skew_part(np.random.default_rng(0).standard_normal((3, 3)))
        v0 = np.array([1.0, 0.0, 0.0])
        nsteps, t1 = 200, 2.0
        states = kernel_states(constant(s), v0, 0.0, t1, nsteps)
        h = t1 / nsteps
        drift = np.abs(np.linalg.norm(states, axis=1) - 1.0).max()
        assert drift <= 5.0 * nsteps * h**3  # O(h^2) per step, accumulated

    def test_second_order_convergence(self):
        gen = Generator(dim=2, matrix=lambda t: np.array(
            [[-0.3, 0.2 * np.sin(t)], [0.1 * np.cos(t), -0.1]]))
        v0 = np.array([1.0, 0.5])

        def final(nsteps):
            return kernel_states(gen, v0, 0.0, 2.0, 1, nsteps)[-1]

        exact = final(20000)
        e_coarse = np.abs(final(50) - exact).max()
        e_fine = np.abs(final(100) - exact).max()
        assert 3.0 <= e_coarse / e_fine <= 5.0

    def test_times_strictly_increasing(self, small_cfg):
        ref = compute_reference(small_cfg)
        assert np.all(np.diff(ref.times) > 0)
        assert len(ref.times) == len(ref.states) == small_cfg.n_steps + 2


class TestPropagator:
    def test_zero_length_interval(self):
        gen = constant(np.ones((2, 2)))
        assert np.array_equal(propagator(gen, 1.0, 1.0, 10), np.eye(2))

    def test_constant_matches_exponential(self):
        a = np.array([[-0.5, 0.3], [0.2, -0.1]])
        phi = propagator(constant(a), 0.0, 1.0, 400)
        exact = scipy.linalg.expm(a)
        assert np.abs(phi - exact).max() <= 1e-6  # RK2 at h=1/400

    def test_skew_orthogonality(self):
        gen = skew_generator(3, seed=5, smoothness=0.2)
        nsteps = 300
        phi = propagator(gen, 0.0, 3.0, nsteps)
        h = 3.0 / nsteps
        assert np.linalg.norm(phi.T @ phi - np.eye(3)) <= 10.0 * nsteps * h**3

    def test_continuation(self):
        gen = two_state_generator(DEFAULT_DEMO_MODEL)
        whole = propagator(gen, 0.0, 2.0, 200)
        half = propagator(gen, 0.0, 1.0, 100)
        joined = propagator(gen, 1.0, 2.0, 100, phi0=half)
        assert np.array_equal(joined, whole)


class TestSeedFactors:
    def test_unitary_flow_degenerate(self):
        gen = skew_generator(2, seed=1, smoothness=0.0)
        with pytest.raises(DegenerateSingularValuesError):
            seed_factors(gen, 2.0, 0.5, nsub=200)

    def test_demo_model_seed_structure(self, demo_cfg, demo_seeds):
        h = demo_cfg.step_size
        expected_times = (demo_cfg.t_seed - 2 * h, demo_cfg.t_seed - h,
                          demo_cfg.t_seed)
        assert len(demo_seeds) == 3
        for f, t in zip(demo_seeds, expected_times):
            assert np.isclose(f.t, t)
            assert f.sigma[0] >= f.sigma[1] > 0
            assert f.tilde[0] == 1.0
            for q in (f.u, f.v):
                assert np.linalg.norm(q.T @ q - np.eye(2)) <= 1e-9

    def test_diagonal_generator(self):
        gen = constant(np.diag([0.5, -0.3]))
        f = seed_factors(gen, 2.0, 0.5, nsub=2000)[-1]
        assert np.abs(np.abs(f.u) - np.eye(2)).max() <= 1e-9
        assert np.abs(np.abs(f.v) - np.eye(2)).max() <= 1e-9
        # sigma ordered by the (exp-like) growth rates alpha > beta
        assert np.isclose(f.sigma[0], np.exp(0.5 * 2.0), rtol=1e-5)
        assert np.isclose(f.sigma[1], np.exp(-0.3 * 2.0), rtol=1e-5)

    def test_rejects_bad_window(self):
        gen = two_state_generator(DEFAULT_DEMO_MODEL)
        with pytest.raises(InvalidInputError):
            seed_factors(gen, 1.0, 0.5, nsub=100)


def rel_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestStepProducts:
    def test_matches_sequential_demo_seed_segment(self, demo_cfg, demo_gen):
        m = demo_cfg.seed_substeps
        d = step_products(demo_gen, [(0.0, demo_cfg.t_seed, 1, m)])
        phi = propagator(demo_gen, 0.0, demo_cfg.t_seed, m)
        assert rel_gap(np.eye(2) + d[0], phi) <= 1e-13

    def test_matches_sequential_synthetic(self):
        gen = synthetic_generator(8, seed=3, smoothness=0.1)
        # 40 intervals of 30 substeps: chunks split intervals and substeps
        d = step_products(gen, [(0.0, 0.5, 1, 700), (0.5, 2.0, 40, 30)])
        phis = apply_step_products(d, np.eye(8))
        assert rel_gap(phis[0], propagator(gen, 0.0, 0.5, 700)) <= 1e-13
        phi = phis[0]
        for k in range(40):
            t0 = 0.5 + k * 1.5 / 40
            phi = propagator(gen, t0, t0 + 1.5 / 40, 30, phi0=phi)
            assert rel_gap(phis[k + 1], phi) <= 1e-13

    def test_long_interval_spans_chunks(self):
        gen = synthetic_generator(4, seed=1, smoothness=0.3)
        m = 3 * CHUNK_ELEMENTS // 16 + 5
        d = step_products(gen, [(0.0, 1.0, 1, m)])
        assert rel_gap(np.eye(4) + d[0], propagator(gen, 0.0, 1.0, m)) <= 1e-13

    def test_fallback_matches_grid(self):
        gen = synthetic_generator(3, seed=2, smoothness=0.4)
        scalar = dataclasses.replace(gen, grid=None)
        segments = [(0.0, 1.0, 1, 500), (1.0, 2.0, 10, 7)]
        assert np.array_equal(step_products(scalar, segments),
                              step_products(gen, segments))

    def test_constant_lambda_fallback(self):
        a = np.array([[-0.5, 0.3], [0.2, -0.1]])
        gridded = Generator(dim=2, matrix=lambda t: a,
                            grid=lambda ts: np.broadcast_to(a, (len(ts), 2, 2)))
        segments = [(0.0, 1.0, 1, 400)]
        assert np.array_equal(step_products(constant(a), segments),
                              step_products(gridded, segments))

    @pytest.mark.parametrize("gen", [
        two_state_generator(DEFAULT_DEMO_MODEL),
        synthetic_generator(5, seed=4, smoothness=0.3),
        skew_generator(4, seed=7, smoothness=0.2),
    ], ids=["two_state", "synthetic", "skew"])
    def test_grid_evaluator_bit_identical(self, gen):
        ts = np.concatenate([np.linspace(0.0, 60.0, 997), [1e-3, 0.012, 1e4]])
        assert np.array_equal(gen.matrix_grid(ts), np.array([gen(t) for t in ts]))


class TestOverflowGuard:
    # e^(400 t) leaves double range near t = 1.8
    growth = constant(np.diag([400.0, -1.0]))

    def test_kernel_names_interval(self):
        # each interval of the second segment is 2 long, so its own product
        # overflows; the first segment's does not
        with pytest.raises(OverflowGuardError) as info:
            step_products(self.growth, [(0.0, 1.0, 1, 100), (1.0, 5.0, 2, 800)])
        assert info.value.step == 1

    def test_apply_names_interval(self):
        d = step_products(self.growth, [(0.0, 1.0, 1, 100), (1.0, 3.0, 4, 100)])
        assert np.all(np.isfinite(d))
        # the products stay finite, their accumulation passes 1e308 in the
        # fourth interval
        with pytest.raises(OverflowGuardError) as info:
            apply_step_products(d, np.eye(2))
        assert info.value.step == 3

    def test_seed_factors(self):
        # [0, 1.9] stays finite; the product up to t_seed = 2 does not
        gen = constant(np.diag([365.0, -1.0]))
        with pytest.raises(OverflowGuardError) as info:
            seed_factors(gen, 2.0, 0.05, nsub=2000)
        assert info.value.step == 2

    def test_compute_reference(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, t_seed=1.0, t_f=3.0, n_steps=20)
        with pytest.raises(OverflowGuardError) as info:
            compute_reference(cfg, self.growth)
        assert info.value.step is not None and 1 <= info.value.step <= cfg.n_steps
