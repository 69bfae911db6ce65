import dataclasses
import pathlib

import numpy as np
import pytest
import scipy.linalg

from conftest import constant, counting, skew_generator
from svdflow import matcore, odeflow
from svdflow.config import build_generator, load_config
from svdflow.errors import DegenerateSingularValuesError, InvalidInputError, OverflowGuardError
from svdflow.models import MODELS, synthetic_generator, two_state_demo
from svdflow.odeflow import (
    CHUNK_ELEMENTS,
    Generator,
    apply_step_products,
    propagator,
    seed_factors,
    seed_segments,
    step_products,
)
from svdflow.runner import compute_reference, initial_state, oracle_propagators


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
        gen = two_state_demo()
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
        gen = two_state_demo()
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
        def matrix(t):
            t = np.asarray(t)
            return np.stack([np.full_like(t, -0.3), 0.2 * np.sin(t), 0.1 * np.cos(t),
                             np.full_like(t, -0.1)], axis=-1).reshape(*t.shape, 2, 2)

        gen = Generator(dim=2, matrix=matrix)
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
        gen = two_state_demo()
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
        gen = two_state_demo()
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

    def test_scalar_only_generator_rejected(self):
        # A evaluated only at single times: step_products and the sequential
        # propagator name the shape they got instead of failing in numpy
        # broadcasting
        a = np.array([[-0.5, 0.3], [0.2, -0.1]])
        gen = Generator(dim=2, matrix=lambda t: a)
        with pytest.raises(InvalidInputError, match=r"shape \(2, 2\)"):
            step_products(gen, [(0.0, 1.0, 1, 400)])
        with pytest.raises(InvalidInputError, match=r"shape \(2, 2\)"):
            propagator(gen, 0.0, 1.0, 400)

    @pytest.mark.parametrize("gen", [
        *(model() for model in MODELS.values()),
        two_state_demo(kinf_da=0.0, kinf_ad=0.0),  # no plateau to round exp away
        skew_generator(4, seed=7, smoothness=0.2),
    ], ids=[*MODELS, "two_state_demo_kinf0", "skew"])
    def test_grid_evaluator_bit_identical(self, gen):
        # A on an array of times, stacked, is A at each time, bit for bit
        # at tau = 0.012, exp(-t / tau) is subnormal on [8.5, 8.94] and 0
        # beyond, where the rate skips it
        ts = np.concatenate([np.linspace(0.0, 60.0, 997), [1e-3, 0.012, 1e4],
                             np.linspace(8.5, 9.0, 51), 8.952 + np.array([-1e-12, 0.0, 1e-12])])
        stacked = gen(ts)
        assert stacked.shape == (len(ts), gen.dim, gen.dim)
        assert all(np.array_equal(stacked[k], gen(float(t))) for k, t in enumerate(ts))


class TestOverflowGuard:
    # e^(400 t) leaves double range near t = 1.8
    growth = constant(np.diag([400.0, -1.0]))

    def test_kernel_names_interval(self):
        # each interval of the second segment is 2 long, so its own product
        # overflows; the first segment's does not
        with pytest.raises(OverflowGuardError) as info:
            step_products(self.growth, [(0.0, 1.0, 1, 100), (1.0, 5.0, 2, 800)])
        assert info.value.step == 1
        assert str(info.value) == "non-finite step product on [1, 3]"

    def test_apply_names_interval(self):
        d = step_products(self.growth, [(0.0, 1.0, 1, 100), (1.0, 3.0, 4, 100)])
        assert np.all(np.isfinite(d))
        # the products stay finite, their accumulation passes 1e308 in the
        # fourth interval
        with pytest.raises(OverflowGuardError) as info:
            apply_step_products(d, np.eye(2))
        assert info.value.step == 3

    def test_propagator_names_substep(self):
        # 5,000 substeps of 4e-4 span three chunks of A evaluations; the
        # growing entry of the diagonal Phi follows the scalar RK2
        # recurrence bit for bit, which says where Phi leaves double range
        t1, nsteps = 2.0, 5000
        h, x, step = t1 / nsteps, np.float64(1.0), -1
        with np.errstate(over="ignore"):
            while np.isfinite(x):
                x = x + h * (400.0 * (x + (h / 2.0) * (400.0 * x)))
                step += 1
        assert CHUNK_ELEMENTS // 4 < step < nsteps
        with pytest.raises(OverflowGuardError, match=f"t={step * h:g}") as info:
            propagator(self.growth, 0.0, t1, nsteps)
        assert info.value.step == step

    def test_seed_factors(self):
        # [0, 1.9] stays finite; the product up to t_seed = 2 does not
        gen = constant(np.diag([365.0, -1.0]))
        with pytest.raises(OverflowGuardError) as info:
            seed_factors(gen, 2.0, 0.05, nsub=2000)
        assert info.value.step == 2
        assert str(info.value) == "non-finite propagated state on interval 2"

    def names_grid_point(self, small_cfg, reference):
        # the second window leaves double range inside [0, t_seed]: grid point 0
        for t_seed, t_f, step in ((1.0, 3.0, 13), (2.0, 4.0, 0)):
            cfg = dataclasses.replace(small_cfg, t_seed=t_seed, t_f=t_f, n_steps=20)
            with pytest.raises(OverflowGuardError) as info:
                reference(cfg, self.growth)
            assert info.value.step == step

    def test_compute_reference(self, small_cfg):
        self.names_grid_point(small_cfg, compute_reference)

    def test_oracle_propagators(self, small_cfg):
        self.names_grid_point(small_cfg, oracle_propagators)


class TestSegmentMemo:
    def test_seed_segment_integrated_once(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, t_seed=1.0, t_f=1.2, n_steps=20)
        nsub = cfg.seed_substeps
        assert sum(m for *_, m in seed_segments(cfg.t_seed, cfg.step_size, nsub)) == nsub
        gen, sizes = counting(synthetic_generator(3, seed=2, smoothness=0.4))
        seed_factors(gen, cfg.t_seed, cfg.step_size, nsub=nsub)
        compute_reference(cfg, gen)
        oracle_propagators(cfg, gen)
        # every substep's start and midpoint, once
        assert sum(sizes) == 2 * (nsub + cfg.n_steps * cfg.ref_refine)

    def test_copy_starts_empty(self):
        gen = synthetic_generator(3, seed=2, smoothness=0.4)
        segments = [(0.0, 1.0, 4, 50)]
        first = step_products(gen, segments)
        assert gen == dataclasses.replace(gen)
        assert hash(gen) == hash(dataclasses.replace(gen))
        doubled = dataclasses.replace(gen, matrix=lambda t: 2.0 * gen(t))
        fresh = Generator(dim=3, matrix=doubled.matrix)
        d = step_products(doubled, segments)
        assert np.array_equal(d, step_products(fresh, segments))
        assert not np.allclose(d, first)

    @pytest.mark.parametrize("segments", [[(0.0, 1.0, 4, 50)],
                                          [(0.0, 1.0, 4, 50), (1.0, 1.5, 1, 20)]],
                             ids=["one", "two"])
    def test_result_does_not_alias_memo(self, segments):
        gen = synthetic_generator(3, seed=2, smoothness=0.4)
        first = step_products(gen, segments)
        kept = first.copy()
        first[:] = 0.0
        assert np.array_equal(step_products(gen, segments), kept)

    def test_reference_continues_seeding(self, small_cfg):
        gen = synthetic_generator(3, seed=2, smoothness=0.4)
        cfg = dataclasses.replace(small_cfg, t_seed=1.0, t_f=1.2, n_steps=20)
        v0 = initial_state(gen.dim)
        segments = seed_segments(cfg.t_seed, cfg.step_size, cfg.seed_substeps)
        at_seed = apply_step_products(step_products(gen, segments), v0)[-1]
        assert np.array_equal(compute_reference(cfg, gen).states[1], at_seed)

    def test_seeding_after_reference(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, t_seed=1.0, t_f=1.2, n_steps=20)
        model = synthetic_generator(3, seed=2, smoothness=0.4)
        gen = dataclasses.replace(model)
        compute_reference(cfg, gen)
        args = (cfg.t_seed, cfg.step_size, cfg.seed_substeps)
        for shared, alone in zip(seed_factors(gen, *args),
                                 seed_factors(dataclasses.replace(model), *args)):
            assert all(np.array_equal(getattr(shared, name), getattr(alone, name))
                       for name in ("u", "v", "tilde", "sigma1", "t"))


def general_path_only(monkeypatch):
    """Make every chunk compose its deviations through the tree."""
    monkeypatch.setattr(odeflow, "_repeated_sample", lambda start, mid: None)


def tree_shapes(monkeypatch):
    """The (intervals, substeps) of every chunk composed through the tree."""
    shapes, compose = [], odeflow._compose_tree
    monkeypatch.setattr(odeflow, "_compose_tree",
                        lambda d: shapes.append(d.shape[:2]) or compose(d))
    return shapes


def setup_segments(cfg):
    return (*seed_segments(cfg.t_seed, cfg.step_size, cfg.seed_substeps),
            (cfg.t_seed, cfg.t_f, cfg.n_steps, cfg.ref_refine))


class TestConstantChunks:
    """A chunk whose A has the same bytes at every sample composes one
    deviation in the tree's order: the same bytes, far fewer products."""

    def test_demo_set_up_bytes(self, demo_cfg, monkeypatch):
        segments = setup_segments(demo_cfg)
        fast = step_products(build_generator(demo_cfg), segments)
        general_path_only(monkeypatch)
        assert fast.tobytes() == step_products(build_generator(demo_cfg), segments).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_constant_generator_bytes(self, n, monkeypatch):
        m = 0.3 * np.random.default_rng(n).standard_normal((n, n))
        cases = [(0.0, 2.0, intervals, substeps) for intervals in (1, 40)
                 for substeps in (1, 2, 3, 5, 50, 2047, 2049, 3 * 2048 + 5)]
        fast = [step_products(constant(m), [case]) for case in cases]
        general_path_only(monkeypatch)
        for case, d in zip(cases, fast):
            assert d.tobytes() == step_products(constant(m), [case]).tobytes(), case

    def test_demo_trees_only_before_the_plateau(self, demo_cfg, monkeypatch):
        # A(t) is constant to the bit from t = 0.575; only [0, 0.25] (500
        # substeps) and the first chunk of [0.25, 25.125] reach back before
        shapes = tree_shapes(monkeypatch)
        gen = build_generator(demo_cfg)
        seed_factors(gen, demo_cfg.t_seed, demo_cfg.step_size, nsub=demo_cfg.seed_substeps)
        compute_reference(demo_cfg, gen)
        assert shapes == [(1, 500), (1, 2048)]
        assert gen(0.57).tobytes() != gen(demo_cfg.t_f).tobytes()
        assert gen(0.575).tobytes() == gen(demo_cfg.t_f).tobytes()

    def test_varying_generator_takes_the_tree(self, monkeypatch):
        cfg = load_config(str(pathlib.Path(__file__).resolve().parent.parent / "scripts"
                              / "identity" / "two_state_slow_exact.json"))
        shapes = tree_shapes(monkeypatch)
        segments = setup_segments(cfg)
        step_products(build_generator(cfg), segments)
        # every chunk: three seed segments of 2,048-substep chunks, then
        # 40 intervals of ref_refine substeps per chunk
        per_chunk = CHUNK_ELEMENTS // 4
        expected = sum(-(-m // per_chunk) for *_, m in segments[:3]) + cfg.n_steps // 40
        assert len(shapes) == expected

    def test_check_is_bitwise(self, monkeypatch):
        m = np.array([[0.0, 0.3], [0.2, -0.1]])

        def matrix(t):
            out = np.array(np.broadcast_to(m, np.shape(t) + m.shape))
            if np.ndim(t):
                out[len(out) // 2, 0, 0] = -0.0  # equal in value, not in bytes
            return out

        shapes = tree_shapes(monkeypatch)
        step_products(Generator(dim=2, matrix=matrix), [(0.0, 1.0, 1, 64)])
        assert shapes == [(1, 64)]
        shapes.clear()
        step_products(constant(m), [(0.0, 1.0, 1, 64)])
        assert shapes == []

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.complex128])
    def test_repeated_sample(self, dtype):
        base = np.broadcast_to(np.array([[1, 2], [3, 4]], dtype=dtype), (5, 2, 2))
        assert np.array_equal(odeflow._repeated_sample(base, base), base[0])
        for k in (0, 2, 4):  # the ends and the middle
            other = base.copy()
            other[k, 1, 0] = 0
            assert odeflow._repeated_sample(base, other) is None
            assert odeflow._repeated_sample(other, base) is None

    def test_repeated_nan_sample(self):
        nan = np.broadcast_to(np.array([[np.nan, 0.0], [0.0, 1.0]]), (3, 2, 2))
        assert np.isnan(odeflow._repeated_sample(nan, nan)[0, 0])
        signed = nan.copy()
        signed[1, 0, 0] = -np.nan  # another NaN bit pattern
        assert odeflow._repeated_sample(nan, signed) is None
