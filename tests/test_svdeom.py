import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import constant, random_factors
from svdflow.errors import (
    DegenerateSingularValuesError,
    InvalidInputError,
    SigmaSaturationError,
)
from svdflow.odeflow import propagator, seed_factors
from svdflow.svdeom import (
    SvdFactors,
    midpoint_generators,
    mpea,
    reconstruct_phi,
    sigma_plus,
    snapshot_from_arrays,
    start_history,
    step_factors,
)


class TestSigmaPlus:
    def test_unit_modulus_and_leading_entry(self):
        tilde = np.array([1.0, 0.6, 0.2])
        sp = sigma_plus(tilde)
        assert sp[0] == 1.0 + 0.0j
        assert np.abs(np.abs(sp) - 1.0).max() <= 1e-15
        assert np.allclose(sp.real, tilde)

    def test_conjugate_pair_averages_to_tilde(self):
        rng = np.random.default_rng(11)
        tilde = np.sort(rng.uniform(0.05, 0.95, 4))[::-1]
        sp = sigma_plus(tilde)
        assert np.abs((sp + np.conj(sp)) / 2.0 - tilde).max() <= 1e-15


class TestSnapshot:
    def test_diagonal_g(self):
        # U = I and a diagonal A make G diagonal: Z = W = 0 and L is closed-form
        a = np.diag([0.5, -0.2, 0.1])
        tilde = np.array([1.0, 0.7, 0.3])
        snap = snapshot_from_arrays(np.eye(3), tilde, constant(a), 0.0)
        assert np.array_equal(snap.z, np.zeros((3, 3)))
        assert np.array_equal(snap.w, np.zeros((3, 3)))
        expected_l = np.zeros(3)
        expected_l[1:] = (tilde[1:] * (np.diag(a)[1:] - a[0, 0])
                          / np.sqrt(1.0 - tilde[1:]**2))
        assert np.abs(snap.lplus - expected_l).max() <= 1e-14

    def test_two_state_closed_form(self):
        s = 0.4
        g = np.array([[0.0, 1.0], [1.0, 0.0]])
        snap = snapshot_from_arrays(np.eye(2), np.array([1.0, s]),
                                    constant(g), 0.0)
        assert np.isclose(snap.z[0, 1], (s**2 * 1.0 + 1.0 * 1.0) / (s**2 - 1.0))
        assert np.isclose(snap.w[0, 1], s * 2.0 / (s**2 - 1.0))

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        f = random_factors(rng, 3)
        gen = constant(rng.standard_normal((3, 3)))
        a = snapshot_from_arrays(f.u, f.tilde, gen, 0.0)
        # scale kept below 1 so the saturation guard stays clear
        b = snapshot_from_arrays(f.u, f.tilde * 0.3, gen, 0.0)
        assert np.abs(a.z - b.z).max() <= 1e-12
        assert np.abs(a.w - b.w).max() <= 1e-12

    def test_degeneracy_guard(self):
        with pytest.raises(DegenerateSingularValuesError):
            snapshot_from_arrays(np.eye(2), np.array([1.0, 1.0 - 1e-10]),
                                 constant(np.zeros((2, 2))), 0.0)

    @pytest.mark.parametrize("tilde", [[1.0, 0.3, -0.3], [1.0, -0.3, 0.3],
                                       [1.0, 0.3, 0.3 + 1e-9]])
    def test_equal_modulus_guard(self, tilde):
        # tz_j = -tz_k is no small gap, yet the generators divide by
        # tz_k^2 - tz_j^2 = 0 there; it used to come out as NaN in Z and W.
        # The last case is a small gap of equal sign: the gap guard's.
        a = constant(np.arange(9.0).reshape(3, 3))
        with pytest.raises(DegenerateSingularValuesError):
            snapshot_from_arrays(np.eye(3), np.array(tilde), a, 0.0)

    def test_saturation_guard_fires_before_the_equal_modulus_guard(self):
        with pytest.raises(SigmaSaturationError):
            snapshot_from_arrays(np.eye(3), np.array([1.0, 1 - 1e-7, -(1 - 1e-7)]),
                                 constant(np.zeros((3, 3))), 0.0)

    def test_saturation_guard(self):
        with pytest.raises(SigmaSaturationError):
            snapshot_from_arrays(np.eye(2), np.array([1.0, 1.0 - 1e-7]),
                                 constant(np.zeros((2, 2))), 0.0)

    def test_generators_exactly_skew(self):
        rng = np.random.default_rng(9)
        f = random_factors(rng, 4)
        snap = snapshot_from_arrays(f.u, f.tilde,
                                    constant(rng.standard_normal((4, 4))), 0.0)
        assert np.array_equal(snap.z, -snap.z.T)
        assert np.array_equal(snap.w, -snap.w.T)
        assert snap.lplus[0] == 0.0


class TestMpea:
    def test_constant_sequence(self):
        c = np.full((2, 2), 3.7)
        assert np.abs(mpea(c, c, c) - c).max() <= 1e-15

    def test_affine_exact(self):
        rng = np.random.default_rng(5)
        p, q = rng.standard_normal((2, 3, 3))
        h, t = 0.6, 4.0
        est = mpea(p + q * t, p + q * (t - h), p + q * (t - 2 * h))
        assert np.abs(est - (p + q * (t + h / 2))).max() <= 1e-12

    def test_quadratic_defect(self):
        h, t = 0.3, 1.5
        f = lambda x: x**2
        est = mpea(f(t), f(t - h), f(t - 2 * h))
        assert np.isclose(est - f(t + h / 2), h**2 / 12.0, atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            mpea(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(3))

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.05, 1.0),
           st.floats(-3, 3))
    def test_affine_property(self, a, b, h, t):
        est = mpea(a + b * t, a + b * (t - h), a + b * (t - 2 * h))
        scale = max(1.0, abs(a) + abs(b) * (abs(t) + 2 * h))
        assert abs(est - (a + b * (t + h / 2))) <= 1e-12 * scale


def _history_at(gen, f, h):
    """Snapshots at f.t - 2h and f.t - h for a time-frozen generator."""
    return [
        snapshot_from_arrays(f.u, f.tilde, gen, f.t - 2 * h),
        snapshot_from_arrays(f.u, f.tilde, gen, f.t - h),
    ]


class TestStepFactors:
    def test_null_dynamics(self):
        rng = np.random.default_rng(1)
        f = random_factors(rng, 3)
        gen = constant(np.zeros((3, 3)))
        out, _ = step_factors(f, _history_at(gen, f, 0.5), gen, 0.5)
        assert np.abs(out.u - f.u).max() <= 1e-15
        assert np.abs(out.v - f.v).max() <= 1e-15
        assert np.abs(out.sigma - f.sigma).max() <= 1e-15
        assert out.t == f.t + 0.5

    def test_diagonal_constant_growth(self):
        alpha, beta = 0.4, -0.2
        gen = constant(np.diag([alpha, beta]))
        h = 0.01
        seeds = seed_factors(gen, 1.0, h, nsub=4000)
        out, _ = step_factors(seeds[2], start_history(seeds, gen), gen, h)
        assert np.abs(np.abs(out.u) - np.eye(2)).max() <= 1e-6
        assert np.abs(np.abs(out.v) - np.eye(2)).max() <= 1e-6
        assert np.isclose(out.sigma1 / seeds[2].sigma1, np.exp(alpha * h), rtol=1e-6)

    def test_demo_oracle_crosscheck(self, demo_cfg, demo_gen, demo_seeds,
                                    demo_oracles):
        # 400 steps of the factor flow against finely integrated propagators
        h = demo_cfg.step_size
        f = demo_seeds[2]
        history = start_history(demo_seeds, demo_gen)
        worst = 0.0
        for i in range(demo_cfg.n_steps):
            f, history = step_factors(f, history, demo_gen, h)
            gap = np.abs(reconstruct_phi(f) - demo_oracles[i + 1]).max()
            worst = max(worst, gap)
        assert worst <= 1e-4


class TestReconstructPhi:
    def test_identity(self):
        f = SvdFactors.from_svd(np.eye(2), np.ones(2), np.eye(2), 0.0)
        assert np.abs(reconstruct_phi(f) - np.eye(2)).max() <= 1e-15

    def test_inverts_factorization(self, demo_seeds, demo_gen, demo_cfg):
        f = demo_seeds[2]
        phi = propagator(demo_gen, 0.0, demo_cfg.t_seed, demo_cfg.seed_substeps)
        assert np.abs(reconstruct_phi(f) - phi).max() <= 1e-12 * max(
            1.0, np.abs(phi).max())

    def test_random_factors(self):
        rng = np.random.default_rng(14)
        f = random_factors(rng, 4)
        phi = reconstruct_phi(f)
        direct = f.sigma1 * f.u @ np.diag(f.tilde) @ f.v.T
        assert np.abs(phi - direct).max() <= 1e-13


class TestMidpointGenerators:
    def test_uses_mpea_weights(self):
        rng = np.random.default_rng(6)
        snaps = []
        for t in (0.0, 1.0, 2.0):
            f = random_factors(rng, 3)
            snaps.append(snapshot_from_arrays(
                f.u, f.tilde, constant(rng.standard_normal((3, 3))), t))
        z, w, l, g11 = midpoint_generators(snaps[2], snaps[:2])
        assert np.abs(z - mpea(snaps[2].z, snaps[1].z, snaps[0].z)).max() == 0.0
        assert np.isclose(g11, mpea(snaps[2].g[0, 0], snaps[1].g[0, 0],
                                    snaps[0].g[0, 0]))
