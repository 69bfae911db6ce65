import dataclasses
import itertools

import numpy as np
import pytest

from conftest import random_factors
from svdflow import matcore, qsim
from svdflow.config import RunConfig, build_generator
from svdflow.errors import (
    InvalidGateError,
    InvalidInputError,
    PostSelectionStarvedError,
)
from svdflow.odeflow import Generator, seed_factors
from svdflow.qsim import (
    NoiseSpec,
    ShotPlan,
    StateVec,
    apply_unitary,
    default_sign_floor,
    derive_rng,
    dilation_circuit,
    embed_unitary,
    evolve_sigma_phase,
    pad_dim,
    propagate_row,
    qsvd_step,
    readout_confusion,
    sample_probs,
)
from svdflow.runner import initial_state
from svdflow.svdeom import (
    SvdFactors,
    midpoint_generators,
    reconstruct_phi,
    sigma_plus,
    snapshot_from_arrays,
    step_factors,
)

HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def on_qubits(ops: dict, n_qubits: int) -> np.ndarray:
    """Dense operator acting with ops[q] on qubit q and identity elsewhere;
    qubit 0 is the least significant bit, so it is the last kron factor."""
    out = np.eye(1, dtype=complex)
    for q in reversed(range(n_qubits)):
        out = np.kron(out, ops.get(q, np.eye(2)))
    return out


def pauli_sum_depolarize(rho, qubits, n_qubits, p):
    """Reference depolarizing channel: explicit average over all 4^k Pauli
    strings on the qubits, each built as a dense operator."""
    acc = np.zeros_like(rho)
    for string in itertools.product(PAULIS, repeat=len(qubits)):
        m = on_qubits(dict(zip(qubits, string)), n_qubits)
        acc += m @ rho @ m.conj().T
    return (1.0 - p) * rho + (p / 4 ** len(qubits)) * acc


class TestPlumbing:
    def test_pad_dim(self):
        assert [pad_dim(n) for n in (1, 2, 3, 4, 5, 8)] == [1, 2, 4, 4, 8, 8]

    def test_embed_unitary(self):
        u = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = embed_unitary(u, 4)
        assert np.array_equal(out[:2, :2], u)
        assert np.array_equal(out[2:, 2:], np.eye(2))

    def test_derive_rng_deterministic_and_distinct(self):
        a = derive_rng(7, 1, 2).random(4)
        b = derive_rng(7, 1, 2).random(4)
        c = derive_rng(7, 1, 3).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_statevec_norm_check(self):
        with pytest.raises(InvalidInputError):
            StateVec(1, np.array([1.0, 1.0], dtype=complex))
        # one bad member of a stack is enough
        with pytest.raises(InvalidInputError):
            StateVec(1, np.array([[1.0, 0.0], [0.6, 0.8], [0.6, 0.9]], dtype=complex))
        # the tolerance is 1e-12 on the norm itself
        for dev in (0.5e-12, -0.5e-12):
            StateVec(1, np.array([1.0 + dev, 0.0], dtype=complex))
        for dev in (2e-12, -2e-12):
            with pytest.raises(InvalidInputError):
                StateVec(1, np.array([1.0 + dev, 0.0], dtype=complex))

    def test_statevec_rejects_nan(self):
        # a NaN norm compares False against both bounds; it must still fail
        with pytest.raises(InvalidInputError):
            StateVec(1, np.array([np.nan, 0.0], dtype=complex))
        with pytest.raises(InvalidInputError):
            StateVec(1, np.array([[1.0, 0.0], [np.nan, 1.0]], dtype=complex))

    def test_noise_spec_validation(self):
        for value in (1.5, True, "0.1", None):
            with pytest.raises(InvalidInputError):
                NoiseSpec(p1=value)


class TestStreams:
    """`stream_rng` against its specification, `derive_rng`."""

    @pytest.mark.parametrize("length", range(1, 10))
    def test_seed_words_match_seed_sequence(self, length):
        # lengths below, at and above the four-word pool
        entropy = np.random.default_rng(length).integers(
            0, 2**32, size=(40, length), dtype=np.uint32)
        entropy[0], entropy[1] = 0, 2**32 - 1
        want = [np.random.SeedSequence(row.tolist()).generate_state(4, np.uint64)
                for row in entropy]
        assert np.array_equal(qsim._seed_words(entropy), want)

    @pytest.mark.parametrize("seed", [0, 1234, 2**32 - 1, 2**32, 2**40 + 5, 10**18])
    def test_block_streams_match_derive_rng(self, seed):
        # every task kind, on both sides of the 63/64 block edge
        for step, n in itertools.product((0, 63, 64, 399, 1000), (2, 3, 8)):
            paths = [(kind, i) for kind in (0, 1) for i in range(n)]
            paths += [(2, j, w) for j in range(1, n) for w in (0, 1)] + [(3,)]
            for path in paths:
                got = qsim.stream_rng(seed, n, step, *path).bit_generator.state
                assert got == derive_rng(seed, step, *path).bit_generator.state, \
                    (step, n, path)

    def test_stream_draws_match_derive_rng(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        got = qsim.stream_rng(7, 2, 64, 2, 1, 0).multinomial(10**6, probs)
        assert np.array_equal(got, derive_rng(7, 64, 2, 1, 0).multinomial(10**6, probs))


class TestApplyUnitary:
    def test_identity_noop(self):
        st = StateVec.from_amplitudes([0.6, 0.8j])
        out = apply_unitary(st, np.eye(2))
        assert np.array_equal(out.amps, st.amps)

    def test_hadamard(self):
        st = StateVec.from_amplitudes([1.0, 0.0])
        out = apply_unitary(st, HAD)
        assert np.abs(out.amps - np.array([1, 1]) / np.sqrt(2)).max() <= 1e-15

    def test_rejects_nonunitary(self):
        st = StateVec.from_amplitudes([1.0, 0.0])
        with pytest.raises(InvalidGateError):
            apply_unitary(st, np.array([[1.0, 0.0], [0.0, 1.1]]))

    @pytest.mark.parametrize("noise", [None, NoiseSpec(p1=0.1, p2=0.1)])
    def test_rejects_nan_gate(self, noise):
        # alone and as one member of a gate stack, in both branches
        st = StateVec.from_amplitudes([0.6, 0.8])
        nan_gate = np.full((2, 2), np.nan)
        for gate in (nan_gate, np.array([np.eye(2), nan_gate])):
            with pytest.raises(InvalidGateError):
                qsim.circuit_probs(st, [(gate, None)], noise)

    @pytest.mark.parametrize("noise", [None, NoiseSpec(p1=0.1, p2=0.1)])
    def test_gate_must_span_the_register(self, noise):
        # a 2x2 gate on a 2-qubit register is rejected in the statevector
        # and the density-matrix branch alike, not applied to a subset
        st = StateVec.from_amplitudes([0.6, 0.0, 0.8, 0.0])
        with pytest.raises(InvalidInputError, match="register"):
            qsim.circuit_probs(st, [(HAD, [0])], noise)


class TestFixedGates:
    """Cached constant gates are checked once, when they are built; every
    other gate is checked on every application."""

    def test_each_constant_checked_once(self, monkeypatch):
        qsim._interferometer_gates.cache_clear()
        qsim._ancilla_hadamard.cache_clear()
        checked = []
        defect = qsim._unitarity_defect
        monkeypatch.setattr(qsim, "_unitarity_defect",
                            lambda u: checked.append(u) or defect(u))
        rng = np.random.default_rng(12)
        f = random_factors(rng, 3)
        plan = ShotPlan(1000, NoiseSpec(p1=1e-3, p2=1e-2))
        for seed in range(3):
            for p in (None, plan):
                evolve_sigma_phase(np.array([0.0, 0.4, 1.1]), np.array([0.0, 0.3, -0.2]),
                                   0.1, p, lambda j, w: derive_rng(seed, j, w))
                dilation_circuit(initial_state(3), f, p, derive_rng(seed, 3))
        constants = [*qsim._interferometer_gates(3, 4), qsim._ancilla_hadamard(4)]
        for const in constants:
            assert not const.flags.writeable
            assert sum(u is const for u in checked) == 1
        # the gates built per call are checked on every application
        assert len(checked) > len(constants) + 10

    @pytest.mark.parametrize("noise", [None, NoiseSpec(p1=0.1, p2=0.1)])
    def test_changed_copy_of_a_constant_rejected(self, noise):
        sdg, mix = qsim._interferometer_gates(3, 4)
        st = StateVec.from_amplitudes([0.6, 0.0, 0.8, 0.0])
        qsim.circuit_probs(st, [(sdg, None), (mix, None)], noise)
        for const in (sdg, mix):
            bad = const.copy()
            bad[1, 0, 0] *= 1.01
            with pytest.raises(InvalidGateError):
                qsim.circuit_probs(st, [(bad, None)], noise)
        had = qsim._ancilla_hadamard(2).copy()
        had[0, 1] = np.nan
        with pytest.raises(InvalidGateError):
            qsim.circuit_probs(st, [(had, None)], noise)


class TestStackedCircuits:
    @staticmethod
    def random_unitary(rng, dim):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return np.linalg.qr(m)[0]

    @pytest.mark.parametrize("noise", [None, NoiseSpec(p1=0.05, p2=0.1)])
    def test_stack_matches_per_state_calls(self, noise):
        # three qubits: a stack of four states under one gate, then one state
        # under a stack of four gates, each followed by a second plain gate;
        # the noisy branch puts p2 on a qubit subset and p1 on qubit 2
        rng = np.random.default_rng(31)
        dim = 8
        amps = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
        states = StateVec(3, amps / np.linalg.norm(amps, axis=1, keepdims=True))
        gate, last = self.random_unitary(rng, dim), self.random_unitary(rng, dim)
        gate_stack = np.array([self.random_unitary(rng, dim) for _ in range(4)])
        one = StateVec(3, states.amps[0])

        stacked = qsim.circuit_probs(states, [(gate, [0, 2]), (last, [2])], noise)
        assert stacked.shape == (4, dim)
        for i in range(4):
            single = qsim.circuit_probs(StateVec(3, states.amps[i]),
                                        [(gate, [0, 2]), (last, [2])], noise)
            assert np.abs(stacked[i] - single).max() <= 1e-14

        stacked = qsim.circuit_probs(one, [(gate_stack, [0, 2]), (last, [2])], noise)
        assert stacked.shape == (4, dim)
        for i in range(4):
            single = qsim.circuit_probs(one, [(gate_stack[i], [0, 2]), (last, [2])],
                                        noise)
            assert np.abs(stacked[i] - single).max() <= 1e-14

    @pytest.mark.parametrize("noise", [None, NoiseSpec(p1=0.05, p2=0.1)])
    def test_nonunitary_member_of_a_gate_stack_rejected(self, noise):
        st = StateVec.from_amplitudes([0.6, 0.8])
        stack = np.array([np.eye(2), np.diag([1.0, 1.1])])
        with pytest.raises(InvalidGateError):
            qsim.circuit_probs(st, [(stack, None)], noise)


class TestDepolarize:
    @pytest.fixture
    def rho(self):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = m @ m.conj().T
        return rho / np.trace(rho)

    @pytest.mark.parametrize("qubits", [[0], [3], [1, 3], [3, 0], [2, 0, 3],
                                        [0, 1, 2, 3]])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_matches_pauli_sum_oracle(self, rho, qubits, p):
        # one rho, then a stack of two: rho and a second random state
        rng = np.random.default_rng(22)
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        stack = np.array([rho, m @ m.conj().T / np.trace(m @ m.conj().T)])
        for inputs, outputs in ((rho[None], qsim._depolarize(rho, qubits, 4, p)[None]),
                                (stack, qsim._depolarize(stack, qubits, 4, p))):
            for r, out in zip(inputs, outputs):
                assert np.abs(out - pauli_sum_depolarize(r, qubits, 4, p)).max() <= 1e-14
                assert abs(np.trace(out) - np.trace(r)) <= 1e-14
                assert np.abs(out - out.conj().T).max() <= 1e-14

    def test_full_register_maximally_mixed(self, rho):
        out = qsim._depolarize(2.0 * rho, [0, 1, 2, 3], 4, 1.0)
        assert np.abs(out - 2.0 * np.eye(16) / 16).max() <= 1e-14


class TestSample:
    def test_basis_state_no_noise(self):
        st = StateVec.from_amplitudes([0.0, 1.0])
        counts = sample_probs(np.abs(st.amps) ** 2, ShotPlan(1000),
                              lambda _: np.random.default_rng(0))
        assert counts[1] == 1000 and counts[0] == 0

    def test_uniform_superposition_binomial_error(self):
        st = StateVec.from_amplitudes(np.array([1.0, 1.0]) / np.sqrt(2))
        counts = sample_probs(np.abs(st.amps) ** 2, ShotPlan(10**6),
                              lambda _: np.random.default_rng(5))
        assert np.abs(counts / counts.sum() - 0.5).max() <= 3.0 * 5e-4

    def test_readout_flip_rate(self):
        st = StateVec.from_amplitudes([1.0, 0.0])
        counts = sample_probs(np.abs(st.amps) ** 2,
                              ShotPlan(10**6, NoiseSpec(p_ro=0.01)),
                              lambda _: np.random.default_rng(8))
        se = np.sqrt(0.01 * 0.99 / 10**6)
        assert abs(counts[1] / counts.sum() - 0.01) <= 3.0 * se

    def test_deterministic_per_seed(self):
        st = StateVec.from_amplitudes(np.array([0.6, 0.8]))
        a = sample_probs(np.abs(st.amps) ** 2, ShotPlan(5000),
                         lambda _: np.random.default_rng(2))
        b = sample_probs(np.abs(st.amps) ** 2, ShotPlan(5000),
                         lambda _: np.random.default_rng(2))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("p_ro", [0.0, 0.013])
    def test_stack_matches_per_member_draws(self, p_ro):
        # one normalization and one readout mix for the whole stack, then
        # member i of the flattened stack draws from its own stream, bit for
        # bit as a single vector normalized, mixed and drawn on its own
        rng = np.random.default_rng(17)
        probs = rng.random((3, 2, 8)) ** 3
        plan = ShotPlan(10**5, NoiseSpec(p_ro=p_ro))
        counts = sample_probs(probs, plan, lambda i: derive_rng(4, 9, 2, i))
        assert counts.shape == probs.shape
        for i, q in enumerate(probs.reshape(-1, 8)):
            q = q / q.sum()
            if p_ro:
                q = readout_confusion(3, p_ro) @ q
                q = q / q.sum()
            want = derive_rng(4, 9, 2, i).multinomial(plan.n_shots, q)
            assert np.array_equal(counts.reshape(-1, 8)[i], want)

    def test_confusion_matrix_stochastic(self):
        c = readout_confusion(3, 0.02)
        assert np.allclose(c.sum(axis=0), 1.0)
        assert np.isclose(c[0, 0], 0.98**3)

    def test_confusion_matrix_built_once_and_read_only(self):
        c = readout_confusion(3, 0.02)
        assert readout_confusion(3, 0.02) is c
        with pytest.raises(ValueError):
            c[0, 0] = 1.0


class TestPropagateRow:
    def test_identity_map_exact_limit(self):
        row = np.array([0.8, -0.6])
        plan = ShotPlan(10**6)
        out = propagate_row(row[None], np.eye(2), plan,
                            rng_factory=lambda i: derive_rng(1, 0))[0]
        assert np.array_equal(np.sign(out), np.sign(row))
        assert np.abs(out - row).max() <= 5e-3

    def test_small_rotation(self):
        th = 0.1
        rot_t = np.array([[np.cos(th), -np.sin(th)],
                          [np.sin(th), np.cos(th)]]).T
        plan = ShotPlan(10**6)
        out = propagate_row(np.array([[1.0, 0.0]]), rot_t.T, plan,
                            rng_factory=lambda i: derive_rng(3, 0))[0]
        assert np.abs(out - [np.cos(th), np.sin(th)]).max() <= 5e-3
        assert np.array_equal(np.sign(out), [1.0, 1.0])

    def test_sign_floor_fallback_on_crossing(self):
        # rotation by pi/2 + 0.05 sends (1, 0) to (-0.05, 0.999): entry 0
        # crosses zero, its magnitude falls below the floor (0.1 at 1e4
        # shots) and the sign comes from the classical prediction instead of
        # the row's stale own sign
        th = np.pi / 2 + 0.05
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        plan = ShotPlan(10**4)
        out = propagate_row(np.array([[1.0, 0.0]]), rot, plan,
                            rng_factory=lambda i: derive_rng(4, 0))[0]
        predicted = rot @ np.array([1.0, 0.0])
        assert np.sign(out[0]) == np.sign(predicted[0]) or predicted[0] == 0.0
        assert abs(out[1]) >= 0.99

    @pytest.mark.parametrize("noise", [
        NoiseSpec(), NoiseSpec(p1=1e-3, p2=1e-2, p_ro=1e-2)], ids=["sampled", "noisy"])
    def test_stacked_rows_match_single_rows(self, noise):
        # each row of a 3-row stack comes out bit for bit as a 1-row call
        # drawing from the same rng stream
        rng = np.random.default_rng(17)
        rows = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        gate = matcore.cayley(matcore.skew_part(rng.standard_normal((3, 3))), 0.2).T
        plan = ShotPlan(10**4, noise)
        stacked = propagate_row(rows, gate, plan,
                                rng_factory=lambda i: derive_rng(5, i))
        for i in range(3):
            single = propagate_row(rows[i:i + 1], gate, plan,
                                   rng_factory=lambda _: derive_rng(5, i))
            assert np.array_equal(stacked[i], single[0])


class TestEvolveSigmaPhase:
    def test_zero_generator_exact(self):
        phases = np.array([0.0, 0.7, -1.2])
        out = evolve_sigma_phase(phases, np.zeros(3), 0.5)
        assert np.abs(out - phases).max() <= 1e-15

    def test_scalar_cayley_argument_exact(self):
        lam, h = 0.8, 0.4
        out = evolve_sigma_phase(np.zeros(2), np.array([0.0, lam]), h)
        assert np.isclose(out[1], -2.0 * np.arctan(h * lam / 2.0), atol=1e-14)
        assert out[0] == 0.0

    def test_planted_phase_recovery(self):
        phi = np.pi / 3.0
        plan = ShotPlan(10**6)
        out = evolve_sigma_phase(
            np.array([0.0, phi]), np.zeros(2), 1.0, plan,
            rng_factory=lambda j, w: derive_rng(6, j, w))
        se = np.sqrt(1.0 / (2 * 10**6 / 2))  # conservative subspace SE
        assert abs(out[1] - phi) <= 3.0 * se

    def test_zero_generator_sampled_near_identity(self):
        phases = np.array([0.0, 0.4, -0.9, 1.3])
        plan = ShotPlan(10**6)
        out = evolve_sigma_phase(
            phases, np.zeros(4), 1.0, plan,
            rng_factory=lambda j, w: derive_rng(9, j, w))
        assert np.abs(out - phases).max() <= 0.01

    def test_interferometer_gates_match_per_j_build_and_are_read_only(self):
        # member j-1 of each stack equals the gate built for j alone
        r = 1.0 / np.sqrt(2.0)
        sdg, mix = qsim._interferometer_gates(5, 8)
        assert sdg.shape == mix.shape == (4, 8, 8)
        for j in range(1, 5):
            s_j = np.eye(8, dtype=complex)
            s_j[j, j] = -1j
            m_j = np.eye(8, dtype=complex)
            m_j[0, 0] = m_j[0, j] = m_j[j, 0] = r
            m_j[j, j] = -r
            assert np.array_equal(sdg[j - 1], s_j)
            assert np.array_equal(mix[j - 1], m_j)
        assert qsim._interferometer_gates(5, 8)[1] is mix
        with pytest.raises(ValueError):
            mix[0, 0, 0] = 1.0

    def test_plan_needs_rng_factory(self):
        with pytest.raises(InvalidInputError):
            evolve_sigma_phase(np.array([0.0, 0.5]), np.zeros(2), 0.1, ShotPlan(100))

    def test_rejects_phases_outside_range(self):
        with pytest.raises(InvalidInputError):
            evolve_sigma_phase(np.array([0.0, 3.5]), np.zeros(2), 0.1)


class TestDilation:
    def test_unitary_limit(self):
        f = SvdFactors.from_svd(np.eye(2), np.ones(2), np.eye(2), 0.0)
        v0 = np.array([0.6, 0.8])
        res = dilation_circuit(v0, f)
        assert abs(res.acceptance_rate - 1.0) <= 1e-12
        assert np.abs(res.probs - v0**2).max() <= 1e-12

    def test_exact_equivalence_2x2_and_4x4(self):
        rng = np.random.default_rng(10)
        for n in (2, 4):
            m = rng.standard_normal((n, n))
            u, s, v = matcore.svd(m)
            f = SvdFactors.from_svd(u, s, v, 0.0)
            v0 = rng.standard_normal(n)
            v0 /= np.linalg.norm(v0)
            res = dilation_circuit(v0, f)
            target = m @ v0 / s[0]
            got = res.amplitudes * np.sqrt(res.acceptance_rate)
            assert np.abs(got - target).max() <= 1e-10
            assert np.isclose(res.acceptance_rate, target @ target, atol=1e-12)

    def test_ancilla_hadamard_built_once_and_read_only(self):
        had = qsim._ancilla_hadamard(4)
        assert np.array_equal(had, np.kron(HAD, np.eye(4)))
        assert qsim._ancilla_hadamard(4) is had
        with pytest.raises(ValueError):
            had[0, 0] = 1.0

    @pytest.mark.parametrize("plan", [None, ShotPlan(10**4),
                                      ShotPlan(10**4, NoiseSpec(1e-3, 1e-2, 1e-2))])
    def test_stack_matches_dilation_circuit(self, plan):
        # member i of a stack equals the circuit of its factors on its own,
        # bit for bit, drawing the same stream; n = 3 pads the system
        rng = np.random.default_rng(15)
        factors = [random_factors(rng, 3) for _ in range(5)]
        v0 = initial_state(3)
        out = qsim.dilation_stack(v0, factors, plan, lambda i: derive_rng(2, i, 3))
        for i, f in enumerate(factors):
            one = dilation_circuit(v0, f, plan, derive_rng(2, i, 3))
            assert np.array_equal(out.probs[i], one.probs)
            assert out.acceptance_rate[i] == one.acceptance_rate
            for field in ("amplitudes", "record"):
                got, want = getattr(out, field), getattr(one, field)
                assert (got is None and want is None) or np.array_equal(got[i], want)

    def test_stack_errors_name_the_member_step(self):
        rng = np.random.default_rng(16)
        factors = [random_factors(rng, 2) for _ in range(4)]
        v0, steps = initial_state(2), [32, 33, 34, 35]
        # the first member whose own gate is not unitary
        bent = dataclasses.replace(factors[2], u=factors[2].u * 1.001)
        with pytest.raises(InvalidGateError) as excinfo:
            qsim.dilation_stack(v0, [*factors[:2], bent, factors[3]], ShotPlan(100),
                                lambda i: derive_rng(0, i), steps)
        assert excinfo.value.step == 34
        # the first member when only the norm over the stack exceeds the bound
        near = [dataclasses.replace(f, v=f.v * (1 + 3e-12)) for f in factors] * 400
        own = qsim._block_diagonal(near[0].v.T[None], 2)
        assert np.linalg.norm(qsim._unitarity_defect(own)) <= qsim.UNITARY_TOL
        with pytest.raises(InvalidGateError) as excinfo:
            qsim.dilation_stack(v0, near, None, steps=list(range(7, 7 + len(near))))
        assert excinfo.value.step == 7
        # one shot per circuit: the first member that accepts none
        members, steps = factors * 5, list(range(100, 120))
        starved = []
        for i, f in enumerate(members):
            try:
                dilation_circuit(v0, f, ShotPlan(1), derive_rng(5, i))
            except PostSelectionStarvedError as exc:
                assert exc.step is None
                starved.append(i)
        assert starved[0] > 0
        with pytest.raises(PostSelectionStarvedError) as excinfo:
            qsim.dilation_stack(v0, members, ShotPlan(1), lambda i: derive_rng(5, i),
                                steps)
        assert excinfo.value.step == steps[starved[0]]

    def test_plan_needs_rng(self):
        f = SvdFactors.from_svd(np.eye(2), np.ones(2), np.eye(2), 0.0)
        with pytest.raises(InvalidInputError):
            dilation_circuit(np.array([0.6, 0.8]), f, ShotPlan(100))

    def test_sampled_distribution(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((2, 2))
        u, s, v = matcore.svd(m)
        f = SvdFactors.from_svd(u, s, v, 0.0)
        v0 = np.array([1.0, 0.0])
        exact = dilation_circuit(v0, f)
        res = dilation_circuit(v0, f, ShotPlan(10**6), rng=derive_rng(7, 0))
        assert np.abs(res.probs - exact.probs).max() <= 5e-3
        assert abs(res.acceptance_rate - exact.acceptance_rate) <= 5e-3

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_noisy_distribution_matches_dense_reference(self, n, monkeypatch):
        # n=3 pads to two system qubits plus the ancilla: Hadamards act on
        # qubit 2 alone and V^T, U on the system subset [0, 1]; n=5 pads to
        # three system qubits plus the ancilla
        rng = np.random.default_rng(14)
        m = rng.standard_normal((n, n))
        u, s, v = matcore.svd(m)
        f = SvdFactors.from_svd(u, s, v, 0.0)
        v0 = rng.standard_normal(n)
        v0 /= np.linalg.norm(v0)
        noise = NoiseSpec(p1=0.05, p2=0.1)
        seen = []
        circuit_probs = qsim.circuit_probs

        def spy(state, gates, gate_noise):
            out = circuit_probs(state, gates, gate_noise)
            seen.append(out)
            return out

        monkeypatch.setattr(qsim, "circuit_probs", spy)
        dilation_circuit(v0, f, ShotPlan(100, noise), rng=derive_rng(1, 0))

        n_sys = int(np.log2(pad_dim(n)))
        n_qubits = n_sys + 1
        dim = 2**n_sys
        sys_qubits = list(range(n_sys))
        sp = np.ones(dim, dtype=complex)
        sp[:n] = sigma_plus(f.tilde)
        had = on_qubits({n_sys: HAD}, n_qubits)
        steps = [
            (had, [n_sys]),
            (np.kron(np.eye(2), embed_unitary(f.v.T.astype(complex), dim)),
             sys_qubits),
            (np.diag(np.concatenate([sp, np.conj(sp)])), list(range(n_qubits))),
            (np.kron(np.eye(2), embed_unitary(f.u.astype(complex), dim)),
             sys_qubits),
            (had, [n_sys]),
        ]
        psi = np.zeros(2**n_qubits, dtype=complex)
        psi[:n] = v0
        rho = np.outer(psi, psi.conj())
        for gate, qubits in steps:
            rho = gate @ rho @ gate.conj().T
            p = noise.p1 if len(qubits) == 1 else noise.p2
            rho = pauli_sum_depolarize(rho, qubits, n_qubits, p)
        assert len(seen) == 1
        assert np.abs(seen[0] - np.real(np.diag(rho))).max() <= 1e-12


class TestQsvdStep:
    def _setup(self, demo_gen, demo_seeds):
        history = [snapshot_from_arrays(x.u, x.tilde, demo_gen, x.t)
                   for x in demo_seeds[:2]]
        return demo_seeds[2], history

    def test_exact_mode_matches_step_factors(self, demo_cfg, demo_gen,
                                             demo_seeds):
        f, history = self._setup(demo_gen, demo_seeds)
        h = demo_cfg.step_size
        classical = step_factors(f, history, demo_gen, h)
        emulated, _ = qsvd_step(f, history, demo_gen, h)
        assert np.abs(emulated.u - classical.u).max() <= 1e-10
        assert np.abs(emulated.v - classical.v).max() <= 1e-10
        assert np.abs(emulated.tilde - classical.tilde).max() <= 1e-10
        assert np.isclose(emulated.sigma1, classical.sigma1, rtol=1e-12)

    def test_exact_mode_follows_step_factors_across_phase_crossing(self):
        # on this model a phase crosses 0 within the first steps; unless the
        # phase reads back in [0, pi] (the state stores its cosine), the
        # emulated flow turns the wrong way there and leaves the oracle
        cfg = RunConfig(model_name="synthetic", model_params={"n": 2, "seed": 0},
                        t_seed=5.0, t_f=2000.0, n_steps=1000,
                        seed_substeps=2000).validate()
        gen = build_generator(cfg)
        h = cfg.step_size
        seeds = seed_factors(gen, cfg.t_seed, h, nsub=cfg.seed_substeps)
        history = [snapshot_from_arrays(x.u, x.tilde, gen, x.t) for x in seeds[:2]]
        f = state = seeds[2]
        for i in range(12):
            snap = snapshot_from_arrays(f.u, f.tilde, gen, f.t)
            f = step_factors(f, history, gen, h, snapshot=snap)
            state, _ = qsvd_step(state, history, gen, h, step_index=i)
            history = [history[1], snap]
            phi = reconstruct_phi(f)
            gap = np.linalg.norm(reconstruct_phi(state) - phi)
            assert gap <= 1e-10 * np.linalg.norm(phi), f"step {i}"

    def test_sampled_row_error_scale(self, demo_cfg, demo_gen, demo_seeds):
        f, history = self._setup(demo_gen, demo_seeds)
        h = demo_cfg.step_size
        classical = step_factors(f, history, demo_gen, h)
        state, _ = qsvd_step(f, history, demo_gen, h, ShotPlan(10**6), master_seed=1234)
        gap = np.abs(state.u - classical.u).max()
        assert 0.0 < gap <= 1e-2  # binomial magnitude error at 1e6 shots

    def test_null_dynamics_bounded_drift(self):
        # A = 0: the factors should random-walk around the seed without
        # tripping any guard over 400 sampled steps
        gen = Generator(dim=2, matrix=lambda t: np.zeros((2, 2)))
        u = np.array([[0.8, -0.6], [0.6, 0.8]])
        f = SvdFactors.from_svd(u, np.array([1.0, 0.5]), np.eye(2), 0.0)
        snap = snapshot_from_arrays(f.u, f.tilde, gen, f.t)
        history = [snap, snap]
        state = f
        plan = ShotPlan(10**5)
        for i in range(400):
            state, snap = qsvd_step(state, history, gen, 0.1, plan,
                                    master_seed=99, step_index=i)
            history = [history[1], snap]
        assert np.all(np.isfinite(state.u))
        assert np.abs(state.u - u).max() <= 0.2
        assert np.abs(state.tilde[1] - 0.5) <= 0.2
        assert np.isclose(state.sigma1, 1.0)

    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(1e-3, 1e-2, 1e-2)])
    def test_measured_step_draws_the_derive_rng_streams(self, noise):
        # steps 62..65 straddle a stream block; n = 3 pads to 4 amplitudes
        cfg = RunConfig(model_name="synthetic",
                        model_params={"n": 3, "seed": 3, "smoothness": 0.1},
                        t_seed=1.0, t_f=1.2, n_steps=40, seed_substeps=5000).validate()
        gen = build_generator(cfg)
        h, seed, plan = cfg.step_size, 2**32 + 7, ShotPlan(10**4, noise)
        seeds = seed_factors(gen, cfg.t_seed, h, nsub=cfg.seed_substeps)
        history = [snapshot_from_arrays(x.u, x.tilde, gen, x.t) for x in seeds[:2]]
        state = seeds[2]
        v0 = initial_state(3)
        for step in range(62, 66):
            new, snap = qsvd_step(state, history, gen, h, plan, master_seed=seed,
                                  step_index=step, project=True)
            z_mid, w_mid, l_mid, _ = midpoint_generators(
                snapshot_from_arrays(state.u, state.tilde, gen, state.t), history)
            for kind, rows, mid, got in ((0, state.u, z_mid, new.u),
                                         (1, state.v, w_mid, new.v)):
                want = propagate_row(rows, matcore.cayley(mid, h).T, plan,
                                     lambda i: derive_rng(seed, step, kind, i))
                assert np.array_equal(got, matcore.nearest_orthogonal(want))
            phases = evolve_sigma_phase(state.phases, l_mid, h, plan,
                                        lambda j, w: derive_rng(seed, step, 2, j, w))
            assert np.array_equal(new.tilde, np.cos(np.abs(phases)))
            assert np.array_equal(
                dilation_circuit(v0, new, plan, qsim.stream_rng(seed, 3, step, 3)).record,
                dilation_circuit(v0, new, plan, derive_rng(seed, step, 3)).record)
            state, history = new, [history[1], snap]

    def test_deterministic(self, demo_cfg, demo_gen, demo_seeds):
        f, history = self._setup(demo_gen, demo_seeds)
        h = demo_cfg.step_size
        kw = dict(plan=ShotPlan(10**4, NoiseSpec(1e-3, 1e-2, 1e-2)),
                  master_seed=5, step_index=3)
        a, _ = qsvd_step(f, history, demo_gen, h, **kw)
        b, _ = qsvd_step(f, history, demo_gen, h, **kw)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.phases, b.phases)


def test_default_sign_floor():
    assert np.isclose(default_sign_floor(10**6), 0.01)
