import dataclasses
import itertools
import sys

import numpy as np
import pytest

from conftest import constant, random_factors
from svdflow import matcore, qsim
from svdflow.config import RunConfig, build_generator
from svdflow.runner import run_qsvd
from svdflow.errors import (
    DegenerateSingularValuesError,
    InvalidGateError,
    InvalidInputError,
    PostSelectionStarvedError,
)
from svdflow.odeflow import seed_factors
from svdflow.qsim import (
    NoiseSpec,
    ShotPlan,
    checked_gate,
    default_sign_floor,
    derive_rng,
    dilation_circuit,
    embed_unitary,
    encode,
    evolve_sigma_phase,
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
    start_history,
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
        # encode pads to the least power of two >= n, and to two amplitudes
        # (one qubit) when n = 1
        widths = [encode(np.full(n, 1.0 / np.sqrt(n))).shape[-1] for n in (1, 2, 3, 4, 5, 8)]
        assert widths == [2, 2, 4, 4, 8, 8]

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

    def test_encode_pads_to_a_register(self):
        for n, dim in ((1, 2), (2, 2), (3, 4), (5, 8)):
            vec = np.full(n, 1.0 / np.sqrt(n))
            amps = encode(np.stack([vec, vec]))
            assert amps.shape == (2, dim) and amps.dtype == complex
            assert np.array_equal(amps[:, :n], [vec, vec]) and not amps[:, n:].any()

    def test_statevec_norm_check(self):
        with pytest.raises(InvalidInputError, match="state norm"):
            encode([1.0, 1.0])
        # one bad member of a stack is enough
        with pytest.raises(InvalidInputError, match="state norm"):
            encode([[1.0, 0.0], [0.6, 0.8], [0.6, 0.9]])
        # the tolerance is 1e-12 on the norm itself
        for dev in (0.5e-12, -0.5e-12):
            encode([1.0 + dev, 0.0])
        for dev in (2e-12, -2e-12):
            with pytest.raises(InvalidInputError, match="state norm"):
                encode([1.0 + dev, 0.0])

    def test_statevec_rejects_nan(self):
        # a NaN norm compares False against both bounds; it must still fail
        with pytest.raises(InvalidInputError, match="state norm"):
            encode([np.nan, 0.0])
        with pytest.raises(InvalidInputError, match="state norm"):
            encode([[1.0, 0.0], [np.nan, 1.0]])

    def test_noise_spec_validation(self):
        for value in (1.5, True, "0.1", None):
            with pytest.raises(InvalidInputError):
                NoiseSpec(p1=value)


class TestApplyUnitary:
    """Gates applied by noise-free circuit runs, and the unitarity check
    every gate passes where it is built."""

    def test_identity_noop(self):
        st = encode([0.6, 0.8j])
        probs = qsim.circuit_probs(st, [(np.eye(2), None)], None)
        assert np.array_equal(probs, np.abs(st) ** 2)

    def test_hadamard(self):
        probs = qsim.circuit_probs(encode([1.0, 0.0]), [(HAD, None)], NoiseSpec())
        assert np.abs(probs - 0.5).max() <= 1e-15

    def test_norm_checked_after_every_gate(self):
        # a gate that was never checked cannot leave an unnormalized state
        with pytest.raises(InvalidInputError, match="state norm"):
            qsim.circuit_probs(encode([1.0, 0.0]), [(HAD, None), (2.0 * HAD, None)], None)

    def test_rejects_nonunitary(self):
        with pytest.raises(InvalidGateError, match="not unitary"):
            checked_gate(np.array([[1.0, 0.0], [0.0, 1.1]]))

    @pytest.mark.parametrize("noise", [None, NoiseSpec(p1=0.1, p2=0.1)])
    def test_rejects_nan_gate(self, noise):
        # alone and as one member of a stack; the row circuits check their
        # gate stack before they run, noisy or not
        nan_gate = np.full((2, 2), np.nan)
        for gate in (nan_gate, np.array([np.eye(2), nan_gate])):
            with pytest.raises(InvalidGateError, match="not unitary"):
                checked_gate(gate)
        with pytest.raises(InvalidGateError, match="not unitary") as excinfo:
            propagate_row(np.stack([np.eye(2)] * 2), np.array([np.eye(2), nan_gate]),
                          ShotPlan(100, noise or NoiseSpec()), derive_rng(0))
        assert excinfo.value.step is None

    @pytest.mark.parametrize("noise", [None, NoiseSpec(p1=0.1, p2=0.1)])
    def test_gate_must_span_the_register(self, noise):
        # a 2x2 gate on a 2-qubit register is rejected in the statevector
        # and the density-matrix branch alike, not applied to a subset
        st = encode([0.6, 0.0, 0.8, 0.0])
        with pytest.raises(InvalidInputError, match="register"):
            qsim.circuit_probs(st, [(HAD, [0])], noise)


class TestFixedGates:
    """Every gate is checked once, where it is built: the cached constants
    inside their builders, the others by the function that builds them."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """The gates qsim checks from here on, with the constants' caches
        cleared."""
        qsim._interferometer_gates.cache_clear()
        qsim._ancilla_hadamard.cache_clear()
        seen = []
        check = qsim.checked_gate

        def spy(u):
            seen.append(check(u))
            return seen[-1]

        monkeypatch.setattr(qsim, "checked_gate", spy)
        return seen

    def test_each_constant_checked_once(self, checked):
        # inside its builder: building them makes every check so far
        constants = [*qsim._interferometer_gates(3, 4), qsim._ancilla_hadamard(4)]
        assert [id(u) for u in checked] == [id(u) for u in constants]
        rng = np.random.default_rng(12)
        f = random_factors(rng, 3)
        plan = ShotPlan(1000, NoiseSpec(p1=1e-3, p2=1e-2))
        for seed in range(3):
            evolve_sigma_phase(np.array([0.0, 0.4, 1.1]), np.array([0.0, 0.3, -0.2]),
                               0.1, plan, derive_rng(seed))
            for p in (None, plan):
                dilation_circuit(initial_state(3), f, p, derive_rng(seed, 3))
        for const in constants:
            assert not const.flags.writeable
            assert sum(u is const for u in checked) == 1

    def test_built_gates_checked_once_per_call(self, checked):
        # the phase step applies its evolution gate in both families and
        # checks it once; the rows check their gate stack, the dilation its
        # three own stacks
        rng = np.random.default_rng(13)
        plan = ShotPlan(1000, NoiseSpec(p1=1e-3, p2=1e-2))
        phase_args = (np.array([0.0, 0.4, 1.1]), np.array([0.0, 0.3, -0.2]), 0.1, plan)
        evolve_sigma_phase(*phase_args, derive_rng(0))
        dilation_circuit(initial_state(3), random_factors(rng, 3))
        del checked[:]
        evolve_sigma_phase(*phase_args, derive_rng(1))
        assert len(checked) == 1
        rows = np.stack([np.linalg.qr(rng.standard_normal((3, 3)))[0]] * 2)
        gates = np.stack([matcore.cayley(matcore.skew_part(rng.standard_normal((3, 3))),
                                         0.2).T for _ in range(2)])
        propagate_row(rows, gates, plan, derive_rng(2))
        assert len(checked) == 2 and checked[-1].shape == (2, 1, 3, 3)
        for p in (None, plan):
            dilation_circuit(initial_state(3), random_factors(rng, 3), p, derive_rng(3))
        assert len(checked) == 8

    @pytest.mark.parametrize("noise", [None, NoiseSpec(p1=0.1, p2=0.1)])
    def test_changed_copy_of_a_constant_rejected(self, noise):
        sdg, mix = qsim._interferometer_gates(3, 4)
        qsim.circuit_probs(encode([0.6, 0.0, 0.8, 0.0]), [(sdg, None), (mix, None)], noise)
        for const in (sdg, mix):
            assert checked_gate(const) is const
            bad = const.copy()
            bad[1, 0, 0] *= 1.01
            with pytest.raises(InvalidGateError, match="not unitary"):
                checked_gate(bad)
        had = qsim._ancilla_hadamard(2).copy()
        had[0, 1] = np.nan
        with pytest.raises(InvalidGateError, match="not unitary"):
            checked_gate(had)


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
        states = encode(amps / np.linalg.norm(amps, axis=1, keepdims=True))
        gate, last = self.random_unitary(rng, dim), self.random_unitary(rng, dim)
        gate_stack = np.array([self.random_unitary(rng, dim) for _ in range(4)])
        one = states[0]

        stacked = qsim.circuit_probs(states, [(gate, [0, 2]), (last, [2])], noise)
        assert stacked.shape == (4, dim)
        for i in range(4):
            single = qsim.circuit_probs(states[i], [(gate, [0, 2]), (last, [2])],
                                        noise)
            assert np.abs(stacked[i] - single).max() <= 1e-14

        stacked = qsim.circuit_probs(one, [(gate_stack, [0, 2]), (last, [2])], noise)
        assert stacked.shape == (4, dim)
        for i in range(4):
            single = qsim.circuit_probs(one, [(gate_stack[i], [0, 2]), (last, [2])],
                                        noise)
            assert np.abs(stacked[i] - single).max() <= 1e-14


    @pytest.mark.parametrize("noise", [None, NoiseSpec(p1=0.05, p2=0.1)])
    def test_nonunitary_member_of_a_gate_stack_rejected(self, noise):
        # a gate stack is checked as a whole, and the dilation, which builds
        # its gates from a stack of factor states, names the bad member's step
        stack = np.array([np.eye(2), np.diag([1.0, 1.1])])
        with pytest.raises(InvalidGateError, match="not unitary"):
            checked_gate(stack)
        f = SvdFactors.from_svd(np.eye(2), np.ones(2), np.eye(2), 0.0)
        plan = ShotPlan(100, noise or NoiseSpec())
        for bad in (np.diag([1.0, 1.1]), np.full((2, 2), np.nan)):
            with pytest.raises(InvalidGateError, match="not unitary") as excinfo:
                qsim.dilation_stack(initial_state(2), [f, dataclasses.replace(f, v=bad), f],
                                    plan, [derive_rng(0, i) for i in range(3)], [5, 6, 7])
            assert excinfo.value.step == 6


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


def depolarized_probs(state, gates, noise):
    """Density-matrix reference: each gate, then the depolarizing channel on
    the whole register, p1 on one qubit and p2 on more."""
    n = state.shape[-1].bit_length() - 1
    p = noise.p1 if n == 1 else noise.p2
    rho = state[..., :, None] * state[..., None, :].conj()
    for u, _ in gates:
        rho = qsim._depolarize(u @ rho @ u.conj().mT, range(n), n, p)
    return np.real(np.diagonal(rho, axis1=-2, axis2=-1))


class TestClosedFormNoise:
    """Whole-register noise commutes with every gate, so a statevector run
    with f |psi|^2 + (1 - f)/d mixed in is the density matrix's result."""

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    @pytest.mark.parametrize("p1,p2", [(0.05, 0.2), (0.3, 0.01), (0.2, 0.0),
                                       (0.0, 0.2), (1.0, 1.0)])
    def test_matches_depolarize_gate_by_gate(self, n_qubits, p1, p2):
        # a stack of three states (3, 1, d) against gate stacks of four,
        # broadcast to (3, 4, d), with a single gate between them
        rng = np.random.default_rng(40 + n_qubits)
        dim = 2**n_qubits
        amps = rng.standard_normal((3, 1, dim)) + 1j * rng.standard_normal((3, 1, dim))
        states = encode(amps / np.linalg.norm(amps, axis=-1, keepdims=True))
        unitary = TestStackedCircuits.random_unitary
        gates = [(np.array([unitary(rng, dim) for _ in range(4)]), None),
                 (unitary(rng, dim), None),
                 (np.array([unitary(rng, dim) for _ in range(4)]), None)]
        noise = NoiseSpec(p1=p1, p2=p2)
        probs = qsim.circuit_probs(states, gates, noise)
        want = depolarized_probs(states, gates, noise)
        assert probs.shape == want.shape == (3, 4, dim)
        assert np.abs(probs - want).max() <= 1e-14
        if (p1 if n_qubits == 1 else p2) == 1.0:
            assert np.array_equal(probs, np.full(probs.shape, 1.0 / dim))

    @pytest.mark.parametrize("dilation", [False, True])
    def test_only_the_dilation_evolves_a_density_matrix(self, monkeypatch, dilation):
        # the channel is reached from circuit_probs, called by dilation_stack
        callers = []
        depolarize = qsim._depolarize

        def spy(*args):
            callers.append(sys._getframe(2).f_code.co_name)
            return depolarize(*args)

        monkeypatch.setattr(qsim, "_depolarize", spy)
        cfg = RunConfig(model_name="synthetic",
                        model_params={"n": 3, "seed": 3, "smoothness": 0.1},
                        t_seed=1.0, t_f=1.05, n_steps=10, seed_substeps=5000,
                        mode="noisy", n_shots=10**4, noise=NoiseSpec(1e-3, 1e-2, 1e-2),
                        project=True, dilation=dilation).validate()
        run_qsvd(cfg)
        assert set(callers) == ({"dilation_stack"} if dilation else set())


class TestSample:
    def test_basis_state_no_noise(self):
        counts = sample_probs(np.abs(encode([0.0, 1.0])) ** 2, ShotPlan(1000),
                              np.random.default_rng(0))
        assert counts[1] == 1000 and counts[0] == 0

    def test_uniform_superposition_binomial_error(self):
        st = encode(np.array([1.0, 1.0]) / np.sqrt(2))
        counts = sample_probs(np.abs(st) ** 2, ShotPlan(10**6),
                              np.random.default_rng(5))
        assert np.abs(counts / counts.sum() - 0.5).max() <= 3.0 * 5e-4

    def test_readout_flip_rate(self):
        counts = sample_probs(np.abs(encode([1.0, 0.0])) ** 2,
                              ShotPlan(10**6, NoiseSpec(p_ro=0.01)),
                              np.random.default_rng(8))
        se = np.sqrt(0.01 * 0.99 / 10**6)
        assert abs(counts[1] / counts.sum() - 0.01) <= 3.0 * se

    def test_deterministic_per_seed(self):
        st = encode(np.array([0.6, 0.8]))
        a = sample_probs(np.abs(st) ** 2, ShotPlan(5000),
                         np.random.default_rng(2))
        b = sample_probs(np.abs(st) ** 2, ShotPlan(5000),
                         np.random.default_rng(2))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("p_ro", [0.0, 0.013])
    def test_stack_matches_per_member_draws(self, p_ro):
        # one normalization, one readout mix and one draw for the whole
        # stack, bit for bit as its members normalized, mixed and drawn one
        # by one, in flattened order, from a generator with the same seed
        rng = np.random.default_rng(17)
        probs = rng.random((3, 2, 8)) ** 3
        plan = ShotPlan(10**5, NoiseSpec(p_ro=p_ro))
        counts = sample_probs(probs, plan, derive_rng(4, 9))
        assert counts.shape == probs.shape
        one_by_one = derive_rng(4, 9)
        for i, q in enumerate(probs.reshape(-1, 8)):
            q = q / q.sum()
            if p_ro:
                q = readout_confusion(3, p_ro) @ q
                q = q / q.sum()
            want = one_by_one.multinomial(plan.n_shots, q)
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
                            derive_rng(1, 0))[0]
        assert np.array_equal(np.sign(out), np.sign(row))
        assert np.abs(out - row).max() <= 5e-3

    def test_small_rotation(self):
        th = 0.1
        rot_t = np.array([[np.cos(th), -np.sin(th)],
                          [np.sin(th), np.cos(th)]]).T
        plan = ShotPlan(10**6)
        out = propagate_row(np.array([[1.0, 0.0]]), rot_t.T, plan,
                            derive_rng(3, 0))[0]
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
                            derive_rng(4, 0))[0]
        predicted = rot @ np.array([1.0, 0.0])
        assert np.sign(out[0]) == np.sign(predicted[0]) or predicted[0] == 0.0
        assert abs(out[1]) >= 0.99

    @pytest.mark.parametrize("noise", [
        NoiseSpec(), NoiseSpec(p1=1e-3, p2=1e-2, p_ro=1e-2)], ids=["sampled", "noisy"])
    def test_stacked_rows_match_single_rows(self, noise):
        # each row of a 3-row stack comes out bit for bit as 1-row calls
        # drawing in order from a generator with the same seed
        rng = np.random.default_rng(17)
        rows = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        gate = matcore.cayley(matcore.skew_part(rng.standard_normal((3, 3))), 0.2).T
        plan = ShotPlan(10**4, noise)
        stacked = propagate_row(rows, gate, plan, derive_rng(5))
        one_by_one = derive_rng(5)
        for i in range(3):
            single = propagate_row(rows[i:i + 1], gate, plan, one_by_one)
            assert np.array_equal(stacked[i], single[0])


class TestStackedKernels:
    """A stack of factors runs as one call, bit for bit as one call each."""

    @pytest.mark.parametrize("noise", [
        NoiseSpec(), NoiseSpec(p1=1e-3, p2=1e-2, p_ro=1e-2)], ids=["sampled", "noisy"])
    def test_factor_stack_matches_one_factor_calls(self, noise):
        # n = 3 pads to 4 amplitudes; the gates are transposed views, as the
        # step hands them over; the one-factor calls draw in order from a
        # generator with the stack's seed
        rng = np.random.default_rng(23)
        rows = np.stack([np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2)])
        cays = [matcore.cayley(matcore.skew_part(rng.standard_normal((3, 3))), 0.2)
                for _ in range(2)]
        plan = ShotPlan(10**4, noise)
        stacked = propagate_row(rows, np.stack([c.T for c in cays]), plan,
                                derive_rng(8))
        one_by_one = derive_rng(8)
        for k in range(2):
            single = propagate_row(rows[k], cays[k].T, plan, one_by_one)
            assert np.array_equal(stacked[k], single)

    @pytest.mark.parametrize("shape", [(3, 3), (1, 3, 3), (2, 4, 4), (3, 3, 3)])
    def test_gate_stack_of_the_wrong_shape_rejected(self, shape):
        rows = np.stack([np.eye(3)] * 2)
        gates = np.broadcast_to(np.eye(shape[-1]), shape)
        with pytest.raises(InvalidInputError, match="dimension mismatch"):
            propagate_row(rows, gates, ShotPlan(100), derive_rng(0))

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_stacked_reconstruct_phi_matches_per_point_calls(self, n):
        rng = np.random.default_rng(n)
        points = [random_factors(rng, n) for _ in range(5)]
        block = SvdFactors(*(np.array([getattr(f, name) for f in points])
                             for name in ("u", "v", "tilde", "sigma1", "t")))
        assert block.dim == n
        phi = reconstruct_phi(block)
        assert phi.shape == (5, n, n)
        for k, f in enumerate(points):
            assert np.array_equal(phi[k], reconstruct_phi(f))


class TestEvolveSigmaPhase:
    def test_planted_phase_recovery(self):
        phi = np.pi / 3.0
        plan = ShotPlan(10**6)
        out = evolve_sigma_phase(
            np.array([0.0, phi]), np.zeros(2), 1.0, plan,
            derive_rng(6))
        se = np.sqrt(1.0 / (2 * 10**6 / 2))  # conservative subspace SE
        assert abs(out[1] - phi) <= 3.0 * se

    def test_zero_generator_sampled_near_identity(self):
        phases = np.array([0.0, 0.4, -0.9, 1.3])
        plan = ShotPlan(10**6)
        out = evolve_sigma_phase(
            phases, np.zeros(4), 1.0, plan,
            derive_rng(9))
        assert np.abs(out - phases).max() <= 0.01

    @pytest.mark.parametrize("noise", [
        NoiseSpec(), NoiseSpec(p1=1e-3, p2=1e-2, p_ro=1e-2)], ids=["sampled", "noisy"])
    def test_phase_stack_matches_circuits_drawn_in_order(self, noise):
        # the (n-1, 2) stack comes out as its circuits run and drawn one by
        # one, j = 1..n-1 with cos before sin, from a generator with the
        # same seed; n = 3 pads to 4 amplitudes
        phases, lplus, h = np.array([0.0, 0.4, -0.9]), np.array([0.0, 0.3, -0.2]), 0.5
        plan = ShotPlan(10**4, noise)
        out = evolve_sigma_phase(phases, lplus, h, plan, derive_rng(6, 1))
        base = encode(np.exp(1j * phases) / np.sqrt(3))
        evo = embed_unitary(np.diag(matcore.cayley_diag(lplus, h)), 4)
        sdg, mix = qsim._interferometer_gates(3, 4)
        one_by_one = derive_rng(6, 1)
        for j in (1, 2):
            cos_sin = []
            for pre in ([], [(sdg[j - 1], None)]):
                probs = qsim.circuit_probs(base, [(evo, None), *pre, (mix[j - 1], None)],
                                           noise)
                counts = sample_probs(probs, plan, one_by_one)
                cos_sin.append((counts[0] - counts[j]) / (counts[0] + counts[j]))
            assert abs(out[j] - np.arctan2(cos_sin[1], cos_sin[0])) <= 1e-12

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
        with pytest.raises(InvalidInputError, match="needs an rng"):
            evolve_sigma_phase(np.array([0.0, 0.5]), np.zeros(2), 0.1, ShotPlan(100), None)

    def test_rejects_phases_outside_range(self):
        with pytest.raises(InvalidInputError, match="phases"):
            evolve_sigma_phase(np.array([0.0, 3.5]), np.zeros(2), 0.1, ShotPlan(100),
                               derive_rng(0))


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
        out = qsim.dilation_stack(v0, factors, plan,
                                  [derive_rng(2, i, 3) for i in range(5)])
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
                                [derive_rng(0, i) for i in range(4)], steps)
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
            qsim.dilation_stack(v0, members, ShotPlan(1),
                                [derive_rng(5, i) for i in range(len(members))], steps)
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

        n_sys = (n - 1).bit_length()
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
    def test_exact_mode_matches_step_factors(self, demo_cfg, demo_gen, demo_seeds):
        f, history = demo_seeds[2], start_history(demo_seeds, demo_gen)
        h = demo_cfg.step_size
        classical, classical_history = step_factors(f, history, demo_gen, h)
        emulated, emulated_history = qsvd_step(f, history, demo_gen, h)
        for name in ("u", "v", "tilde", "sigma1", "t"):
            assert np.array_equal(getattr(emulated, name), getattr(classical, name)), name
        assert emulated_history[0] is classical_history[0] is history[1]
        assert np.array_equal(emulated_history[1].lplus, classical_history[1].lplus)

    def test_exact_mode_follows_step_factors_across_phase_crossing(self):
        # on this model a phase crosses 0 within the first steps; unless the
        # phase reads back in [0, pi] (the state stores its cosine), the
        # flow turns the wrong way there and leaves the closed-form step
        # tz' = Re(sp(tz) c) of the Cayley factor c
        cfg = RunConfig(model_name="synthetic", model_params={"n": 2, "seed": 0},
                        t_seed=5.0, t_f=2000.0, n_steps=1000,
                        seed_substeps=2000).validate()
        gen, h = build_generator(cfg), cfg.step_size
        seeds = seed_factors(gen, cfg.t_seed, h, nsub=cfg.seed_substeps)
        history, state = start_history(seeds, gen), seeds[2]
        crossed = False
        for i in range(12):
            new, new_history = qsvd_step(state, history, gen, h, step_index=i)
            c = matcore.cayley_diag(midpoint_generators(new_history[1], history)[2], h)
            crossed |= bool((state.phases + np.angle(c))[1:].min() < 0.0)
            closed_form = np.real(sigma_plus(state.tilde) * c)
            assert np.abs(new.tilde[1:] - closed_form[1:]).max() <= 1e-10, f"step {i}"
            state, history = new, new_history
        assert crossed

    def test_sampled_row_error_scale(self, demo_cfg, demo_gen, demo_seeds):
        f, history = demo_seeds[2], start_history(demo_seeds, demo_gen)
        h = demo_cfg.step_size
        classical, _ = step_factors(f, history, demo_gen, h)
        state, _ = qsvd_step(f, history, demo_gen, h, ShotPlan(10**6), master_seed=1234)
        gap = np.abs(state.u - classical.u).max()
        assert 0.0 < gap <= 1e-2  # binomial magnitude error at 1e6 shots

    def test_null_dynamics_bounded_drift(self):
        # A = 0: the factors should random-walk around the seed without
        # tripping any guard over 400 sampled steps
        gen = constant(np.zeros((2, 2)))
        u = np.array([[0.8, -0.6], [0.6, 0.8]])
        f = SvdFactors.from_svd(u, np.array([1.0, 0.5]), np.eye(2), 0.0)
        snap = snapshot_from_arrays(f.u, f.tilde, gen, f.t)
        history = [snap, snap]
        state = f
        plan = ShotPlan(10**5)
        for i in range(400):
            state, history = qsvd_step(state, history, gen, 0.1, plan,
                                       master_seed=99, step_index=i)
        assert np.all(np.isfinite(state.u))
        assert np.abs(state.u - u).max() <= 0.2
        assert np.abs(state.tilde[1] - 0.5) <= 0.2
        assert np.isclose(state.sigma1, 1.0)

    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(1e-3, 1e-2, 1e-2)])
    def test_measured_step_draws_the_derive_rng_streams(self, noise):
        # step i draws its rows (U, then V), then its phases, from one
        # stream, derive_rng(seed, i); n = 3 pads to 4 amplitudes, and the
        # seed takes two words
        cfg = RunConfig(model_name="synthetic",
                        model_params={"n": 3, "seed": 3, "smoothness": 0.1},
                        t_seed=1.0, t_f=1.2, n_steps=40, seed_substeps=5000).validate()
        gen = build_generator(cfg)
        h, seed, plan = cfg.step_size, 2**32 + 7, ShotPlan(10**4, noise)
        seeds = seed_factors(gen, cfg.t_seed, h, nsub=cfg.seed_substeps)
        history, state = start_history(seeds, gen), seeds[2]
        for step in range(62, 66):
            new, new_history = qsvd_step(state, history, gen, h, plan, master_seed=seed,
                                         step_index=step, project=True)
            z_mid, w_mid, l_mid, _ = midpoint_generators(new_history[1], history)
            rng = derive_rng(seed, step)
            u, v = propagate_row(
                np.stack([state.u, state.v]),
                np.stack([matcore.cayley(z_mid, h).T, matcore.cayley(w_mid, h).T]),
                plan, rng)
            phases = evolve_sigma_phase(state.phases, l_mid, h, plan, rng)
            assert np.array_equal(new.u, matcore.nearest_orthogonal(u))
            assert np.array_equal(new.v, matcore.nearest_orthogonal(v))
            assert np.array_equal(new.tilde, np.cos(phases))
            state, history = new, new_history

    def test_measured_step_names_its_step(self, demo_cfg, demo_gen, demo_seeds,
                                          monkeypatch):
        # a Cayley map that is not unitary stops the row gate check of step 17
        f, history = demo_seeds[2], start_history(demo_seeds, demo_gen)
        monkeypatch.setattr(qsim, "cayley", lambda m, h: np.diag([1.0, 1.1]))
        with pytest.raises(InvalidGateError, match="not unitary") as excinfo:
            qsvd_step(f, history, demo_gen, demo_cfg.step_size, ShotPlan(100),
                      step_index=17)
        assert excinfo.value.step == 17

    @pytest.mark.parametrize("seed", [1234, 2**32 + 7])
    def test_streams_of_a_run_are_distinct(self, seed):
        # every step's stream (seed, i) and every grid point's dilation
        # stream (seed, k, 3) of a 400-step run start in distinct states
        paths = [(i,) for i in range(400)] + [(k, 3) for k in range(401)]
        states = {tuple(derive_rng(seed, *path).bit_generator.state["state"].values())
                  for path in paths}
        assert len(states) == len(paths)

    @pytest.mark.parametrize("plan", [None, ShotPlan(100)], ids=["exact", "sampled"])
    def test_equal_modulus_is_a_degeneracy_at_its_step(self, plan):
        # tz = (1, 0.3, -0.3): the generators divide by 0.3^2 - (-0.3)^2 = 0;
        # this used to stop in cayley on NaN as an InvalidInputError (exit 2)
        gen = constant(np.arange(9.0).reshape(3, 3))
        f = SvdFactors.from_svd(np.eye(3), np.array([1.0, 0.3, -0.3]), np.eye(3), 0.0)
        snap = snapshot_from_arrays(np.eye(3), np.array([1.0, 0.5, 0.2]), gen, 0.0)
        with pytest.raises(DegenerateSingularValuesError) as excinfo:
            qsvd_step(f, [snap, snap], gen, 0.1, plan, step_index=7)
        assert excinfo.value.step == 7
        assert excinfo.value.exit_code == 3

    def test_deterministic(self, demo_cfg, demo_gen, demo_seeds):
        f, history = demo_seeds[2], start_history(demo_seeds, demo_gen)
        h = demo_cfg.step_size
        kw = dict(plan=ShotPlan(10**4, NoiseSpec(1e-3, 1e-2, 1e-2)),
                  master_seed=5, step_index=3)
        a, _ = qsvd_step(f, history, demo_gen, h, **kw)
        b, _ = qsvd_step(f, history, demo_gen, h, **kw)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.phases, b.phases)


def test_default_sign_floor():
    assert np.isclose(default_sign_floor(10**6), 0.01)
