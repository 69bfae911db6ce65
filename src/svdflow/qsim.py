"""Statevector circuit emulator for the factor-flow updates.

Registers are little-endian: qubit 0 is the least significant bit of the
basis-state index. Vectors of dimension N are embedded into the next power
of two with zero padding. Every gate is a full-register matrix, applied as
one product (`u @ amps`, or `u @ rho @ u^dagger` on a density matrix);
the qubit list that comes with a gate names only the qubits its
depolarizing noise acts on. States (..., 2^n) and gates (B, 2^n, 2^n) may be
stacks that broadcast, so the rows of a factor run as one circuit, so does
each interferometer family, and so do the dilation circuits of several grid
points (`dilation_stack`). `sample_probs` draws a whole stack of probability
vectors in one pass. Every gate is checked for
unitarity when it is applied, except the cached constant gates (S^dagger,
mixing, ancilla Hadamard), which are checked once, when they are built.

`qsvd_step`, the one step of the factor flow, and its circuits take an
optional `ShotPlan`: the shots per circuit and the `NoiseSpec` (per-gate
depolarizing, symmetric readout flips) every circuit runs under, all zero
for noise-free sampling. Without a plan the step is exact: U and V are
updated as whole matrices and phases and amplitudes are read directly.

Noise has one representation: `circuit_probs` evolves a density matrix
through each gate followed by the exact depolarizing channel on the qubits
listed with the gate, in closed form. A multinomial draw from the resulting
distribution is identical in distribution to running every shot as its own
independent noisy execution - the granularity at which hardware repeats a
circuit. `apply_unitary` is the noise-free statevector gate.

Determinism: every stochastic sub-task draws from its own RNG stream,
PCG64 seeded by numpy's SeedSequence([master_seed, step_index, task_kind,
...]), so runs with identical configurations are bit-identical regardless
of evaluation order. `derive_rng` builds one such stream and is the
specification; the step loop gets the same streams from `stream_rng`, which
hashes the seeds of every stream of a block of STREAM_BLOCK steps in one
vectorized pass and sets each into one reused generator. Stacking keeps
every stream: each member of a drawn stack reseeds from its own stream
before its own multinomial draw, so the counts are those of its circuit run
alone.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InvalidGateError,
    InvalidInputError,
    PhaseReconstructionError,
    PostSelectionStarvedError,
    RowReconstructionError,
    SvdFlowError,
)
from .matcore import cayley, cayley_diag, nearest_orthogonal
from .svdeom import (
    DEFAULT_TOL_DEGEN,
    DEFAULT_TOL_SAT,
    GeneratorSnapshot,
    SvdFactors,
    midpoint_generators,
    sigma_plus,
    snapshot_from_arrays,
)

CONTRAST_FLOOR = 0.5  # least cos^2 + sin^2 a measured phase estimate accepts


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Deterministic per-task RNG from the master seed and an integer path."""
    return np.random.default_rng([int(master_seed), *map(int, path)])


# SeedSequence's hash constants (numpy.random.bit_generator), the multiplier
# of PCG64's 128-bit LCG, and the steps whose streams are derived together.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
STREAM_BLOCK = 64


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k < count: a SeedSequence hash's constants."""
    out = np.empty(count, dtype=np.uint32)
    for k in range(count):
        out[k] = init
        init = init * mult & 0xFFFFFFFF
    return out


def _int_words(value: int) -> list[int]:
    """A non-negative int as numpy coerces entropy: little-endian uint32
    words, [0] for 0."""
    if value < 0:
        raise InvalidInputError(f"rng seed must be >= 0, got {value}")
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for every row of a
    (K, L) uint32 array of entropy words, in one pass over the K rows.

    The four-word pool takes the hashmix of the first four words (of zeros
    past the end), mixes every pool word into every other, and then absorbs
    each word past the fourth into every pool word; the output hash cycles
    the pool into eight uint32 words, read as four little-endian uint64.
    """
    k, length = entropy.shape
    n_hashmix = _POOL_SIZE**2 + max(length - _POOL_SIZE, 0) * _POOL_SIZE
    chain = _hash_chain(_INIT_A, _MULT_A, n_hashmix + 1)
    consts = iter(zip(chain[:-1], chain[1:]))

    def hashmix(value):
        xor, mult = next(consts)
        value = (value ^ xor) * mult
        return value ^ (value >> 16)

    def mix(x, y):
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        return out ^ (out >> 16)

    zeros = np.zeros(k, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    chain = _hash_chain(_INIT_B, _MULT_B, 9)
    out = (np.stack(pool * 2, axis=-1) ^ chain[:-1]) * chain[1:]
    out ^= out >> 16
    return out.view(np.uint64)


def _grid_words(seed: list[int], *axes: Sequence[int]) -> np.ndarray:
    """Seed words (*map(len, axes), 4) of the streams [seed, a0, a1, ...]
    for every point of the grid of the axes."""
    grid = np.stack(np.meshgrid(*map(np.asarray, axes), indexing="ij"), axis=-1)
    assert 0 <= grid.min() and grid.max() <= 0xFFFFFFFF  # one word per entry
    lead = grid.shape[:-1]
    entropy = np.concatenate(
        [np.broadcast_to(np.asarray(seed), (*lead, len(seed))), grid], axis=-1)
    return _seed_words(entropy.reshape(-1, entropy.shape[-1]).astype(np.uint32)
                       ).reshape(*lead, 4)


@functools.lru_cache(maxsize=1)
def _stream_block(master_seed: int, block: int, n: int) -> tuple[np.ndarray, ...]:
    """Seed words of every stream of the STREAM_BLOCK steps from block *
    STREAM_BLOCK on in an n-state flow, one uint64 array per task kind,
    indexed [step % STREAM_BLOCK, *index, word]: rows i of U (kind 0) and V
    (kind 1), phase interferometers (j, w) (kind 2) and the dilation (kind 3)."""
    seed = _int_words(master_seed)
    steps = range(block * STREAM_BLOCK, (block + 1) * STREAM_BLOCK)
    rows = _grid_words(seed, steps, (0, 1), range(n))
    phases = _grid_words(seed, steps, (2,), range(n), (0, 1))
    dilation = _grid_words(seed, steps, (3,))
    return rows[:, 0], rows[:, 1], phases[:, 0], dilation[:, 0]


def release_streams() -> None:
    """Drop the cached block of stream seeds. A solve calls this when it
    ends, so that no allocation of the solve outlives it: a block left live
    on the heap can make the next set-up's temporaries grow and trim the
    heap top on every chunk."""
    _stream_block.cache_clear()


_STREAM_RNG = np.random.Generator(np.random.PCG64(0))


def stream_rng(master_seed: int, n: int, step: int, kind: int,
               *index: int) -> np.random.Generator:
    """The generator derive_rng(master_seed, step, kind, *index) builds, for
    a task of an n-state step (see `_stream_block`), at a fraction of its cost.

    PCG64 seeded with words (s0, s1, i0, i1) starts at inc = 2 (i0:i1) + 1
    and state = ((inc + (s0:s1)) * M + inc) mod 2^128. The state is set into
    one reused generator, so each call reseeds the generator the previous
    call returned: draw from it before the next call.
    """
    words = _stream_block(master_seed, step // STREAM_BLOCK, n)[kind]
    s0, s1, i0, i1 = words[(step % STREAM_BLOCK, *index)].tolist()
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
    _STREAM_RNG.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0}
    return _STREAM_RNG


def pad_dim(n: int) -> int:
    k = 1
    while k < n:
        k *= 2
    return k


def embed_unitary(u: np.ndarray, dim: int) -> np.ndarray:
    """Pad a unitary acting on the first len(u) basis states with identity."""
    n = u.shape[0]
    if n == dim:
        return u
    out = np.eye(dim, dtype=complex)
    out[:n, :n] = u
    return out


@dataclass(frozen=True)
class NoiseSpec:
    """Depolarizing probabilities per gate plus symmetric readout flips."""

    p1: float = 0.0
    p2: float = 0.0
    p_ro: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "p_ro"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not 0.0 <= v <= 1.0):
                raise InvalidInputError(
                    f"noise probability {name}={v!r} is not a real number in [0, 1]")

    @property
    def any_gate_noise(self) -> bool:
        return self.p1 > 0.0 or self.p2 > 0.0


@dataclass(frozen=True)
class ShotPlan:
    """Shots per circuit and the noise every measured circuit runs under."""

    n_shots: int
    noise: NoiseSpec = NoiseSpec()

    def __post_init__(self):
        if self.n_shots < 1:
            raise InvalidInputError("n_shots must be >= 1")


@dataclass(frozen=True)
class StateVec:
    """Amplitudes (..., 2^n_qubits): one state or a stack of states."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if self.amps.shape[-1:] != (2**self.n_qubits,):
            raise InvalidInputError("amplitude count must be 2**n_qubits")
        norm_sq = np.vecdot(self.amps, self.amps).real  # |norm - 1| <= 1e-12; NaN fails
        if not ((norm_sq >= (1 - 1e-12) ** 2) & (norm_sq <= (1 + 1e-12) ** 2)).all():
            raise InvalidInputError(f"state norm {np.sqrt(norm_sq)} deviates from 1")

    @classmethod
    def from_amplitudes(cls, vec: Sequence[complex]) -> "StateVec":
        vec = np.asarray(vec, dtype=complex)
        n = vec.shape[-1]
        dim = max(2, pad_dim(n))
        amps = np.zeros((*vec.shape[:-1], dim), dtype=complex)
        amps[..., :n] = vec
        return cls(n_qubits=int(np.log2(dim)), amps=amps)

    @property
    def dim(self) -> int:
        return self.amps.shape[-1]


UNITARY_TOL = 1e-10  # Frobenius norm that u^dagger u - I of a gate may reach

# Read-only gates built once and checked then (see `_fixed_gate`), by id; the
# reference held here keeps an id from being reused by another array.
_FIXED_GATES: dict[int, np.ndarray] = {}


def _unitarity_defect(u: np.ndarray) -> np.ndarray:
    """u^dagger u - I of a gate, or of each member of a stack."""
    return u.conj().mT @ u - np.eye(u.shape[-1])


def _checked_gate(u: np.ndarray, qubits: Sequence[int] | None, n_qubits: int
                  ) -> tuple[np.ndarray, Sequence[int]]:
    """The full-register gate (or a stack) as a complex array with the qubits
    its noise acts on (the whole register when None), after shape and
    unitarity checks; one norm over a stack bounds every member's. A fixed
    gate was checked when it was built and is not checked again."""
    u = np.asarray(u, dtype=complex)
    dim = 2**n_qubits
    if u.shape[-2:] != (dim, dim):
        raise InvalidInputError(
            f"gate shape {u.shape} does not match a {n_qubits}-qubit register")
    if (_FIXED_GATES.get(id(u)) is not u
            and not np.linalg.norm(_unitarity_defect(u)) <= UNITARY_TOL):  # NaN fails
        raise InvalidGateError("gate matrix is not unitary")
    return u, range(n_qubits) if qubits is None else qubits


def _fixed_gate(u: np.ndarray) -> np.ndarray:
    """A gate (or stack) that is built once and cached: checked here, made
    read-only and registered, so that `_checked_gate` skips its re-check."""
    u, _ = _checked_gate(u, None, u.shape[-1].bit_length() - 1)
    u.flags.writeable = False
    _FIXED_GATES[id(u)] = u
    return u


def apply_unitary(state: StateVec, u: np.ndarray) -> StateVec:
    """Apply a full-register unitary to a statevector; stacks broadcast."""
    u, _ = _checked_gate(u, None, state.n_qubits)
    return StateVec(n_qubits=state.n_qubits, amps=np.matvec(u, state.amps))


def _depolarize(rho: np.ndarray, qubits: Sequence[int], n_qubits: int,
                p: float) -> np.ndarray:
    """Exact depolarizing channel of strength p on the qubit subset Q.

    The uniform average over all 4^k Pauli strings on Q is I/2^k (x) Tr_Q rho
    (the twirl identity), so the channel is
    (1 - p) rho + p (I/2^k (x) Tr_Q rho), evaluated with one transpose that
    moves Q's ket and bra axes last and its inverse. Leading stack axes of
    rho (..., 2^n, 2^n) are carried through.
    """
    n, k = n_qubits, len(qubits)
    lead = rho.shape[:-2]
    shape = (*lead, *[2] * (2 * n))
    # counted from the end, ket qubit q is axis -1-n-q and bra qubit q -1-q
    axes_q = [-1 - n - q for q in qubits] + [-1 - q for q in qubits]
    last = range(-2 * k, 0)
    r, d = 2 ** (n - k), 2**k
    blocks = np.moveaxis(rho.reshape(shape), axes_q, last).reshape(*lead, r, r, d, d)
    reduced = np.trace(blocks, axis1=-2, axis2=-1)
    mixed = np.multiply.outer(reduced, np.eye(d) / d).reshape(shape)
    return (1.0 - p) * rho + p * np.moveaxis(mixed, last, axes_q).reshape(rho.shape)


def circuit_probs(state: StateVec, gates: Sequence[tuple], noise: NoiseSpec | None
                  ) -> np.ndarray:
    """Measurement probabilities after a gate list [(u, qubits), ...].

    Each u is a full-register matrix (little-endian, like the register) or
    a stack of them; qubits (None for all) names only the qubits its
    depolarizing noise acts on. The stack axes of the state and the gates
    broadcast, and the probabilities come back with them: (..., 2^n).
    Without gate noise this is a pure statevector run. With gate noise
    the exact depolarizing channel is applied per gate on a density matrix;
    a multinomial draw from the result is distributionally identical to
    running each shot as an independent Pauli trajectory (iid per shot),
    which is how hardware executes repeated circuits.
    """
    if noise is None or not noise.any_gate_noise:
        for u, _ in gates:
            state = apply_unitary(state, u)
        return np.abs(state.amps) ** 2
    n = state.n_qubits
    rho = state.amps[..., :, None] * state.amps[..., None, :].conj()
    for u, qubits in gates:
        u, qubits = _checked_gate(u, qubits, n)
        rho = u @ rho @ u.conj().mT
        p = noise.p1 if len(qubits) == 1 else noise.p2
        if p > 0.0:
            rho = _depolarize(rho, qubits, n, p)
    probs = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    return np.clip(probs, 0.0, None)


@functools.lru_cache(maxsize=64)
def readout_confusion(n_qubits: int, p_ro: float) -> np.ndarray:
    """Full-register confusion matrix for independent symmetric bit flips,
    built once per (n_qubits, p_ro) and returned read-only."""
    r1 = np.array([[1.0 - p_ro, p_ro], [p_ro, 1.0 - p_ro]])
    out = np.array([[1.0]])
    for _ in range(n_qubits):
        out = np.kron(r1, out)
    out.flags.writeable = False
    return out


def sample_probs(probs: np.ndarray, plan: ShotPlan,
                 rng_for: Callable[[int], np.random.Generator]) -> np.ndarray:
    """Counts (..., 2^n) of plan.n_shots draws from each full-register
    probability vector of a stack (..., 2^n), with the plan's readout flips
    mixed in.

    The whole stack is normalized and mixed in one pass; then member i of the
    flattened stack draws from rng_for(i), which is called right before its
    draw. A single vector is the stack of one and draws from rng_for(0).
    """
    probs = probs / probs.sum(axis=-1, keepdims=True)
    if plan.noise.p_ro > 0.0:
        n_qubits = probs.shape[-1].bit_length() - 1
        probs = np.matvec(readout_confusion(n_qubits, plan.noise.p_ro), probs)
        probs = probs / probs.sum(axis=-1, keepdims=True)
    flat = probs.reshape(-1, probs.shape[-1])
    counts = [rng_for(i).multinomial(plan.n_shots, p) for i, p in enumerate(flat)]
    return np.array(counts).reshape(probs.shape)


def _sign_or(values: np.ndarray) -> np.ndarray:
    s = np.sign(values)
    s[s == 0.0] = 1.0
    return s


def default_sign_floor(n_shots: int) -> float:
    return 10.0 / np.sqrt(n_shots)


def propagate_row(rows: np.ndarray, cay_zt: np.ndarray, plan: ShotPlan,
                  rng_factory: Callable[[int], np.random.Generator]) -> np.ndarray:
    """Advance the rows (m, n) of an orthogonal factor under the transposed Cayley map.

    The rows are encoded as a stack of states, run as one circuit under the
    plan's noise, drawn as one stack (row i from rng_factory(i)) and rebuilt as
    sign * sqrt(p_hat). Each entry keeps its own sign unless its measured
    magnitude falls below the sign floor; it then takes the sign of the
    noise-free classical prediction.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[-1]
    if cay_zt.shape != (n, n):
        raise InvalidInputError("row/matrix dimension mismatch")
    predicted = np.matvec(cay_zt, rows)
    states = StateVec.from_amplitudes(rows)
    gate = embed_unitary(cay_zt.astype(complex), states.dim)
    probs = circuit_probs(states, [(gate, None)], plan.noise)
    p = sample_probs(probs, plan, rng_factory)[:, :n].astype(float)
    total = p.sum(axis=1, keepdims=True)
    if (total == 0.0).any():
        raise RowReconstructionError("all sampled row magnitudes are zero")
    mags = np.sqrt(p / total)
    signs = np.where(mags >= default_sign_floor(plan.n_shots), _sign_or(rows),
                     _sign_or(predicted))
    return signs * mags


@functools.lru_cache(maxsize=64)
def _interferometer_gates(n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """S^dagger and Hadamard-type mixing stacks of the phase interferometers,
    built and checked once and returned read-only; member j-1 acts on
    {|0>, |j>} only."""
    k, js = np.arange(n - 1), np.arange(1, n)
    sdg, mix = np.tile(np.eye(dim, dtype=complex), (2, n - 1, 1, 1))
    sdg[k, js, js] = -1j
    mix[k, 0, 0] = mix[k, 0, js] = mix[k, js, 0] = 1.0 / np.sqrt(2.0)
    mix[k, js, js] = -1.0 / np.sqrt(2.0)
    return _fixed_gate(sdg), _fixed_gate(mix)


def evolve_sigma_phase(phases: np.ndarray, lplus_mid: np.ndarray, h: float,
                       plan: ShotPlan | None = None,
                       rng_factory: Callable[..., np.random.Generator] | None = None
                       ) -> np.ndarray:
    """Advance the diagonal-unitary phases by a Cayley step of -i L.

    The state (1/sqrt(N)) sum_j e^{i phi_j} |j> is evolved under the diagonal
    Cayley unitary and read exactly without a plan; with one, each relative
    phase is measured from a pair of two-level interferometers on {|0>, |j>}
    under the plan's noise: a Hadamard-type
    mixing yields cos(phi_j), the same mixing preceded by an S^dagger phase
    on |j> yields sin(phi_j), and phi_j = atan2(sin, cos). Phase 0 is the
    reference and stays 0. Each family is one circuit on a stack of n-1
    gates, one per j. Both families are drawn as one (n-1, 2) stack: circuit
    j draws from rng_factory(j, 0) (cos) or rng_factory(j, 1) (sin). The
    count and contrast guards are taken in the order of j, cos before sin.
    """
    phases = np.asarray(phases, dtype=float)
    if np.any(np.abs(phases) >= np.pi):
        raise InvalidInputError("phases must lie inside (-pi, pi)")
    n = len(phases)
    factors = cayley_diag(lplus_mid, h)
    if plan is None:
        new = phases + np.angle(factors)
        new = np.angle(np.exp(1j * new))  # wrap into (-pi, pi]
        new[0] = 0.0
        return new
    if rng_factory is None:
        raise InvalidInputError("a ShotPlan needs an rng factory")
    base = StateVec.from_amplitudes(np.exp(1j * phases) / np.sqrt(n))
    evo = embed_unitary(np.diag(factors), base.dim)
    sdg, mix = _interferometer_gates(n, base.dim)
    probs = np.stack([
        circuit_probs(base, [(evo, None), (mix, None)], plan.noise),
        circuit_probs(base, [(evo, None), (sdg, None), (mix, None)], plan.noise),
    ], axis=1)
    counts = sample_probs(probs, plan, lambda i: rng_factory(i // 2 + 1, i % 2))
    p = counts / counts.sum(axis=-1, keepdims=True)
    k = np.arange(n - 1)
    p0, pj = p[..., 0], p[k, :, k + 1]  # (n-1, 2): phase j = k + 1, cos and sin
    denom = p0 + pj
    with np.errstate(divide="ignore", invalid="ignore"):
        c, s = ((p0 - pj) / denom).T
    contrast = c * c + s * s
    starved = (denom <= 0.0).any(axis=1)
    failed = np.flatnonzero(starved | (contrast < CONTRAST_FLOOR))
    if len(failed):
        k = failed[0]
        if starved[k]:
            raise PhaseReconstructionError(
                f"no counts in the interferometer subspace for phase {k + 1}")
        raise PhaseReconstructionError(
            f"interferometer contrast {contrast[k]:.3f} below "
            f"{CONTRAST_FLOOR} for phase {k + 1}; decoherence too strong")
    new = np.zeros(n)
    new[1:] = np.arctan2(s, c)
    return new


@dataclass(frozen=True)
class DilationResult:
    """Post-selected probabilities (..., n) and acceptance rate of a dilation
    circuit, or of a stack of them; read exactly, also the post-selected
    amplitudes, else the counts of the sampled circuit."""

    probs: np.ndarray
    acceptance_rate: float | np.ndarray
    amplitudes: np.ndarray | None = None
    record: np.ndarray | None = None   # counts of the sampled circuit


@functools.lru_cache(maxsize=64)
def _ancilla_hadamard(dim: int) -> np.ndarray:
    """H on an ancilla above a dim-dimensional system (the ancilla is the
    most significant qubit), built and checked once per dim and returned
    read-only."""
    return _fixed_gate(np.kron(np.array([[1, 1], [1, -1]], dtype=complex)
                               / np.sqrt(2.0), np.eye(dim)))


def _block_diagonal(mats: np.ndarray, dim: int) -> np.ndarray:
    """I_2 (x) embed_unitary(m, dim) for each matrix m of a stack (K, n, n):
    the same gate on the system whatever the ancilla."""
    k, n = mats.shape[:2]
    out = np.zeros((k, 2 * dim, 2 * dim), dtype=complex)
    pad = np.arange(n, dim)
    for lo in (0, dim):
        out[:, lo:lo + n, lo:lo + n] = mats
        out[:, lo + pad, lo + pad] = 1.0
    return out


def dilation_stack(v0: np.ndarray, factors: Sequence[SvdFactors],
                   plan: ShotPlan | None = None,
                   rng_for: Callable[[int], np.random.Generator] | None = None,
                   steps: Sequence[int] | None = None) -> DilationResult:
    """One-ancilla dilation circuits applying the nonunitary propagators of a
    stack of factor states to v0, run as one circuit on stacks of gates.

    Circuit: H(ancilla) -> V^T (system) -> block-diagonal Sp (+) conj(Sp)
    selected by the ancilla -> U (system) -> H(ancilla) -> measure.
    Conditioned on ancilla 0 the system state is Phi v0 / sigma1 up to
    normalization; the acceptance rate ||Phi v0||^2 / sigma1^2 recovers the
    norm. Read exactly without a plan, else sampled under it, member i
    drawing from rng_for(i). The result carries the stack axis (K, ...).

    `steps`, when given, names the grid point of each member, and an error
    carries the step of the member it belongs to: the first member with no
    accepted shot (or zero weight), or for a failed unitarity check the first
    member whose own gates exceed the bound (the first member when only the
    norm over the stack does). Other errors carry the first member's step.
    """
    def step_of(member: int) -> int | None:
        return None if steps is None else int(steps[member])

    v0 = np.asarray(v0, dtype=float)
    if abs(np.linalg.norm(v0) - 1.0) > 1e-10:
        raise InvalidInputError("initial vector must have unit norm", step_of(0))
    if plan is not None and rng_for is None:
        raise InvalidInputError("a ShotPlan needs an rng", step_of(0))
    n = len(v0)
    system = StateVec.from_amplitudes(v0)
    n_sys, dim = system.n_qubits, system.dim
    anc = n_sys  # ancilla is the most significant qubit
    state = StateVec(n_sys + 1, np.concatenate([system.amps, np.zeros(dim)]))
    had = _ancilla_hadamard(dim)
    sys_qubits = list(range(n_sys))

    sp = np.ones((len(factors), dim), dtype=complex)
    sp[:, :n] = sigma_plus(np.array([f.tilde for f in factors]))
    u_sigma = np.zeros((len(factors), 2 * dim, 2 * dim), dtype=complex)
    diag = np.arange(2 * dim)
    u_sigma[:, diag, diag] = np.concatenate([sp, np.conj(sp)], axis=-1)
    own = [_block_diagonal(np.array([f.v.T for f in factors]), dim), u_sigma,
           _block_diagonal(np.array([f.u for f in factors]), dim)]
    gates = [(had, [anc]), (own[0], sys_qubits), (own[1], list(range(n_sys + 1))),
             (own[2], sys_qubits), (had, [anc])]

    try:
        if plan is None:
            for u, _ in gates:
                state = apply_unitary(state, u)
        else:
            full_probs = circuit_probs(state, gates, plan.noise)
    except InvalidGateError as exc:
        defect = [np.linalg.norm(_unitarity_defect(g), axis=(-2, -1)) for g in own]
        failing = np.flatnonzero(~np.all(np.array(defect) <= UNITARY_TOL, axis=0))
        exc.step = step_of(failing[0] if len(failing) else 0)
        raise
    except SvdFlowError as exc:
        exc.step = step_of(0)
        raise

    if plan is None:
        block = state.amps[:, :dim]
        acceptance = np.sum(np.abs(block) ** 2, axis=-1)
        starved = np.flatnonzero(acceptance == 0.0)
        if len(starved):
            raise PostSelectionStarvedError("post-selected branch has zero weight",
                                            step_of(starved[0]))
        probs = np.abs(block[:, :n]) ** 2 / acceptance[:, None]
        return DilationResult(probs=probs, acceptance_rate=acceptance,
                              amplitudes=block[:, :n] / np.sqrt(acceptance)[:, None])
    counts = sample_probs(full_probs, plan, rng_for)
    accepted = counts[:, :dim].astype(float)
    n_acc = accepted.sum(axis=-1)
    starved = np.flatnonzero(n_acc == 0.0)
    if len(starved):
        raise PostSelectionStarvedError("no shots survived ancilla post-selection",
                                        step_of(starved[0]))
    return DilationResult(probs=accepted[:, :n] / n_acc[:, None],
                          acceptance_rate=n_acc / plan.n_shots, record=counts)


def dilation_circuit(v0: np.ndarray, f: SvdFactors, plan: ShotPlan | None = None,
                     rng: np.random.Generator | None = None) -> DilationResult:
    """The dilation circuit of one factor state: the stack of one of
    `dilation_stack`, drawing from `rng`, and the specification that stacked
    runs are tested against."""
    out = dilation_stack(v0, [f], plan, None if rng is None else lambda _: rng)
    return DilationResult(
        probs=out.probs[0], acceptance_rate=float(out.acceptance_rate[0]),
        amplitudes=None if out.amplitudes is None else out.amplitudes[0],
        record=None if out.record is None else out.record[0])


def qsvd_step(state: SvdFactors, history: Sequence[GeneratorSnapshot], a,
              h: float, plan: ShotPlan | None = None, master_seed: int = 0,
              step_index: int = 0, project: bool = False,
              tol_degen: float = DEFAULT_TOL_DEGEN, tol_sat: float = DEFAULT_TOL_SAT
              ) -> tuple[SvdFactors, GeneratorSnapshot]:
    """One step of the factor flow, exact without a plan, else measured.

    Returns the advanced state together with the generator snapshot taken at
    the pre-step factors (the caller rolls it into the extrapolation
    history). Without a plan U and V are updated as whole matrices, as
    `svdeom.step_factors` does, and `project` is ignored; with a plan every
    row and phase is measured under it, and `project` maps U and V onto the
    nearest orthogonal matrices. The new state stores the cosines of the new
    phases, so a phase that crossed 0 reads back in [0, pi] (`SvdFactors.phases`)
    and does not turn the next step's phase generator the wrong way.
    """
    n = state.dim
    try:
        snap = snapshot_from_arrays(state.u, state.tilde, a, state.t,
                                    tol_degen, tol_sat)
        z_mid, w_mid, l_mid, g11_mid = midpoint_generators(snap, history)
        cay_z = cayley(z_mid, h)
        cay_w = cayley(w_mid, h)
        if plan is None:
            u_new = state.u @ cay_z
            v_new = state.v @ cay_w
        else:
            u_new = propagate_row(
                state.u, cay_z.T, plan,
                lambda i: stream_rng(master_seed, n, step_index, 0, i))
            v_new = propagate_row(
                state.v, cay_w.T, plan,
                lambda i: stream_rng(master_seed, n, step_index, 1, i))
            if project:
                u_new = nearest_orthogonal(u_new)
                v_new = nearest_orthogonal(v_new)
        phases_new = evolve_sigma_phase(
            state.phases, l_mid, h, plan,
            rng_factory=lambda j, w: stream_rng(master_seed, n, step_index, 2, j, w))
        sigma1_new = state.sigma1 * float(np.exp(h * g11_mid))
    except SvdFlowError as exc:
        if exc.step is None:
            exc.step = step_index
        raise
    return (SvdFactors(u=u_new, v=v_new, tilde=np.cos(phases_new),
                       sigma1=sigma1_new, t=state.t + h), snap)
