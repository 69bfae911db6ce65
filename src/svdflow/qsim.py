"""Statevector circuit emulator for the factor-flow updates.

Registers are little-endian: qubit 0 is the least significant bit of the
basis-state index. A state is a plain complex array (..., 2^q); `encode`
pads vectors to the next power of two and checks their norms. Every gate is
a full-register matrix applied as one product, and the qubits listed with
it name only those its depolarizing noise acts on. States and gates
(B, 2^q, 2^q) may be stacks that broadcast: the rows of U and V run as one
circuit, so do both interferometer families of the phases, and so do the
dilation circuits of several grid points. Each gate is checked for
unitarity once, where it is built (`checked_gate`); the constant gates are
checked inside their cached builders, which return them read-only.

`qsvd_step`, the one step of the factor flow, and its circuits take an
optional `ShotPlan`: the shots per circuit and the `NoiseSpec` (per-gate
depolarizing, symmetric readout flips). Without a plan the step is
`svdeom.step_factors`, and the dilation reads its amplitudes directly.

Gate noise is the exact depolarizing channel after each gate on its qubits.
The row and phase circuits list none, so their noise acts on the whole
register, rho -> (1 - p) rho + p I/d. That channel commutes with every
unitary, so after g gates the state is exactly f |psi><psi| + (1 - f) I/d,
with psi the noise-free statevector and f = (1 - p)^g (Vovrosh et al., PRE
104, 035309, 2021): `circuit_probs` runs psi and mixes the noise into
|psi|^2 in closed form. The dilation's gates act on the ancilla or the
system alone, so a noisy dilation evolves a density matrix through
`_depolarize`. A multinomial draw from either distribution is identical in
distribution to running every shot as its own noisy execution.

Determinism: the only randomness is the multinomial draw of each measured
circuit's shots. Step i of a measured run builds all its circuits
(`propagate_row`, `evolve_sigma_phase`), then draws its rows (rows 0..n-1 of
U, then of V), then its phases (j = 1..n-1, cos before sin), as one stack in
one call from one stream, `derive_rng(master_seed, i)`, and reads them
(`read_rows`, `read_phases`). Grid point k's dilation circuit draws from its
own stream, `derive_rng(master_seed, k, 3)`, so its counts do not depend on
the grid points stacked with it. Runs with identical configurations are
therefore bit-identical.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Sequence

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
    GeneratorSnapshot,
    SvdFactors,
    midpoint_generators,
    sigma_plus,
    snapshot_from_arrays,
    step_factors,
)

CONTRAST_FLOOR = 0.5  # least cos^2 + sin^2 a measured phase estimate accepts


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """PCG64 seeded by numpy's SeedSequence([master_seed, *path]). numpy pads
    entropy shorter than four words with zeros (derive_rng(s, i) is the
    stream of derive_rng(s, i, 0)) and splits a seed >= 2^32 into 32-bit
    words, so streams alias across master seeds: for s < 2^32, step i of seed
    s, derive_rng(s, i), is step 0 of seed s + i * 2^32, derive_rng(s + i *
    2**32, 0). The stream is kept, so that every recorded trajectory keeps
    its bytes."""
    return np.random.default_rng([int(master_seed), *map(int, path)])


def embed_unitary(u: np.ndarray, dim: int) -> np.ndarray:
    """Pad a unitary (or each of a stack) on the first n basis states with identity."""
    n = u.shape[-1]
    if n == dim:
        return u
    out = np.tile(np.eye(dim, dtype=complex), (*u.shape[:-2], 1, 1))
    out[..., :n, :n] = u
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


def _checked_state(amps: np.ndarray) -> np.ndarray:
    norm_sq = np.vecdot(amps, amps).real  # |norm - 1| <= 1e-12; NaN fails
    if not ((norm_sq >= (1 - 1e-12) ** 2) & (norm_sq <= (1 + 1e-12) ** 2)).all():
        raise InvalidInputError(f"state norm {np.sqrt(norm_sq)} deviates from 1")
    return amps


def encode(vecs: Sequence[complex]) -> np.ndarray:
    """Amplitudes (..., d) of one vector or a stack (..., n), zero padded to
    d, the least power of two >= max(n, 2); every member must have unit norm."""
    vecs = np.asarray(vecs, dtype=complex)
    n = vecs.shape[-1]
    amps = np.zeros((*vecs.shape[:-1], max(2, 1 << (n - 1).bit_length())), complex)
    amps[..., :n] = vecs
    return _checked_state(amps)


UNITARY_TOL = 1e-10  # Frobenius norm that u^dagger u - I of a gate may reach


def _unitarity_defect(u: np.ndarray) -> np.ndarray:
    """u^dagger u - I of a gate, or of each member of a stack."""
    return u.conj().mT @ u - np.eye(u.shape[-1])


def checked_gate(u: np.ndarray) -> np.ndarray:
    """A gate (or a stack) as a complex array, after its unitarity check: one
    norm over the stack bounds every member's."""
    u = np.asarray(u, dtype=complex)
    if not np.linalg.norm(_unitarity_defect(u)) <= UNITARY_TOL:  # NaN fails
        raise InvalidGateError("gate matrix is not unitary")
    return u


def _evolve(amps: np.ndarray, gates: Sequence[tuple]) -> np.ndarray:
    """The statevector after a gate list, its norm checked after each gate."""
    for u, _ in gates:
        amps = _checked_state(np.matvec(u, amps))
    return amps


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


def _depolarized(probs: np.ndarray, noise: NoiseSpec | None, n_gates) -> np.ndarray:
    """|psi|^2 (..., d) after n_gates noisy whole-register gates, as f |psi|^2
    + (1 - f)/d, f = (1 - p)^g: g is n_gates, or per entry of a tuple along
    the next-to-last axis of probs."""
    if noise is None or not noise.any_gate_noise:
        return probs
    dim = probs.shape[-1]
    p = noise.p1 if dim == 2 else noise.p2
    f = np.reshape([(1.0 - p) ** g for g in np.ravel(n_gates).tolist()],
                   (*np.shape(n_gates), 1))
    return f * probs + (1.0 - f) / dim


def circuit_probs(state: np.ndarray, gates: Sequence[tuple], noise: NoiseSpec | None
                  ) -> np.ndarray:
    """Measurement probabilities (..., 2^q) after a gate list [(u, qubits),
    ...] of full-register gates (or stacks) that were checked when built;
    qubits (None for all) names the qubits of u's depolarizing noise. Stack
    axes broadcast. A statevector run, with whole-register noise mixed in
    as f |psi|^2 + (1 - f)/d, unless a noisy gate lists qubits: then a
    density matrix goes through `_depolarize` after each gate."""
    dim = state.shape[-1]
    n = dim.bit_length() - 1
    for u, _ in gates:
        if np.shape(u)[-2:] != (dim, dim):
            raise InvalidInputError(
                f"gate shape {np.shape(u)} does not match a {n}-qubit register")
    if (noise is None or not noise.any_gate_noise
            or all(qubits is None for _, qubits in gates)):
        return _depolarized(np.abs(_evolve(state, gates)) ** 2, noise, len(gates))
    rho = state[..., :, None] * state[..., None, :].conj()
    for u, qubits in gates:
        qubits = range(n) if qubits is None else qubits
        rho = u @ rho @ u.conj().mT
        p = noise.p1 if len(qubits) == 1 else noise.p2
        if p > 0.0:
            rho = _depolarize(rho, qubits, n, p)
    return np.clip(np.real(np.diagonal(rho, axis1=-2, axis2=-1)), 0.0, None)


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
                 rng: np.random.Generator) -> np.ndarray:
    """Counts (..., 2^n) of plan.n_shots draws from each full-register
    probability vector of a stack (..., 2^n), with the plan's readout flips
    mixed in.

    The whole stack is normalized and mixed in one pass and drawn from `rng`
    in one call, member by member in flattened order: the counts are those
    of drawing each member alone, in that order, from the same generator.
    A measured step draws its rows, then its phases so, as one (4n - 2, d) stack.
    """
    probs = probs / probs.sum(axis=-1, keepdims=True)
    if plan.noise.p_ro > 0.0:
        n_qubits = probs.shape[-1].bit_length() - 1
        probs = np.matvec(readout_confusion(n_qubits, plan.noise.p_ro), probs)
        probs = probs / probs.sum(axis=-1, keepdims=True)
    return rng.multinomial(plan.n_shots, probs)


def default_sign_floor(n_shots: int) -> float:
    return 10.0 / np.sqrt(n_shots)


def propagate_row(rows: np.ndarray, cay_zt: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Probabilities (..., m, d) of the rows (..., m, n) of orthogonal factors
    (one, or a stack) advanced under their transposed Cayley maps (..., n,
    n): all rows run as one circuit; `read_rows` rebuilds them."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[-1]
    if cay_zt.shape != (*rows.shape[:-2], n, n):
        raise InvalidInputError("row/matrix dimension mismatch")
    states = encode(rows)
    gate = embed_unitary(checked_gate(cay_zt[..., None, :, :]), states.shape[-1])
    return circuit_probs(states, [(gate, None)], noise)


def read_rows(rows: np.ndarray, cay_zt: np.ndarray, counts: np.ndarray,
              n_shots: int) -> np.ndarray:
    """The rows of `propagate_row` rebuilt from its counts (..., m, d) as
    sign * sqrt(p_hat). Each entry keeps its own sign unless its measured
    magnitude falls below the sign floor; it then takes the sign of the
    noise-free classical prediction."""
    rows = np.asarray(rows, dtype=float)
    p = counts[..., :rows.shape[-1]].astype(float)
    total = p.sum(axis=-1, keepdims=True)
    if (total == 0.0).any():
        raise RowReconstructionError("all sampled row magnitudes are zero")
    mags = np.sqrt(p / total)
    predicted = np.matvec(cay_zt[..., None, :, :], rows)
    signed = np.where(mags >= default_sign_floor(n_shots), rows, predicted)
    return np.where(signed < 0.0, -1.0, 1.0) * mags  # a zero reads as +


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
    sdg, mix = checked_gate(sdg), checked_gate(mix)
    sdg.flags.writeable = mix.flags.writeable = False
    return sdg, mix


def evolve_sigma_phase(phases: np.ndarray, lplus_mid: np.ndarray, h: float,
                       noise: NoiseSpec) -> np.ndarray:
    """Probabilities (n-1, 2, d) of the phase interferometers of a Cayley
    step of -i L, j by j, cos before sin; `read_phases` reads them.

    The state (1/sqrt(N)) sum_j e^{i phi_j} |j> is evolved once under the
    diagonal Cayley unitary to psi. Each relative phase is measured from two
    interferometers on {|0>, |j>}: a Hadamard-type mixing of psi yields
    cos(phi_j), of S^dagger psi sin(phi_j); one product mixes both.
    """
    phases = np.asarray(phases, dtype=float)
    if (np.abs(phases) >= np.pi).any():
        raise InvalidInputError("phases must lie inside (-pi, pi)")
    n = len(phases)
    factors = cayley_diag(lplus_mid, h)
    base = encode(np.exp(1j * phases) / np.sqrt(n))
    evo = checked_gate(embed_unitary(np.diag(factors), base.shape[-1]))
    sdg, mix = _interferometer_gates(n, base.shape[-1])
    psi = _checked_state(np.matvec(evo, base))
    states = np.empty((n - 1, 2, base.shape[-1]), complex)  # cos, then sin family
    states[:, 0], states[:, 1] = psi, _checked_state(np.matvec(sdg, psi))
    amps = _checked_state(np.matvec(mix[:, None], states))
    return _depolarized(np.abs(amps) ** 2, noise, (2, 3))


def read_phases(counts: np.ndarray) -> np.ndarray:
    """The phases of `evolve_sigma_phase` from its counts (n-1, 2, d): phi_j =
    atan2(sin, cos), checked j by j; phase 0, the reference, stays 0."""
    p = counts / counts.sum(axis=-1, keepdims=True)
    k = np.arange(len(p))
    p0, pj = p[..., 0], p[k, :, k + 1]  # (n-1, 2): phase j = k + 1, cos and sin
    denom = p0 + pj
    c, s = np.divide(p0 - pj, denom, out=np.zeros_like(denom), where=denom > 0.0).T
    contrast = c * c + s * s  # 0 where starved, which is checked first
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
    return np.concatenate([[0.0], np.arctan2(s, c)])


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
    had = checked_gate(np.kron(np.array([[1, 1], [1, -1]], dtype=complex)
                               / np.sqrt(2.0), np.eye(dim)))
    had.flags.writeable = False
    return had


def _block_diagonal(mats: np.ndarray, dim: int) -> np.ndarray:
    """I_2 (x) embed_unitary(m, dim) for each matrix m of a stack (K, n, n):
    the same gate on the system whatever the ancilla."""
    out = np.zeros((len(mats), 2 * dim, 2 * dim), dtype=complex)
    out[:, :dim, :dim] = out[:, dim:, dim:] = embed_unitary(mats, dim)
    return out


def dilation_stack(v0: np.ndarray, f: SvdFactors, plan: ShotPlan | None = None,
                   rngs: Sequence[np.random.Generator] | None = None,
                   steps: Sequence[int] | None = None) -> DilationResult:
    """One-ancilla dilation circuits applying the nonunitary propagators of a
    stack of factor states f (each field with a leading member axis, as
    `_tabulate` builds it) to v0, run as one circuit on stacks of gates.

    Circuit: H(ancilla) -> V^T (system) -> block-diagonal Sp (+) conj(Sp)
    selected by the ancilla -> U (system) -> H(ancilla) -> measure.
    Conditioned on ancilla 0 the system state is Phi v0 / sigma1 up to
    normalization; the acceptance rate ||Phi v0||^2 / sigma1^2 recovers the
    norm. The ancilla-0 weights are |amp|^2 without a plan, else the counts
    of shots under it, member i drawing from its own generator rngs[i]; one
    post-selection reads both. The result carries the stack axis (K, ...).

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
    if plan is not None and rngs is None:
        raise InvalidInputError("a ShotPlan needs an rng", step_of(0))
    if plan is not None and len(rngs) != len(f.tilde):
        raise InvalidInputError("a ShotPlan needs one rng per member", step_of(0))
    n = len(v0)
    dim = encode(v0).shape[-1]
    n_sys = anc = dim.bit_length() - 1  # the ancilla is the most significant qubit
    state = encode(np.concatenate([v0, np.zeros(dim)]))  # v0 (x) ancilla |0>
    had = _ancilla_hadamard(dim)
    sys_qubits = list(range(n_sys))

    sp = np.ones((len(f.tilde), dim), dtype=complex)
    sp[:, :n] = sigma_plus(f.tilde)
    u_sigma = np.zeros((len(sp), 2 * dim, 2 * dim), dtype=complex)
    diag = np.arange(2 * dim)
    u_sigma[:, diag, diag] = np.concatenate([sp, np.conj(sp)], axis=-1)
    own = [_block_diagonal(f.v.mT, dim), u_sigma, _block_diagonal(f.u, dim)]

    try:
        gates = [(had, [anc]), (checked_gate(own[0]), sys_qubits),
                 (checked_gate(own[1]), list(range(n_sys + 1))),
                 (checked_gate(own[2]), sys_qubits), (had, [anc])]
        if plan is None:
            block = _evolve(state, gates)[:, :dim]
            weights = np.abs(block) ** 2
        else:
            counts = np.array([sample_probs(p, plan, rng) for p, rng in zip(
                circuit_probs(state, gates, plan.noise), rngs)])
            weights = counts[:, :dim].astype(float)
    except InvalidGateError as exc:
        defect = [np.linalg.norm(_unitarity_defect(g), axis=(-2, -1)) for g in own]
        failing = np.flatnonzero(~np.all(np.array(defect) <= UNITARY_TOL, axis=0))
        exc.step = step_of(failing[0] if len(failing) else 0)
        raise
    except SvdFlowError as exc:
        exc.step = step_of(0)
        raise

    weight = np.sum(weights, axis=-1)
    starved = np.flatnonzero(weight == 0.0)
    if len(starved):
        raise PostSelectionStarvedError(
            "post-selected branch has zero weight" if plan is None
            else "no shots survived ancilla post-selection", step_of(starved[0]))
    probs = weights[:, :n] / weight[:, None]
    if plan is None:
        return DilationResult(probs, weight, block[:, :n] / np.sqrt(weight)[:, None])
    return DilationResult(probs, weight / plan.n_shots, record=counts)


def dilation_circuit(v0: np.ndarray, f: SvdFactors, plan: ShotPlan | None = None,
                     rng: np.random.Generator | None = None) -> DilationResult:
    """The dilation circuit of one factor state: the stack of one of
    `dilation_stack`, drawing from `rng`, and the specification that stacked
    runs are tested against."""
    one = SvdFactors(*(np.asarray(x)[None] for x in (f.u, f.v, f.tilde, f.sigma1, f.t)))
    out = dilation_stack(v0, one, plan, None if rng is None else [rng])
    return DilationResult(
        probs=out.probs[0], acceptance_rate=float(out.acceptance_rate[0]),
        amplitudes=None if out.amplitudes is None else out.amplitudes[0],
        record=None if out.record is None else out.record[0])


def qsvd_step(state: SvdFactors, history: Sequence[GeneratorSnapshot], a,
              h: float, plan: ShotPlan | None = None, master_seed: int = 0,
              step_index: int = 0, project: bool = False) -> tuple[SvdFactors, tuple]:
    """One step of the factor flow: `svdeom.step_factors` without a plan,
    else measured. Returns the new state and the next history, (history[1],
    the snapshot at the pre-step factors); an error carries step_index.

    Without a plan `project` is ignored. With one, every row and phase is
    measured under it, all drawn in one call from one stream,
    derive_rng(master_seed, step_index), and `project` maps U and V onto the
    nearest orthogonal matrices. The new state stores the cosines of the new
    phases, so a phase that crossed 0 reads back in [0, pi]
    (`SvdFactors.phases`) and does not turn the next step's phase generator
    the wrong way.
    """
    try:
        if plan is None:
            return step_factors(state, history, a, h)
        snap = snapshot_from_arrays(state.u, state.tilde, a, state.t)
        zw_mid, l_mid, g11_mid = midpoint_generators(snap, history)
        cay_t = cayley(zw_mid, h).mT  # the transposed maps of U and V
        rows, n = np.stack([state.u, state.v]), state.dim
        probs = np.concatenate([  # the (2, n, d) rows, then the (n-1, 2, d) phases
            propagate_row(rows, cay_t, plan.noise).ravel(),
            evolve_sigma_phase(state.phases, l_mid, h, plan.noise).ravel()])
        counts = sample_probs(probs.reshape(4 * n - 2, -1), plan,
                              derive_rng(master_seed, step_index))
        new_rows = read_rows(rows, cay_t, counts[:2 * n].reshape(2, n, -1), plan.n_shots)
        u_new, v_new = nearest_orthogonal(new_rows) if project else new_rows
        phases_new = read_phases(counts[2 * n:].reshape(n - 1, 2, -1))
        sigma1_new = state.sigma1 * float(np.exp(h * g11_mid))
    except SvdFlowError as exc:
        if exc.step is None:
            exc.step = step_index
        raise
    return (SvdFactors(u=u_new, v=v_new, tilde=np.cos(phases_new),
                       sigma1=sigma1_new, t=state.t + h), (history[1], snap))
