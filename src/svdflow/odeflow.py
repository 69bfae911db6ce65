"""Time-dependent generators, RK2 step products and classical seeding.

The explicit midpoint rule is used throughout:

    k1 = A(t) v
    v(t+h) = v + h * A(t + h/2) @ (v + (h/2) k1)

which matches the midpoint-centered Cayley updates used by the factor flow.
The rule is linear in v, so one substep is the matrix I + D with

    D = h A(t + h/2) + (h^2/2) A(t + h/2) A(t).

`step_products` multiplies these matrices over consecutive intervals in
deviation form: two substeps compose as D12 = D1 + D2 + D2 D1, paired as a
tree (Blelloch, "Prefix sums and their applications", 1990), and a product
is applied as x + D x. Forming I + D explicitly would round the small
deviations against the identity and lose about two digits over 1e5
substeps. Seeding, the reference trajectory and the oracle propagators all
come from this one kernel; `propagator` keeps the substep-by-substep loop as
the reference the kernel is tested against.

A is evaluated on chunks of substeps. A chunk where A has the same bytes at
every substep start and midpoint forms its deviation once and composes the
copies in the tree's order and arithmetic, with at most two products per
level of the tree, so it keeps every byte. A rate model whose transient has
decayed below the rounding of its plateau takes this path: the demo's A(t)
is constant from t = 0.575, so 59 of its 61 set-up chunks do. The synthetic
generators vary on every chunk and take the tree.

Each segment's deviations are memoized on the `Generator` that evaluated
them, keyed by the segment. Seeding and the reference both start with the
`seed_segments` grid, so [0, t_seed] is integrated once per generator. The
memo is only sound because `matrix` is a pure function of t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, OverflowGuardError
from .matcore import svd
from .svdeom import TOL_DEGEN, SvdFactors, check_gaps

# Generator entries evaluated per chunk of substeps. Fixed, so memory stays
# flat however many substeps an interval holds.
CHUNK_ELEMENTS = 2**13


@dataclass(frozen=True)
class Generator:
    """Evaluable time-dependent coefficient matrix A(t).

    `matrix` is the one evaluator: a float t gives A(t), shape (dim, dim),
    and a 1-d array of T times gives them all, shape (T, dim, dim). The
    snapshots call it at one time, `step_products` on chunks of times.

    `step_products` memoizes each segment's deviations on the generator, so
    `matrix` must be a pure function of t. The memo takes no part in
    equality, hashing or repr, and a `dataclasses.replace` copy starts with
    an empty one.
    """

    dim: int
    matrix: Callable[[float | np.ndarray], np.ndarray]
    _segment_memo: dict = field(default_factory=dict, init=False, compare=False,
                                repr=False)

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        return self.matrix(t)


def propagator(a: Generator, t0: float, t1: float, nsteps: int,
               phi0: np.ndarray | None = None) -> np.ndarray:
    """Integrate Phi' = A(t) Phi by matrix RK2 from Phi(t0) = phi0 (default I).

    One substep at a time: the sequential reference for `step_products`. A
    is evaluated on chunks of substep starts and midpoints, as there.
    """
    if t1 < t0:
        raise InvalidInputError(f"need t1 >= t0, got [{t0}, {t1}]")
    phi = np.eye(a.dim) if phi0 is None else np.array(phi0, dtype=float)
    if t1 == t0:
        return phi
    if nsteps < 1:
        raise InvalidInputError("nsteps must be >= 1")
    h = (t1 - t0) / nsteps
    per_chunk = max(1, CHUNK_ELEMENTS // (a.dim * a.dim))
    for i0 in range(0, nsteps, per_chunk):
        ts = t0 + np.arange(i0, min(i0 + per_chunk, nsteps)) * h
        with np.errstate(over="ignore", invalid="ignore"):
            for i, t, start, mid in zip(range(i0, nsteps), ts, _evaluate(a, ts),
                                        _evaluate(a, ts + h / 2.0)):
                phi = phi + h * (mid @ (phi + (h / 2.0) * (start @ phi)))
                if not np.all(np.isfinite(phi)):
                    raise OverflowGuardError(f"non-finite propagator at t={t:g}",
                                             step=i)
    return phi


def _evaluate(a: Generator, ts: np.ndarray) -> np.ndarray:
    """A on a 1-d array of times, checked to be shaped (len(ts), dim, dim)."""
    out = a(ts)
    if np.shape(out) != (len(ts), a.dim, a.dim):
        raise InvalidInputError(
            f"A(t) on {len(ts)} times has shape {np.shape(out)}, not "
            f"{(len(ts), a.dim, a.dim)}: it must accept an array of times")
    return out


def _deviations(start: np.ndarray, mid: np.ndarray, h: float) -> np.ndarray:
    """D = h A(t + h/2) + (h^2/2) A(t + h/2) A(t), from A at substep starts
    and midpoints."""
    return h * mid + (h * h / 2.0) * (mid @ start)


def _repeated_sample(start: np.ndarray, mid: np.ndarray) -> np.ndarray | None:
    """A copy of start[0] if every sample in start and mid has its bytes,
    else None. Bytes, not values: 0.0 and -0.0 differ, and a NaN matches
    only its own bit pattern. The first sample is compared with the last
    one first, so a varying chunk is rejected at once."""
    first = start[0].tobytes()
    if mid[-1].tobytes() != first:
        return None
    if any(x.tobytes() != first * len(x) for x in (start, mid)):
        return None
    return start[0].copy()


def _compose_tree(d: np.ndarray) -> np.ndarray:
    """Compose d[:, 0], d[:, 1], ... (earliest first) pairwise along axis 1."""
    while d.shape[1] > 1:
        even = d.shape[1] // 2 * 2
        early, late = d[:, 0:even:2], d[:, 1:even:2]
        paired = early + late + late @ early
        d = paired if even == d.shape[1] else np.concatenate([paired, d[:, even:]],
                                                              axis=1)
    return d[:, 0]


def _compose_copies(d: np.ndarray, count: int) -> np.ndarray:
    """`_compose_tree` on `count` copies of d, in its order and arithmetic.
    Each level of that tree is m copies of one matrix x followed by at most
    one other matrix, the tail, so a level costs at most two products."""
    x, m, tail = d, count, None
    while m + (tail is not None) > 1:
        if m % 2:  # the last copy is left over, or pairs with the tail
            tail = x if tail is None else x + tail + tail @ x
        x, m = x + x + x @ x, m // 2
    return x if m else tail


def _chunk_product(a: Generator, ts: np.ndarray, h: float, intervals: int,
                   substeps: int) -> np.ndarray:
    """Composed deviations of a chunk of `intervals` intervals of `substeps`
    substeps each, starting at ts (row-major): shape (intervals, dim, dim).

    A is sampled on two grids: in some heap layouts the temporaries of one
    joint grid were refaulted on every chunk of a set-up. The samples are
    released before the tree runs. If A has the same bytes at every sample,
    the chunk's one deviation is composed as the tree would compose its
    copies, and all intervals share that product."""
    n = a.dim
    start, mid = _evaluate(a, ts), _evaluate(a, ts + h / 2.0)
    x = _repeated_sample(start, mid)
    if x is None:
        d = _deviations(start, mid, h).reshape(intervals, substeps, n, n)
        del start, mid
        return _compose_tree(d)
    del start, mid
    return np.broadcast_to(_compose_copies(_deviations(x, x, h), substeps),
                           (intervals, n, n))


def _segment_products(a: Generator, t0: float, t1: float, intervals: int,
                      substeps: int, first: int) -> np.ndarray:
    """Deviations of one segment's intervals; `first` is the index of its
    first interval in the caller's stack, for the overflow step."""
    if t1 <= t0:
        raise InvalidInputError(f"need t1 > t0, got [{t0}, {t1}]")
    if intervals < 1 or substeps < 1:
        raise InvalidInputError("intervals and substeps must be >= 1")
    n = a.dim
    per_chunk = max(1, CHUNK_ELEMENTS // (n * n))
    h = (t1 - t0) / (intervals * substeps)
    rows = max(1, per_chunk // substeps)   # intervals per chunk
    cols = min(substeps, per_chunk)        # substeps per interval per chunk
    out = []
    for k0 in range(0, intervals, rows):
        ks = np.arange(k0, min(k0 + rows, intervals))
        total = None
        for j0 in range(0, substeps, cols):
            js = np.arange(j0, min(j0 + cols, substeps))
            ts = t0 + (ks[:, None] * substeps + js).ravel() * h
            with np.errstate(over="ignore", invalid="ignore"):
                d = _chunk_product(a, ts, h, len(ks), len(js))
                total = d if total is None else total + d + d @ total
            bad = ~np.isfinite(total).all(axis=(1, 2))
            if bad.any():
                k = int(ks[np.argmax(bad)])
                lo = t0 + k * substeps * h
                raise OverflowGuardError(
                    f"non-finite step product on [{lo:g}, {lo + substeps * h:g}]",
                    step=first + k)
        out.append(total)
    return np.concatenate(out)


def step_products(a: Generator,
                  segments: Sequence[tuple[float, float, int, int]]) -> np.ndarray:
    """Deviations D_k of the RK2 step products over consecutive intervals.

    Each segment (t0, t1, intervals, substeps) splits [t0, t1] into
    `intervals` equal intervals of `substeps` midpoint substeps each. The
    result stacks every segment's intervals in order, shape (K, dim, dim),
    with Phi(end of interval k) = (I + D_k) Phi(start of interval k).

    A is evaluated as a(ts) on whole chunks of substep times; a result not
    shaped (len(ts), dim, dim) raises InvalidInputError. A chunk's product
    is checked for finiteness once: inf and nan persist through products,
    so this catches any overflow a per-substep check would. The first
    non-finite interval k raises OverflowGuardError with step=k.

    A segment's deviations are computed once per generator and memoized on
    it, read-only; the result is always a fresh array.
    """
    out = []
    for segment in map(tuple, segments):
        d = a._segment_memo.get(segment)
        if d is None:
            d = _segment_products(a, *segment, first=sum(map(len, out)))
            d.flags.writeable = False
            a._segment_memo[segment] = d
        out.append(d)
    return np.concatenate(out)


def apply_step_products(d: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """x_k = (I + D_k) x_{k-1} from x_{-1} = x0, stacked for k = 0..K-1.

    x0 is a state vector or a matrix. The first non-finite x_k raises
    OverflowGuardError with step=k.
    """
    out = np.empty((len(d),) + np.shape(x0))
    x = np.asarray(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, dk in enumerate(d):
            x = x + dk @ x
            out[k] = x
    bad = ~np.isfinite(out.reshape(len(d), -1)).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise OverflowGuardError(f"non-finite propagated state on interval {k}",
                                 step=k)
    return out


def seed_segments(t_seed: float, h: float, nsub: int) -> tuple:
    """The seeding grid: [0, t_seed] split at t_seed - 2h and t_seed - h,
    one interval per segment, with nsub substeps distributed in proportion
    to segment length. Seeding and the reference integrate these segments."""
    if t_seed - 2.0 * h <= 0:
        raise InvalidInputError(
            f"t_seed - 2h = {t_seed - 2 * h:g} must be positive")
    if nsub < 3:
        raise InvalidInputError("nsub must be >= 3")
    times = [0.0, t_seed - 2.0 * h, t_seed - h, t_seed]
    return tuple((lo, hi, 1, max(1, int(round(nsub * (hi - lo) / t_seed))))
                 for lo, hi in zip(times[:-1], times[1:]))


def seed_factors(a: Generator, t_seed: float, h: float, nsub: int = 500,
                 tol_degen: float = TOL_DEGEN  # perfbench's set-up passes it
                 ) -> tuple[SvdFactors, SvdFactors, SvdFactors]:
    """Classical seeding: SVD factors at t_seed - 2h, t_seed - h, t_seed.

    The propagator is integrated once from 0 over `seed_segments` and
    continued across the three seed times. An overflow carries the index of
    the seed (0, 1, 2) whose segment it reached.
    """
    segments = seed_segments(t_seed, h, nsub)
    phis = apply_step_products(step_products(a, segments), np.eye(a.dim))
    seeds = tuple(SvdFactors.from_svd(*svd(phi), t)
                  for phi, (_, t, _, _) in zip(phis, segments))
    for f in seeds:
        check_gaps(f.tilde, f.t, tol_degen)
    return seeds
