"""Flow equations for the SVD factors of a propagator.

The propagator Phi(t) of v' = A(t) v is factored as U diag(sigma) V^T. The
factors evolve under generators built from G = U^T A U:

    Z_jk = (tz_k^2 G_jk + tz_j^2 G_kj) / (tz_k^2 - tz_j^2)   (off-diagonal)
    W_jk = tz_k tz_j (G_kj + G_jk) / (tz_k^2 - tz_j^2)       (off-diagonal)
    L_jj = tz_j (G_jj - G_11) / sqrt(1 - tz_j^2)             (j >= 2, L_11 = 0)

with tz = sigma / sigma_1 the rescaled singular values. Z and W are real
skew-symmetric bit for bit as computed: entry (k, j) adds the same two
products as (j, k), in the other order, over the exactly negated
denominator. So U and V stay orthogonal under Cayley updates; the unit
complex numbers sp_j = tz_j + i sqrt(1 - tz_j^2) evolve by per-entry Cayley
factors of -i L, and sigma_1 obeys the scalar ODE sigma_1' = G_11 sigma_1.
The divisions by gaps and by sqrt(1 - tz^2) are guarded by the module
constants TOL_DEGEN and TOL_SAT; no run setting changes them.

`SvdFactors` is the one factor state: seeding returns it, the steps take
and return it (`step_factors` here, the one exact step, and
`qsim.qsvd_step`, which runs it without a plan and measures otherwise), and
the run tabulates it. It stores tz, not the phases arg(sp_j) = arccos(tz_j)
that the device evolves: seeds, snapshots, the propagator rebuild and the
dilation read tz, and cos(arccos(tz)) can differ from tz in the last bit.
Each step takes its extrapolation history, the snapshots of the two
previous grid points (`start_history` builds the first), and returns the
next one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    DegenerateSingularValuesError,
    InvalidInputError,
    SigmaSaturationError,
)
from .matcore import cayley, cayley_diag

if TYPE_CHECKING:  # pragma: no cover
    from .odeflow import Generator

TOL_DEGEN = 1e-8  # least gap |tz_i - tz_j| that Z and W may divide by
TOL_SAT = 1e-6  # least 1 - |tz_j|, j >= 2, that L's sqrt(1 - tz_j^2) may reach

# Three-point extrapolation to the step midpoint t + h/2 from samples at
# t, t-h, t-2h; exact for sequences affine in t.
MPEA_WEIGHTS = (23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0)


@dataclass(frozen=True)
class SvdFactors:
    """The factor state of the flow at one time, the one state every step
    takes and returns.

    tilde stores sigma / sigma_1 with tilde[0] == 1 exactly; sigma and the
    device phases are derived from it. The phases arccos(tilde) lie in
    [0, pi], the range of arg(tz + i sqrt(1 - tz^2)), so a measured phase
    stored as its cosine needs no separate fold.
    """

    u: np.ndarray
    v: np.ndarray
    tilde: np.ndarray
    sigma1: float
    t: float

    @classmethod
    def from_svd(cls, u, s, v, t):
        s = np.asarray(s, dtype=float)
        tilde = s / s[0]
        tilde[0] = 1.0
        return cls(u=np.asarray(u, dtype=float), v=np.asarray(v, dtype=float),
                   tilde=tilde, sigma1=float(s[0]), t=float(t))

    @property
    def sigma(self) -> np.ndarray:
        return self.tilde * self.sigma1

    @property
    def phases(self) -> np.ndarray:
        return np.arccos(np.clip(self.tilde, -1.0, 1.0))

    @property
    def dim(self):
        return self.u.shape[-1]


@dataclass(frozen=True)
class GeneratorSnapshot:
    """Derived matrices at one time: inputs to every factor update. `packed`
    holds Z, W, L+ and G_11 flat, so that one `mpea` call extrapolates all."""

    g: np.ndarray
    z: np.ndarray
    w: np.ndarray
    lplus: np.ndarray
    packed: np.ndarray
    t: float


def sigma_plus(tilde: np.ndarray) -> np.ndarray:
    """Unit-modulus diagonal entries tz + i sqrt(1 - tz^2); entry 0 is 1+0j."""
    tilde = np.asarray(tilde, dtype=float)
    return tilde + 1j * np.sqrt(np.clip(1.0 - tilde**2, 0.0, None))


@functools.lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k=1), built once per n and returned read-only."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def check_gaps(tilde, t, tol_degen=TOL_DEGEN) -> None:
    """The degeneracy guard of seeding and of every snapshot: raise
    DegenerateSingularValuesError if some |tz_i - tz_j| < tol_degen."""
    gaps = np.abs(tilde[:, None] - tilde[None, :])[_upper_pairs(len(tilde))]
    if gaps.size and gaps.min() < tol_degen:
        raise DegenerateSingularValuesError(
            f"singular-value gap {gaps.min():.3e} below tolerance {tol_degen:.3e} "
            f"at t={t:g}")


def snapshot_from_arrays(u, tilde, a, t) -> GeneratorSnapshot:
    """Build the generator snapshot from raw factor arrays.

    Accepts tilde values outside (0, 1] (the emulated-measurement path can
    produce them under noise); only degeneracy and saturation are guarded,
    degeneracy also as tz_j = -tz_k, where the generators divide by zero.
    """
    u = np.asarray(u, dtype=float)
    tilde = np.asarray(tilde, dtype=float)
    check_gaps(tilde, t)
    if (np.abs(tilde[1:]) > 1.0 - TOL_SAT).any():
        raise SigmaSaturationError(
            f"rescaled singular value within {TOL_SAT:.1e} of 1 at t={t:g}; "
            "the phase generator is ill-conditioned"
        )
    t2 = tilde**2
    den = t2[None, :] - t2[:, None]
    if not den[_upper_pairs(len(tilde))].all():
        raise DegenerateSingularValuesError(
            f"rescaled singular values of equal modulus at t={t:g}")
    g = u.T @ a(t) @ u
    np.fill_diagonal(den, 1.0)
    zw = np.stack([t2[None, :] * g + t2[:, None] * g.T,
                   np.outer(tilde, tilde) * (g.T + g)]) / den
    diag = np.arange(len(tilde))
    zw[:, diag, diag] = 0.0
    lplus = tilde * (np.diag(g) - g[0, 0]) / np.sqrt(np.clip(1.0 - t2, 1e-300, None))
    lplus[0] = 0.0
    return GeneratorSnapshot(g=g, z=zw[0], w=zw[1], lplus=lplus, t=float(t),
                             packed=np.concatenate([zw.ravel(), lplus, g[:1, 0]]))


def mpea(s_i, s_im1, s_im2):
    """Midpoint extrapolation from three consecutive uniform-step samples."""
    s_i, s_im1, s_im2 = np.asarray(s_i), np.asarray(s_im1), np.asarray(s_im2)
    if s_i.shape != s_im1.shape or s_i.shape != s_im2.shape:
        raise InvalidInputError(f"shape mismatch in extrapolation history: "
                                f"{s_i.shape}, {s_im1.shape}, {s_im2.shape}")
    c0, c1, c2 = MPEA_WEIGHTS
    return c0 * s_i + c1 * s_im1 + c2 * s_im2


def midpoint_generators(snap_i: GeneratorSnapshot,
                        history: Sequence[GeneratorSnapshot]):
    """Extrapolated (zw, lplus, g11) at t + h/2, zw the (2, n, n) stack of Z
    and W, from one `mpea` call over the packed snapshots.

    history is ordered oldest first: (snapshot at t-2h, snapshot at t-h).
    """
    old, prev = history
    n2 = 2 * len(snap_i.g) ** 2
    mid = mpea(snap_i.packed, prev.packed, old.packed)
    return mid[:n2].reshape(2, *snap_i.g.shape), mid[n2:-1], float(mid[-1])


def start_history(seeds: Sequence[SvdFactors], a: "Generator") -> tuple:
    """The history of the first step: the snapshots at seeds[0] and seeds[1]
    (t_seed - 2h and t_seed - h), oldest first."""
    return tuple(snapshot_from_arrays(f.u, f.tilde, a, f.t) for f in seeds[:2])


def step_factors(f: SvdFactors, history: Sequence[GeneratorSnapshot],
                 a: "Generator", h: float) -> tuple[SvdFactors, tuple]:
    """The exact step of size h: the new factors and the next history,
    (history[1], the snapshot at f.t).

    All updates use the midpoint generators extrapolated from the snapshot
    at f.t and `history`. U and V take whole-matrix Cayley steps; each phase
    arccos(tz_j) turns by the argument of its Cayley factor, wrapped into
    (-pi, pi], and the new tz is its cosine, as a measured step stores it.
    """
    snap = snapshot_from_arrays(f.u, f.tilde, a, f.t)
    zw_mid, l_mid, g11_mid = midpoint_generators(snap, history)
    cay_z, cay_w = cayley(zw_mid, h)
    u_new, v_new = f.u @ cay_z, f.v @ cay_w
    phases = np.angle(np.exp(1j * (f.phases + np.angle(cayley_diag(l_mid, h)))))
    phases[0] = 0.0
    sigma1_new = f.sigma1 * float(np.exp(h * g11_mid))
    return (SvdFactors(u=u_new, v=v_new, tilde=np.cos(phases), sigma1=sigma1_new,
                       t=f.t + h), (history[1], snap))


def reconstruct_phi(f: SvdFactors) -> np.ndarray:
    """Rebuild the propagator (sigma1/2) U (Sp + conj(Sp)) V^T, or one per grid
    point when the fields carry a leading block axis. The conjugate pair sums
    to 2 diag(tilde), so the rebuild runs in real arithmetic."""
    return (np.asarray(f.sigma1)[..., None, None] / 2.0) * (
        (f.u * (2.0 * f.tilde)[..., None, :]) @ f.v.mT)
