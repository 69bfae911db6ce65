"""Flow equations for the SVD factors of a propagator.

The propagator Phi(t) of v' = A(t) v is factored as U diag(sigma) V^T. The
factors evolve under generators built from G = U^T A U:

    Z_jk = (tz_k^2 G_jk + tz_j^2 G_kj) / (tz_k^2 - tz_j^2)   (off-diagonal)
    W_jk = tz_k tz_j (G_kj + G_jk) / (tz_k^2 - tz_j^2)       (off-diagonal)
    L_jj = tz_j (G_jj - G_11) / sqrt(1 - tz_j^2)             (j >= 2, L_11 = 0)

with tz = sigma / sigma_1 the rescaled singular values. Z and W are real
skew-symmetric, so U and V stay orthogonal under Cayley updates; the unit
complex numbers sp_j = tz_j + i sqrt(1 - tz_j^2) evolve by per-entry Cayley
factors of -i L, and sigma_1 obeys the scalar ODE sigma_1' = G_11 sigma_1.

`SvdFactors` is the one factor state: seeding returns it, `step_factors`
here (the noise-free oracle) and `qsim.qsvd_step` (the step loop in every
mode) take and return it, and the run tabulates it. It stores tz, not the
phases arg(sp_j) = arccos(tz_j) that the device evolves: seeds, snapshots,
the propagator rebuild and the dilation read tz, and cos(arccos(tz)) can
differ from tz in the last bit. Both paths consume the same generator
snapshots, built by `snapshot_from_arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    DegenerateSingularValuesError,
    InconsistencyError,
    InvalidInputError,
    SigmaSaturationError,
)
from .matcore import cayley, cayley_diag, skew_part

if TYPE_CHECKING:  # pragma: no cover
    from .odeflow import Generator

DEFAULT_TOL_DEGEN = 1e-8
DEFAULT_TOL_SAT = 1e-6
IMAG_TOL = 1e-12   # relative imaginary residue reconstruct_phi accepts

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
        return self.u.shape[0]


@dataclass(frozen=True)
class GeneratorSnapshot:
    """Derived matrices at one time: inputs to every factor update."""

    g: np.ndarray
    z: np.ndarray
    w: np.ndarray
    lplus: np.ndarray
    t: float


def sigma_plus(tilde: np.ndarray) -> np.ndarray:
    """Unit-modulus diagonal entries tz + i sqrt(1 - tz^2); entry 0 is 1+0j."""
    tilde = np.asarray(tilde, dtype=float)
    return tilde + 1j * np.sqrt(np.clip(1.0 - tilde**2, 0.0, None))


def snapshot_from_arrays(u, tilde, a, t, tol_degen=DEFAULT_TOL_DEGEN,
                         tol_sat=DEFAULT_TOL_SAT) -> GeneratorSnapshot:
    """Build the generator snapshot from raw factor arrays.

    Accepts tilde values outside (0, 1] (the emulated-measurement path can
    produce them under noise); only degeneracy and saturation are guarded.
    """
    u = np.asarray(u, dtype=float)
    tilde = np.asarray(tilde, dtype=float)
    n = len(tilde)
    gaps = np.abs(tilde[:, None] - tilde[None, :])[np.triu_indices(n, k=1)]
    if gaps.size and gaps.min() < tol_degen:
        raise DegenerateSingularValuesError(
            f"singular-value gap {gaps.min():.3e} below tolerance {tol_degen:.3e} "
            f"at t={t:g}"
        )
    if np.any(np.abs(tilde[1:]) > 1.0 - tol_sat):
        raise SigmaSaturationError(
            f"rescaled singular value within {tol_sat:.1e} of 1 at t={t:g}; "
            "the phase generator is ill-conditioned"
        )
    g = u.T @ a(t) @ u
    t2 = tilde**2
    den = t2[None, :] - t2[:, None]
    np.fill_diagonal(den, 1.0)
    z = (t2[None, :] * g + t2[:, None] * g.T) / den
    w = (np.outer(tilde, tilde) * (g.T + g)) / den
    np.fill_diagonal(z, 0.0)
    np.fill_diagonal(w, 0.0)
    # rounding can leave a tiny symmetric residue; remove it at the source
    z = skew_part(z)
    w = skew_part(w)
    lplus = tilde * (np.diag(g) - g[0, 0]) / np.sqrt(np.clip(1.0 - t2, 1e-300, None))
    lplus[0] = 0.0
    return GeneratorSnapshot(g=g, z=z, w=w, lplus=lplus, t=float(t))


def mpea(s_i, s_im1, s_im2):
    """Midpoint extrapolation from three consecutive uniform-step samples."""
    s_i = np.asarray(s_i)
    s_im1 = np.asarray(s_im1)
    s_im2 = np.asarray(s_im2)
    if s_i.shape != s_im1.shape or s_i.shape != s_im2.shape:
        raise InvalidInputError(
            f"shape mismatch in extrapolation history: "
            f"{s_i.shape}, {s_im1.shape}, {s_im2.shape}"
        )
    c0, c1, c2 = MPEA_WEIGHTS
    return c0 * s_i + c1 * s_im1 + c2 * s_im2


def midpoint_generators(snap_i: GeneratorSnapshot,
                        history: Sequence[GeneratorSnapshot]):
    """Extrapolated (z, w, lplus, g11) at t + h/2.

    history is ordered oldest first: (snapshot at t-2h, snapshot at t-h).
    """
    old, prev = history
    z_mid = mpea(snap_i.z, prev.z, old.z)
    w_mid = mpea(snap_i.w, prev.w, old.w)
    l_mid = mpea(snap_i.lplus, prev.lplus, old.lplus)
    g11_mid = float(mpea(snap_i.g[0, 0], prev.g[0, 0], old.g[0, 0]))
    return z_mid, w_mid, l_mid, g11_mid


def step_factors(f: SvdFactors, history: Sequence[GeneratorSnapshot],
                 a: "Generator", h: float, snapshot: GeneratorSnapshot | None = None,
                 tol_degen=DEFAULT_TOL_DEGEN, tol_sat=DEFAULT_TOL_SAT) -> SvdFactors:
    """Advance all SVD factors by one step of size h (noise-free path).

    All four updates use the same extrapolated midpoint generators computed
    from the pre-step factors; pass `snapshot` to reuse one already computed
    at f.t (callers keep it for the rolling history).
    """
    snap = snapshot if snapshot is not None else snapshot_from_arrays(
        f.u, f.tilde, a, f.t, tol_degen, tol_sat)
    z_mid, w_mid, l_mid, g11_mid = midpoint_generators(snap, history)
    u_new = f.u @ cayley(z_mid, h)
    v_new = f.v @ cayley(w_mid, h)
    sp_new = sigma_plus(f.tilde) * cayley_diag(l_mid, h)
    tilde_new = np.real(sp_new)
    tilde_new[0] = 1.0
    sigma1_new = f.sigma1 * float(np.exp(h * g11_mid))
    return SvdFactors(u=u_new, v=v_new, tilde=tilde_new, sigma1=sigma1_new,
                      t=f.t + h)


def reconstruct_phi(f: SvdFactors) -> np.ndarray:
    """Rebuild the propagator (sigma1/2) U (Sp + conj(Sp)) V^T as a real matrix.

    The conjugate pair sums to 2 diag(tilde), so the imaginary residue is a
    pure consistency check.
    """
    sp = sigma_plus(f.tilde)
    phi = (f.sigma1 / 2.0) * (f.u @ np.diag(sp + np.conj(sp)) @ f.v.T)
    resid = np.abs(phi.imag).max()
    scale = max(1.0, np.abs(phi.real).max())
    if resid > IMAG_TOL * scale:
        raise InconsistencyError(
            f"imaginary residue {resid:.3e} above tolerance in propagator rebuild"
        )
    return phi.real
