"""Dense matrix helpers: SVD with a fixed sign convention, Cayley transform,
skew-symmetrization and nearest-orthogonal projection.

All functions are pure and operate on plain numpy arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidInputError,
    ProjectionUndefinedError,
    StepFailureError,
)

RANK_TOL = 1e-12  # relative smallest singular value nearest_orthogonal accepts


class SvdTriple(NamedTuple):
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def _require_square_finite(m, name="matrix"):
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


def svd(m: np.ndarray) -> SvdTriple:
    """SVD m = u @ diag(s) @ v.T with s descending and deterministic column signs.

    Each column of u is flipped so its largest-magnitude entry is positive;
    the flip is propagated to the matching column of v. This removes the
    column-sign ambiguity so repeated calls are bitwise reproducible.
    """
    m = _require_square_finite(m)
    u, s, vt = np.linalg.svd(m)
    v = vt.T.copy()
    u = u.copy()
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return SvdTriple(u, s, v)


def cayley(s: np.ndarray, h: float) -> np.ndarray:
    """(I - h/2 s)^{-1} (I + h/2 s).

    Orthogonal for real skew-symmetric s, unitary for skew-Hermitian s.
    """
    s = _require_square_finite(s, "generator")
    n = s.shape[0]
    eye = np.eye(n, dtype=s.dtype)
    hs = (h / 2.0) * s
    try:
        out = np.linalg.solve(eye - hs, eye + hs)
    except np.linalg.LinAlgError as exc:
        raise StepFailureError(f"singular Cayley resolvent: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise StepFailureError("Cayley transform produced non-finite entries")
    return out


def cayley_diag(lam: np.ndarray, h: float) -> np.ndarray:
    """Per-entry Cayley factors for the diagonal generator s = -i*diag(lam).

    Entry j equals (1 - i*h*lam_j/2) / (1 + i*h*lam_j/2): unit modulus for
    real lam, and exactly 1 where lam_j == 0.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise InvalidInputError("diagonal generator contains non-finite entries")
    half = 0.5j * h * lam
    return (1.0 - half) / (1.0 + half)


def skew_part(m: np.ndarray) -> np.ndarray:
    """(m - m.T) / 2 over the last two axes; exactly skew-symmetric by
    construction. A stack of matrices is handled matrix by matrix."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"matrix must be square, got shape {m.shape}")
    return (m - np.swapaxes(m, -1, -2)) / 2.0


def nearest_orthogonal(m: np.ndarray) -> np.ndarray:
    """Project a full-rank square matrix onto the nearest orthogonal matrix.

    Uses the polar factor u @ vt from the SVD m = u diag(s) vt. Flipping a
    column of u and the matching row of vt leaves u @ vt as it is, so the
    sign convention of `svd` is not needed. Rank deficiency makes the
    projection non-unique and raises ProjectionUndefinedError.
    """
    m = _require_square_finite(m)
    u, s, vt = np.linalg.svd(m)
    if s[0] == 0.0 or s[-1] < RANK_TOL * s[0]:
        raise ProjectionUndefinedError(
            f"matrix is rank-deficient (singular values {s}); projection undefined"
        )
    return u @ vt
