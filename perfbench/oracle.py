"""The benchmark's own propagator oracle and error metrics.

Phi' = A(t) Phi is integrated with the classical fourth-order Runge-Kutta
rule. It is written here on purpose instead of calling svdflow's
`propagator` or `oracle_propagators`: those are part of the program under
measurement and are due to be rewritten, and an oracle must not change with
what it judges. Only A(t) itself, the problem definition, comes from svdflow.
"""

from __future__ import annotations

import numpy as np

# Halving the oracle's step may move Phi by at most this much (relative
# Frobenius norm). RK4 error falls 16-fold per halving, so the fine result
# is then good to under 1e-7, far below every error the benchmark reports
# and the 1e-5 self-check. Measured drift: 1.5e-7 on demo_sampled, 8e-10
# on synthetic_sampled.
CONVERGENCE_TOL = 1e-6


def _rk4_step_matrices(a, t0: float, t1: float, m: int) -> np.ndarray:
    """Matrices S_i with Phi(t0 + (i+1)h) = S_i Phi(t0 + ih), h = (t1-t0)/m.

    RK4 is linear in the state, so each step is a matrix built from A at the
    step's start, midpoint and end.
    """
    h = (t1 - t0) / m
    ts = t0 + h * np.arange(m + 1)
    ends = np.array([a(t) for t in ts])
    mids = np.array([a(t + h / 2.0) for t in ts[:-1]])
    eye = np.eye(ends.shape[-1])
    k1 = ends[:-1]
    k2 = mids @ (eye + (h / 2.0) * k1)
    k3 = mids @ (eye + (h / 2.0) * k2)
    k4 = ends[1:] @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _propagators(a, dim: int, t_seed: float, t_f: float, n_steps: int,
                 seed_substeps: int, step_substeps: int) -> np.ndarray:
    phi = np.eye(dim)
    for s in _rk4_step_matrices(a, 0.0, t_seed, seed_substeps):
        phi = s @ phi
    out = [phi]
    steps = _rk4_step_matrices(a, t_seed, t_f, n_steps * step_substeps)
    for i, s in enumerate(steps, start=1):
        phi = s @ phi
        if i % step_substeps == 0:
            out.append(phi)
    return np.array(out)


def grid_propagators(a, dim: int, t_seed: float, t_f: float, n_steps: int,
                     seed_substeps: int, step_substeps: int) -> np.ndarray:
    """Phi at t_seed + i (t_f - t_seed) / n_steps, i = 0..n_steps.

    Shape (n_steps + 1, dim, dim). Both substep counts must be even: the
    result is also computed at half the resolution, and a difference above
    CONVERGENCE_TOL raises RuntimeError, so an unresolved oracle never
    judges anything.
    """
    if seed_substeps % 2 or step_substeps % 2:
        raise ValueError("oracle substep counts must be even")
    args = (a, dim, t_seed, t_f, n_steps)
    fine = _propagators(*args, seed_substeps, step_substeps)
    coarse = _propagators(*args, seed_substeps // 2, step_substeps // 2)
    drift = _max_rel(coarse - fine, fine)
    if not drift <= CONVERGENCE_TOL:
        raise RuntimeError(
            f"oracle not converged: halving its step moves Phi by {drift:.3e}")
    return fine


def _max_rel(diff: np.ndarray, base: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(diff, axis=(1, 2))
                        / np.linalg.norm(base, axis=(1, 2))))


def flow_propagators(factors) -> np.ndarray:
    """Phi = U diag(sigma) V^T rebuilt from every SvdFactors of a run."""
    return np.array([(f.u * f.sigma) @ f.v.T for f in factors])


def rel_errors(phi_flow: np.ndarray, phi_oracle: np.ndarray) -> tuple[float, float]:
    """(phi_rel_err, state_rel_err): maxima over the grid of the relative
    Frobenius error of Phi and the relative error of Phi v0, v0 = e_0."""
    diff = phi_flow - phi_oracle
    v0 = np.zeros(phi_oracle.shape[-1])
    v0[0] = 1.0
    state = diff @ v0
    ref = phi_oracle @ v0
    state_err = np.max(np.linalg.norm(state, axis=1) / np.linalg.norm(ref, axis=1))
    return _max_rel(diff, phi_oracle), float(state_err)
