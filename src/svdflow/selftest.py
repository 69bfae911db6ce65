"""Quick invariant battery behind `svdflow selftest`.

Runs a handful of seeded structural checks (a cheap subset of the full
pytest suite) and prints one line per check.
"""

from __future__ import annotations

import numpy as np

from . import matcore, qsim, svdeom
from .models import DEFAULT_DEMO_MODEL, two_state_generator
from .odeflow import seed_factors


def _checks():
    rng = np.random.default_rng(7)

    def cayley_orthogonal():
        s = matcore.skew_part(rng.standard_normal((5, 5)))
        q = matcore.cayley(s, 0.3)
        return np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-12

    def svd_reconstruction():
        m = rng.uniform(-10, 10, (6, 6))
        u, s, v = matcore.svd(m)
        return np.linalg.norm(u @ np.diag(s) @ v.T - m) <= 1e-12 * max(1.0, s[0])

    def mpea_affine():
        p, q = rng.standard_normal((2, 3, 3))
        h = 0.7
        t = 2.0
        est = svdeom.mpea(p + q * t, p + q * (t - h), p + q * (t - 2 * h))
        return np.abs(est - (p + q * (t + h / 2))).max() <= 1e-12

    def snapshot_scaling():
        gen = two_state_generator(DEFAULT_DEMO_MODEL)
        f = seed_factors(gen, 50.0, 24.875, nsub=5000)[2]
        s_raw = svdeom.snapshot_from_arrays(f.u, f.sigma / f.sigma[0], gen, f.t)
        s_tilde = svdeom.snapshot_from_arrays(f.u, f.tilde, gen, f.t)
        return (np.abs(s_raw.z - s_tilde.z).max() <= 1e-12
                and np.abs(s_raw.w - s_tilde.w).max() <= 1e-12)

    def dilation_exact():
        m = rng.standard_normal((4, 4))
        u, s, v = matcore.svd(m)
        f = svdeom.SvdFactors.from_svd(u, s, v, 0.0)
        v0 = rng.standard_normal(4)
        v0 /= np.linalg.norm(v0)
        res = qsim.dilation_circuit(v0, f)
        target = m @ v0 / s[0]
        return np.abs(res.amplitudes * np.sqrt(res.acceptance_rate) - target).max() <= 1e-10

    def sampling_deterministic():
        st = qsim.StateVec.from_amplitudes(np.array([0.6, 0.8]))
        plan = qsim.ShotPlan(10_000)
        probs = np.abs(st.amps) ** 2
        a = qsim.sample_probs(probs, plan, lambda _: np.random.default_rng(11))
        b = qsim.sample_probs(probs, plan, lambda _: np.random.default_rng(11))
        return np.array_equal(a, b)

    return [
        ("cayley transform of skew generator is orthogonal", cayley_orthogonal),
        ("svd reconstruction at 1e-12", svd_reconstruction),
        ("midpoint extrapolation exact on affine sequences", mpea_affine),
        ("generator snapshot invariant under sigma rescaling", snapshot_scaling),
        ("dilation circuit matches dense matrix-vector product", dilation_exact),
        ("shot sampling deterministic per seed", sampling_deterministic),
    ]


def run() -> int:
    failures = 0
    for name, check in _checks():
        try:
            ok = bool(check())
        except Exception as exc:  # pragma: no cover - defensive
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1
