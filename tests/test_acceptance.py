"""Acceptance suite: ten numbered criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Expensive shared artifacts (demo seeds, reference trajectory, fine-grained
oracle propagators, the exact run) come from session fixtures in conftest.
"""

import dataclasses
import time

import numpy as np

from conftest import constant, measured_phases, random_factors
from svdflow import matcore
from svdflow.cli import main
from svdflow.odeflow import seed_factors
from svdflow.qsim import NoiseSpec, ShotPlan, derive_rng, dilation_circuit
from svdflow.runner import oracle_propagators, run_qsvd
from svdflow.svdeom import (
    SvdFactors,
    midpoint_generators,
    mpea,
    reconstruct_phi,
    sigma_plus,
    snapshot_from_arrays,
    start_history,
    step_factors,
)


def report(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_oracle_equivalence(demo_cfg, demo_gen, demo_seeds,
                                        demo_reference):
    t0 = time.perf_counter()
    result = run_qsvd(demo_cfg, demo_gen, demo_seeds, demo_reference)
    elapsed = time.perf_counter() - t0
    gap = result.summary["max_abs_dP_D"]
    report(1, "noise-free oracle equivalence",
           gap <= 1e-3 and elapsed < 10.0,
           f"max |dP_D| = {gap:.3e} (<= 1e-3), wall = {elapsed:.2f} s (< 10)")


def test_criterion_2_factor_flow_fidelity(demo_cfg, demo_gen, demo_seeds,
                                          demo_oracles):
    def terminal_and_max_gap(cfg, seeds, oracles):
        h = cfg.step_size
        f = seeds[2]
        history = start_history(seeds, demo_gen)
        worst = 0.0
        for i in range(cfg.n_steps):
            f, history = step_factors(f, history, demo_gen, h)
            gap = np.abs(reconstruct_phi(f) - oracles[i + 1]).max()
            worst = max(worst, gap)
        return gap, worst

    terminal, worst = terminal_and_max_gap(demo_cfg, demo_seeds, demo_oracles)

    fine_cfg = dataclasses.replace(demo_cfg, n_steps=2 * demo_cfg.n_steps)
    fine_seeds = seed_factors(demo_gen, fine_cfg.t_seed, fine_cfg.step_size,
                              nsub=fine_cfg.seed_substeps)
    fine_oracles = oracle_propagators(fine_cfg, demo_gen)
    terminal_half, _ = terminal_and_max_gap(fine_cfg, fine_seeds, fine_oracles)

    ratio = terminal / max(terminal_half, 1e-300)
    report(2, "factor-flow fidelity",
           worst <= 1e-4 and ratio >= 1.8,
           f"max gap = {worst:.3e} (<= 1e-4), "
           f"h-halving ratio = {ratio:.1f} (>= 1.8)")


def test_criterion_3_dilation_brute_force():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        n = 2 if trial % 2 == 0 else 4
        m = rng.standard_normal((n, n))
        u, s, v = matcore.svd(m)
        f = SvdFactors.from_svd(u, s, v, 0.0)
        v0 = rng.standard_normal(n)
        v0 /= np.linalg.norm(v0)
        res = dilation_circuit(v0, f)
        target = m @ v0 / s[0]
        got = res.amplitudes * np.sqrt(res.acceptance_rate)
        worst = max(worst, np.abs(got - target).max())
    # unitary limit: acceptance rate 1
    f = SvdFactors.from_svd(np.eye(4), np.ones(4), np.eye(4), 0.0)
    res = dilation_circuit(np.array([0.5, 0.5, 0.5, 0.5]), f)
    acc_gap = abs(res.acceptance_rate - 1.0)
    report(3, "dilation brute force",
           worst <= 1e-10 and acc_gap <= 1e-10,
           f"worst amplitude gap = {worst:.2e} (<= 1e-10), "
           f"unitary acceptance gap = {acc_gap:.2e} (<= 1e-10)")


def test_criterion_4_structure_invariants(demo_cfg, demo_gen, demo_seeds):
    h = demo_cfg.step_size
    f = demo_seeds[2]
    history = start_history(demo_seeds, demo_gen)
    worst_ortho = 0.0
    worst_mod = 0.0
    eye = np.eye(f.dim)
    all_skew = True
    sp1_exact = True
    for _ in range(demo_cfg.n_steps):
        old = history
        f, history = step_factors(f, history, demo_gen, h)
        (z_mid, w_mid), _, _ = midpoint_generators(history[1], old)
        all_skew &= np.array_equal(z_mid, -z_mid.T)
        all_skew &= np.array_equal(w_mid, -w_mid.T)
        worst_ortho = max(worst_ortho,
                          np.linalg.norm(f.u.T @ f.u - eye),
                          np.linalg.norm(f.v.T @ f.v - eye))
        sp = sigma_plus(f.tilde)
        sp1_exact &= sp[0] == 1.0 + 0.0j
        worst_mod = max(worst_mod, np.abs(np.abs(sp) - 1.0).max())
    report(4, "structure invariants",
           worst_ortho <= 1e-9 and worst_mod <= 1e-9 and sp1_exact and all_skew,
           f"||U^T U - I|| = {worst_ortho:.2e} (<= 1e-9), "
           f"||sp|-1| = {worst_mod:.2e} (<= 1e-9), sp_1 exact = {sp1_exact}, "
           f"Z/W exactly skew = {all_skew}")


def test_criterion_5_scaling_invariance():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        f = random_factors(rng, n)
        a = rng.standard_normal((n, n))
        gen = constant(a)
        # keep the scaled entries inside the saturation guard corridor
        scale = rng.uniform(0.1, 0.95)
        s_raw = snapshot_from_arrays(f.u, f.tilde * scale, gen, 0.0)
        s_tilde = snapshot_from_arrays(f.u, f.tilde, gen, 0.0)
        worst = max(worst, np.abs(s_raw.z - s_tilde.z).max(),
                    np.abs(s_raw.w - s_tilde.w).max())
    report(5, "scaling invariance", worst <= 1e-12,
           f"worst entrywise gap over 100 factor sets = {worst:.2e} (<= 1e-12)")


def test_criterion_6_mpea_order():
    rng = np.random.default_rng(8)
    p, q = rng.standard_normal((2, 4, 4))
    h, t = 0.35, 2.0
    affine_gap = np.abs(
        mpea(p + q * t, p + q * (t - h), p + q * (t - 2 * h))
        - (p + q * (t + h / 2))).max()
    quad = lambda x: x**2
    defect = mpea(quad(t), quad(t - h), quad(t - 2 * h)) - quad(t + h / 2)
    quad_gap = abs(defect - h**2 / 12.0)
    report(6, "midpoint extrapolation order",
           affine_gap <= 1e-12 and quad_gap <= 1e-10,
           f"affine residual = {affine_gap:.2e} (<= 1e-12), "
           f"quadratic defect error = {quad_gap:.2e} (<= 1e-10)")


def test_criterion_7_shot_noise_scaling(demo_cfg, demo_gen, demo_seeds,
                                        demo_reference):
    shot_counts = (10**4, 10**5, 10**6)
    n_seeds = 10
    means = []
    for n_shots in shot_counts:
        vals = []
        for k in range(n_seeds):
            cfg = dataclasses.replace(demo_cfg, mode="sampled",
                                      n_shots=n_shots, rng_seed=1000 + k)
            res = run_qsvd(cfg, demo_gen, demo_seeds, demo_reference)
            vals.append(abs(res.rows[-1, 3] - res.rows[-1, 1]))
        means.append(np.mean(vals))
    slope = np.polyfit(np.log10(shot_counts), np.log10(means), 1)[0]
    report(7, "shot-noise scaling",
           -0.6 <= slope <= -0.4,
           f"terminal |dP_D| log-log slope = {slope:.3f} "
           f"(in [-0.6, -0.4]) over {n_seeds} seeds")


def test_criterion_8_noise_degradation(demo_cfg, demo_gen, demo_seeds,
                                       demo_reference):
    noise = NoiseSpec(p1=1e-3, p2=1e-2, p_ro=1e-2)
    n_members = 12
    devs = []
    for k in range(n_members):
        cfg = dataclasses.replace(demo_cfg, mode="noisy", noise=noise,
                                  n_shots=10**5, rng_seed=4000 + k)
        res = run_qsvd(cfg, demo_gen, demo_seeds, demo_reference)
        assert np.all(np.isfinite(res.rows))
        devs.append(np.abs(res.rows[:, 3] - res.rows[:, 1]))
    mean_dev = np.mean(devs, axis=0)[1:]  # drop the seed row
    windows = mean_dev.reshape(demo_cfg.n_steps // 50, 50).mean(axis=1)
    non_decreasing = bool(np.all(np.diff(windows) >= 0.0))
    report(8, "noise degradation and stability",
           non_decreasing,
           f"ensemble-mean deviation per 50-step window = "
           f"{np.array2string(windows, precision=4)} (non-decreasing), "
           f"all finite, no aborts over {demo_cfg.n_steps} steps x "
           f"{n_members} members")


def test_criterion_9_phase_reconstruction():
    n_shots = 10**6
    worst_pull = 0.0
    for n in (2, 4, 8):
        rng = np.random.default_rng(500 + n)
        planted = rng.uniform(-3.0, 3.0, n)
        planted[0] = 0.0
        out = measured_phases(
            planted, np.zeros(n), 1.0, ShotPlan(n_shots),
            derive_rng(900 + n))
        # delta-method standard error of atan2(s_hat, c_hat); the
        # interferometer subspace holds 2/n of the shots
        n_sub = 2.0 * n_shots / n
        for j in range(1, n):
            c, s = np.cos(out[j]), np.sin(out[j])
            var = (s**2 * (1 - c**2) + c**2 * (1 - s**2)) / n_sub
            se = max(np.sqrt(var), 1e-12)
            worst_pull = max(worst_pull, abs(out[j] - planted[j]) / se)
    report(9, "phase reconstruction",
           worst_pull <= 3.0,
           f"worst |phi_hat - phi| / SE = {worst_pull:.2f} (<= 3) "
           f"for N in (2, 4, 8) at 1e6 shots")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mode": "noisy", "n_shots": 20000, '
                   '"noise": {"p1": 1e-3, "p2": 1e-2, "p_ro": 1e-2}, '
                   '"t_seed": 5.0, "t_f": 50.0, "n_steps": 20, '
                   '"seed_substeps": 2000, "ref_refine": 10}')
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(["qsvd", "--config", str(cfg), "--out", str(out)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    report(10, "determinism", identical,
           f"identical configs produce byte-identical trajectories: {identical}")
