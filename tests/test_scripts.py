"""The repository's scripts, run in process."""

import importlib.util
import json
import pathlib
import re

import numpy as np
import pytest

from svdflow.config import build_generator, load_config

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trajectory_digests_prints_members_and_a_summary(tmp_path, capsys):
    # one shot per circuit on a 20-step config: member 0 (seed 35) runs
    # through, member 1 (seed 35 + 1000003) stops on a guard
    config = tmp_path / "one_shot.json"
    config.write_text(json.dumps({
        "t_seed": 5.0, "t_f": 50.0, "n_steps": 20, "n_shots": 1,
        "seed_substeps": 2000, "ref_refine": 10, "mode": "sampled",
        "project": True, "dilation": True}))
    script = load_script("trajectory_digests")
    assert script.main(["--config", str(config), "--seed", "35", "--members", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert re.fullmatch(r"one_shot 35 [0-9a-f]{64} [0-9a-f]{64}", lines[0])
    assert re.fullmatch(r"one_shot 1000038 [A-Za-z]+Error@\d+", lines[1])
    assert lines[2] == "one_shot members=2 failed=1"


def test_flow_bytes_drops_reference_columns():
    script = load_script("trajectory_digests")
    csv = b"t,P_D_ref,P_A_ref,P_D_qsvd,acceptance_rate\n0,0.25,0.75,0.5,1\n2,1e-3,1,7,0.5\n"
    assert script.flow_bytes(csv) == b"t,P_D_qsvd,acceptance_rate\n0,0.5,1\n2,7,0.5\n"


def test_flow_digest_ignores_the_reference(tmp_path, capsys, monkeypatch):
    # a reference re-based by one part in 1e12 changes the CSV digest only
    from svdflow import runner

    config = tmp_path / "small.json"
    config.write_text(json.dumps({
        "t_seed": 5.0, "t_f": 50.0, "n_steps": 20, "n_shots": 100,
        "seed_substeps": 2000, "ref_refine": 10, "mode": "sampled"}))
    script = load_script("trajectory_digests")
    args = ["--config", str(config), "--seed", "35"]
    script.main(args)
    compute_reference = runner.compute_reference

    def rebased(cfg, gen=None):
        ref = compute_reference(cfg, gen)
        return runner.ReferenceResult(ref.times, ref.states * (1.0 + 1e-12))

    monkeypatch.setattr(runner, "compute_reference", rebased)
    script.main(args)
    before, after = (line.split() for line in capsys.readouterr().out.splitlines()[::2])
    assert before[2] != after[2]
    assert before[3] == after[3]


@pytest.mark.parametrize("config", sorted((SCRIPTS / "identity").glob("*.json")),
                         ids=lambda path: path.stem)
def test_identity_config_loads_and_builds(config):
    # a renamed field or model parameter fails here rather than as
    # ConfigError@None lines of trajectory_digests.py
    cfg = load_config(str(config))
    gen = build_generator(cfg)
    assert np.isfinite(gen(cfg.t_seed)).all()


# Smoke runs of the other scripts on small arguments (the default demo
# config, 400 steps).

def test_noise_ensemble(tmp_path, capsys):
    out = tmp_path / "windows.json"
    script = load_script("noise_ensemble")
    assert script.main(["--members", "1", "--shots", "1000", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("member  0: max |dP_D| = ")
    windows = json.loads(out.read_text())
    assert len(windows["window_means"]) == 400 // 50


def test_shot_noise_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    script = load_script("shot_noise_sweep")
    assert script.main(["--shots", "1000", "10000", "--seeds", "1", "--out", str(out)]) == 0
    assert "log-log slope" in capsys.readouterr().out
    sweep = json.loads(out.read_text())
    assert [row["n_shots"] for row in sweep["table"]] == [1000, 10000]
    assert all(row["std_terminal_dP_D"] == 0.0 for row in sweep["table"])


def test_tune_demo_model(capsys):
    script = load_script("tune_demo_model")
    assert script.main(["--k0", "8.5", "--tau", "0.012"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK  k0=  8.50 tau= 0.012  flow_err=")
    assert "best candidate: {'k0_da': 8.5, 'k0_ad': 4.25" in out


def test_run_demo(tmp_path):
    script = load_script("run_demo")
    assert script.main(["--shots", "1000", "--outdir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "exact.csv", "exact.summary.json", "plot.gp", "reference.csv",
        "sampled.csv", "sampled.summary.json"]
    for mode in ("exact", "sampled"):
        assert len((tmp_path / f"{mode}.csv").read_text().splitlines()) == 1 + 401
        summary = json.loads((tmp_path / f"{mode}.summary.json").read_text())
        assert (summary["mode"], summary["n_shots"]) == (mode, 1000)
    assert json.loads((tmp_path / "exact.summary.json").read_text())["max_abs_dP_D"] <= 1e-3
