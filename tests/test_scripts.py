"""The repository's scripts, run in process."""

import importlib.util
import json
import pathlib
import re

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
