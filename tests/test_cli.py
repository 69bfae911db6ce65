import json

import numpy as np
import pytest

from svdflow import cli
from svdflow.cli import _config_from_args, build_parser, main
from svdflow.config import RunConfig, build_generator, load_config
from svdflow.errors import ConfigError
from svdflow.qsim import NoiseSpec
from svdflow.runner import read_csv


SMALL = {
    "t_seed": 5.0, "t_f": 50.0, "n_steps": 20, "n_shots": 10000,
    "seed_substeps": 2000, "ref_refine": 10,
}


def write_config(tmp_path, extra=None):
    data = dict(SMALL)
    if extra:
        data.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestConfig:
    def test_defaults_validate(self):
        cfg = RunConfig().validate()
        assert cfg.step_size == (1e4 - 50.0) / 400

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            RunConfig(t_seed=100.0, t_f=50.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(n_steps=2).validate()
        with pytest.raises(ConfigError):
            RunConfig(mode="fancy").validate()
        with pytest.raises(ConfigError):
            # h too large for the seeding window
            RunConfig(t_seed=1.0, t_f=1000.0, n_steps=10).validate()

    def test_load_file_and_overrides(self, tmp_path):
        path = write_config(tmp_path, {"mode": "sampled"})
        cfg = load_config(path, {"n_shots": 77})
        assert cfg.mode == "sampled"
        assert cfg.n_shots == 77
        assert cfg.t_seed == 5.0

    def test_unknown_field_rejected(self, tmp_path):
        path = write_config(tmp_path, {"bogus": 1})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_noise_parsing(self, tmp_path):
        path = write_config(tmp_path, {"mode": "noisy",
                                       "noise": {"p1": 0.1, "p_ro": 0.2}})
        cfg = load_config(path)
        assert cfg.noise == NoiseSpec(p1=0.1, p2=0.0, p_ro=0.2)
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, {"mode": "noisy", "noise": {"p1": 2.0}}))

    def test_noise_flag_keeps_file_probabilities(self, tmp_path):
        path = write_config(tmp_path, {"mode": "noisy",
                                       "noise": {"p1": 0.1, "p2": 0.02, "p_ro": 0.03}})
        args = build_parser().parse_args(
            ["qsvd", "--config", path, "--noise-p1", "1e-3", "--out", "x.csv"])
        assert _config_from_args(args).noise == NoiseSpec(p1=1e-3, p2=0.02, p_ro=0.03)

    def test_model_section(self, tmp_path):
        path = write_config(tmp_path, {
            "model": {"name": "two_state_demo", "params": {"k0_da": 3.0}}})
        gen = build_generator(load_config(path))
        assert gen(0.0)[1, 0] == 3.0

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            build_generator(RunConfig(model_name="mystery"))

    def test_unknown_model_params(self):
        with pytest.raises(ConfigError):
            build_generator(RunConfig(model_params={"nope": 1.0}))


class TestCli:
    def test_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        ref = str(tmp_path / "ref.csv")
        exact = str(tmp_path / "exact.csv")
        assert main(["reference", "--config", cfg, "--out", ref]) == 0
        assert main(["qsvd", "--config", cfg, "--mode", "exact",
                     "--out", exact]) == 0
        assert main(["compare", ref, exact]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["common_points"] >= 21
        assert metrics["P_D_ref"]["max_abs"] == 0.0

        summary = json.loads((tmp_path / "exact.summary.json").read_text())
        assert summary["mode"] == "exact"
        assert summary["max_abs_dP_D"] <= 1e-3

    def test_compare_file_with_itself(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        ref = str(tmp_path / "ref.csv")
        main(["reference", "--config", cfg, "--out", ref])
        assert main(["compare", ref, ref]) == 0
        metrics = json.loads(capsys.readouterr().out)
        for key, val in metrics.items():
            if isinstance(val, dict):
                assert val["max_abs"] == 0.0

    @pytest.mark.parametrize("header,row", [("t,P_D_ref,P_A_ref", "0,1"),
                                            ("t,P_D_ref", "0,1,0")])
    def test_compare_rejects_rows_not_as_wide_as_the_header(
            self, tmp_path, capsys, header, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{row}\n{row}\n")
        assert main(["compare", str(bad), str(bad)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "malformed CSV" in record["message"]

    @pytest.mark.parametrize("missing", [True, False])
    def test_compare_output_failure_is_a_config_error(self, tmp_path, capsys,
                                                      missing):
        # a missing directory is caught before the (absent) input is read; a
        # path that names a directory fails when written
        csv = tmp_path / "a.csv"
        out = tmp_path / "missing" / "x.json"
        if not missing:
            csv.write_text("t,P_D_ref\n0,1\n")
            out = tmp_path / "taken.json"
            out.mkdir()
        assert main(["compare", str(csv), str(csv), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert str(out) in record["message"]

    def test_sampled_run_columns_finite(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "samp.csv")
        assert main(["qsvd", "--config", cfg, "--mode", "sampled",
                     "--shots", "20000", "--seed", "9", "--out", out]) == 0
        header, data = read_csv(out)
        assert header[0] == "t"
        assert np.all(np.isfinite(data))
        assert np.all(np.diff(data[:, 0]) > 0)

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mode": "fancy"}))
        code = main(["qsvd", "--config", str(bad),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"

    @pytest.mark.parametrize("extra", [
        {"model": {"params": 5}},
        {"model": {"params": {"k0_da": "fast"}}},
        {"n_steps": "400"},
        {"n_steps": 40.5},
        {"model": {"name": "synthetic", "params": {"n": 2, "bogus": 1}}},
        {"project": "no"},
        {"model": {"name": "synthetic", "params": {"n": 2.7, "seed": 3.9}}},
        {"model": {"name": "synthetic", "params": {"n": 2, "seed": 3.9}}},
        {"noise": {"p1": True}},
        {"sign_floor": 0.01},
        {"model": {"name": "synthetic", "params": {"n": 2, "seed": -1}}},
        {"rng_seed": -5, "mode": "sampled"},
    ])
    def test_malformed_value_exit_code(self, tmp_path, capsys, extra):
        cfg = write_config(tmp_path, extra)
        code = main(["qsvd", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"

    def test_noise_outside_noisy_mode_exit_code(self, tmp_path, capsys):
        # sampled and exact runs would drop the spec while the summary
        # reported it, so it is rejected before any step runs
        cfg = write_config(tmp_path)
        out = str(tmp_path / "x.csv")
        for mode in ("sampled", "exact"):
            assert main(["qsvd", "--config", cfg, "--mode", mode,
                         "--noise-p2", "0.05", "--out", out]) == 2
            record = json.loads(capsys.readouterr().err)
            assert record["error"] == "ConfigError"
            assert "mode" in record["message"]
            assert "step" not in record

    def test_dilation_needs_project_when_measured(self, tmp_path, capsys):
        # measured rows are never orthogonal enough for the dilation's gates,
        # so sampled and noisy runs with dilation but without project are
        # rejected before any step runs; exact mode runs no dilation
        cfg = write_config(tmp_path, {
            "model": {"name": "synthetic", "params": {"n": 4, "seed": 3}},
            "t_seed": 1.0, "t_f": 1.2, "n_steps": 40, "seed_substeps": 5000,
            "dilation": True})
        out = str(tmp_path / "x.csv")
        for mode in ("sampled", "noisy"):
            assert main(["qsvd", "--config", cfg, "--mode", mode, "--out", out]) == 2
            record = json.loads(capsys.readouterr().err)
            assert record["error"] == "ConfigError"
            assert "project" in record["message"]
            assert "step" not in record
        assert main(["qsvd", "--config", cfg, "--mode", "exact", "--out", out]) == 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_reference_names_every_component(self, tmp_path, n):
        cfg = write_config(tmp_path, {
            "model": {"name": "synthetic", "params": {"n": n, "seed": 3}},
            "t_seed": 1.0, "t_f": 1.2})
        out = str(tmp_path / "ref.csv")
        assert main(["reference", "--config", cfg, "--out", out]) == 0
        header, data = read_csv(out)
        assert header == ["t", "P_D_ref", "P_A_ref",
                          *(f"P_{j}_ref" for j in range(2, n))]
        assert data.shape[1] == len(header)

    def test_numerical_guard_exit_code(self, tmp_path, capsys):
        # a model with zero back-transfer keeps the flow near-unitary at
        # short times, tripping the seed degeneracy guard
        cfg = write_config(tmp_path, {
            "model": {"name": "two_state_demo",
                      "params": {"k0_da": 1e-12, "kinf_da": 1e-12,
                                 "k0_ad": 1e-12, "kinf_ad": 1e-12}}})
        code = main(["qsvd", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "DegenerateSingularValuesError"

    def test_exact_guard_names_step(self, tmp_path, capsys):
        # exact mode: the saturation guard of this model's snapshot trips
        # near t = 188.5, many steps into the flow
        cfg = write_config(tmp_path, {
            "model": {"name": "synthetic", "params": {"n": 2, "seed": 0}},
            "t_f": 2000.0, "n_steps": 1000, "mode": "exact"})
        code = main(["qsvd", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "SigmaSaturationError"
        assert isinstance(record["step"], int)
        assert 1 <= record["step"] < 1000

    def test_reference_overflow_names_grid_step(self, tmp_path, capsys):
        # A(t) of this synthetic model grows like e^(2.8 t): the reference
        # leaves double range near t = 250, well after the seeds
        cfg = write_config(tmp_path, {
            "model": {"name": "synthetic", "params": {"n": 3, "seed": 2}},
            "t_f": 400.0, "n_steps": 200})
        for command in ("reference", "qsvd"):
            code = main([command, "--config", cfg,
                         "--out", str(tmp_path / "x.csv")])
            assert code == 3
            record = json.loads(capsys.readouterr().err)
            assert record["error"] == "OverflowGuardError"
            assert 1 <= record["step"] <= 200

    def test_post_selection_starved_names_grid_step(self, tmp_path, capsys):
        # one shot per dilation circuit: for this rng seed no shot survives
        # post-selection at grid point 5 (dilation in sampled mode needs
        # project)
        cfg = write_config(tmp_path, {"n_shots": 1, "dilation": True, "project": True})
        code = main(["qsvd", "--config", cfg, "--mode", "sampled", "--seed", "8",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 4
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "PostSelectionStarvedError"
        assert record["step"] == 5

    @pytest.mark.parametrize("command,work", [("qsvd", "run_qsvd"),
                                              ("reference", "compute_reference")])
    def test_missing_output_directory_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, work):
        def untouched(*args, **kwargs):
            raise AssertionError(f"{work} called")

        monkeypatch.setattr(cli, "run_qsvd", untouched)
        monkeypatch.setattr(cli, "compute_reference", untouched)
        out = str(tmp_path / "missing" / "x.csv")
        assert main([command, "--config", write_config(tmp_path), "--mode", "exact",
                     "--out", out]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert out in record["message"]

    def test_unwritable_output_is_a_config_error(self, tmp_path, capsys):
        # the path names a directory: opening it for writing fails
        out = tmp_path / "taken.csv"
        out.mkdir()
        assert main(["qsvd", "--config", write_config(tmp_path), "--mode", "exact",
                     "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert str(out) in record["message"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["qsvd", "--config", cfg, "--mode", "sampled",
                         "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noise_flags(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "n.csv")
        assert main(["qsvd", "--config", cfg, "--mode", "noisy",
                     "--noise-p1", "1e-3", "--noise-p2", "1e-2",
                     "--noise-pro", "1e-2", "--shots", "20000",
                     "--out", out]) == 0
        _, data = read_csv(out)
        assert np.all(np.isfinite(data))
