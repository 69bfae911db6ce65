"""Run configuration: defaults, JSON config files, flag overrides.

Config file schema (JSON, all fields optional):

    {
      "model": {"name": "two_state_demo", "params": {"k0_da": 8.5, ...}},
      "t_seed": 50.0,
      "t_f": 10000.0,
      "n_steps": 400,
      "n_shots": 1000000,
      "mode": "exact" | "sampled" | "noisy",
      "noise": {"p1": 0.0, "p2": 0.0, "p_ro": 0.0},
      "rng_seed": 1234,
      "seed_substeps": 100000,
      "ref_refine": 50,
      "project": false,
      "dilation": false
    }

A model's "params" are the keyword parameters of its function in
`models.MODELS`; a parameter left out takes that function's default, and
the function checks the values.

Command-line flags win over file values. A partial "noise" object keeps the
probabilities it does not name, so `--noise-p1` leaves a file's p2 and p_ro.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import numbers
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import ConfigError, InvalidInputError
from .models import MODELS
from .odeflow import Generator
from .qsim import NoiseSpec
from .svdeom import TOL_DEGEN

MODES = ("exact", "sampled", "noisy")  # run_qsvd maps each to a ShotPlan


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# Value checks by field annotation; noise is checked where it is built.
_TYPE_CHECKS = {
    "int": lambda v: _is_real(v) and isinstance(v, numbers.Integral),
    "float": _is_real,
    "bool": lambda v: isinstance(v, bool),
    "dict[str, float]": lambda v: isinstance(v, dict) and all(map(_is_real, v.values())),
}


@dataclass
class RunConfig:
    model_name: str = "two_state_demo"
    model_params: dict[str, float] = field(default_factory=dict)
    t_seed: float = 50.0
    t_f: float = 1.0e4
    n_steps: int = 400
    n_shots: int = 1_000_000
    mode: str = "exact"
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    rng_seed: int = 1234
    seed_substeps: int = 100_000
    ref_refine: int = 50
    project: bool = False
    dilation: bool = False
    tol_degen: ClassVar[float] = TOL_DEGEN  # not a field; read by perfbench's set-up

    @property
    def step_size(self) -> float:
        return (self.t_f - self.t_seed) / self.n_steps

    def validate(self) -> "RunConfig":
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _TYPE_CHECKS.get(f.type, lambda v: True)(value):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        # JSON reads integers of any size; all but the rng seed, which only
        # seeds numpy's SeedSequence, enter float arithmetic
        reals = [(f.name, getattr(self, f.name)) for f in dataclasses.fields(self)
                 if f.type in ("int", "float") and f.name != "rng_seed"]
        for name, value in [*reals, *self.model_params.items()]:
            try:
                float(value)
            except OverflowError:
                raise ConfigError(f"{name} is too large for a double") from None
        if not all(abs(v) < float("inf") for v in self.model_params.values()):  # NaN fails
            raise ConfigError(f"model parameters must be finite, got {self.model_params}")
        if not 0 < self.t_seed < self.t_f < float("inf"):  # NaN fails
            raise ConfigError(f"need finite 0 < t_seed < t_f, got {self.t_seed}, {self.t_f}")
        if self.n_steps < 3:
            raise ConfigError("n_steps must be >= 3 (extrapolation history)")
        if self.t_seed - 2 * self.step_size <= 0:
            raise ConfigError("t_seed - 2h must be positive for seeding")
        if not 1 <= self.n_shots < 2**63:  # the sampler draws int64 counts
            raise ConfigError(f"n_shots must be in [1, 2**63 - 1], got {self.n_shots}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.seed_substeps < 3 or self.ref_refine < 1:
            raise ConfigError("seed_substeps must be >= 3 and ref_refine >= 1")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.dilation and not self.project and self.mode != "exact":
            raise ConfigError(f"dilation in {self.mode} mode needs project: "
                              "measured factors are not orthogonal")
        if self.noise != NoiseSpec() and self.mode != "noisy":
            raise ConfigError(f"a nonzero noise spec needs mode 'noisy', got mode "
                              f"{self.mode!r}, which would run without it")
        return self


def build_generator(cfg: RunConfig) -> Generator:
    model = MODELS.get(cfg.model_name)
    if model is None:
        raise ConfigError(f"unknown model {cfg.model_name!r}")
    unknown = set(cfg.model_params) - set(inspect.signature(model).parameters)
    if unknown:
        raise ConfigError(f"unknown {cfg.model_name} parameters: {sorted(unknown)}")
    try:
        return model(**cfg.model_params)
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        # a ValueError is malformed JSON, or an integer of more digits than
        # Python converts
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        cfg = _apply_mapping(cfg, data)
    if overrides:
        cfg = _apply_mapping(cfg, overrides)
    return cfg.validate()


def _apply_mapping(cfg: RunConfig, data: dict) -> RunConfig:
    known = {f.name for f in dataclasses.fields(RunConfig)}
    updates = {}
    for key, value in data.items():
        if key == "model":
            if not isinstance(value, dict):
                raise ConfigError("'model' must be an object with name/params")
            if "name" in value:
                updates["model_name"] = str(value["name"])
            if "params" in value:
                updates["model_params"] = value["params"]
        elif key == "noise":
            try:
                updates["noise"] = dataclasses.replace(cfg.noise, **value)
            except (TypeError, InvalidInputError) as exc:
                raise ConfigError(f"bad noise spec: {exc}") from exc
        elif key in known:
            updates[key] = value
        else:
            raise ConfigError(f"unknown config field {key!r}")
    try:
        return dataclasses.replace(cfg, **updates)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
