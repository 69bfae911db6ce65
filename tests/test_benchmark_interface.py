"""The svdflow names and parameters that the traced benchmark binds.

`perfbench/layers.py` wraps svdflow functions by module attribute and its
hooks read some of their arguments by parameter name. A renamed function
turns its metrics into None, and a renamed parameter breaks its hook, with
no other test noticing; these tests pin that interface.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import sys

import numpy as np
import pytest

from conftest import counting
from svdflow.config import build_generator
from svdflow.odeflow import seed_factors, seed_segments
from svdflow.qsim import DilationResult, ShotPlan
from svdflow.runner import compute_reference, run_qsvd
from svdflow.svdeom import reconstruct_phi

LAYERS_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    """perfbench/layers.py loaded by path, writing no bytecode beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def target(layers, name):
    module_name = next(m for m, attr, _, _ in layers.TARGETS if attr == name)
    return getattr(importlib.import_module(module_name), name)


def test_every_target_resolves_to_a_callable(layers):
    for module_name, attr, _, _ in layers.TARGETS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr}"


@pytest.mark.parametrize("name,params", [
    ("circuit_probs", {"gates", "noise"}),
    ("sample_probs", {"plan"}),
    ("dilation_circuit", {"plan"}),
    ("write_csv", {"path"}),
    ("write_json", {"path"}),
])
def test_hooked_parameters_exist(layers, name, params):
    assert name in layers._HOOKS
    assert params <= set(inspect.signature(target(layers, name)).parameters)


def test_set_up_and_run_calls_bind(small_cfg):
    # perfbench/run.py seeds with these keywords, reading tol_degen off the
    # config, then runs run_qsvd on the set-up's outputs by position
    cfg, gen = small_cfg, object()
    inspect.signature(seed_factors).bind(gen, cfg.t_seed, cfg.step_size,
                                         nsub=cfg.seed_substeps, tol_degen=cfg.tol_degen)
    inspect.signature(run_qsvd).bind(cfg, gen, object(), object())


def test_hooked_result_fields_exist():
    assert {"record", "acceptance_rate"} <= {f.name for f in dataclasses.fields(DilationResult)}
    assert "n_shots" in {f.name for f in dataclasses.fields(ShotPlan)}


def test_factor_fields_the_oracle_reads(demo_exact_run):
    # perfbench/oracle.py rebuilds Phi as (f.u * f.sigma) @ f.v.T
    for f in demo_exact_run.factors:
        for name in ("u", "v", "sigma", "tilde", "sigma1"):
            assert hasattr(f, name), name
        phi = reconstruct_phi(f)
        assert np.linalg.norm((f.u * f.sigma) @ f.v.T - phi) <= 1e-12 * np.linalg.norm(phi)


def test_matrix_copy_sees_every_evaluation(small_cfg):
    # perfbench's tracer counts A(t) on a dataclasses.replace copy with its
    # own matrix, as `counting` makes: seeding and the reference evaluate A
    # through that field, at every substep's start and midpoint
    traced, sizes = counting(build_generator(small_cfg))
    args = (small_cfg.t_seed, small_cfg.step_size, small_cfg.seed_substeps)
    seed_factors(traced, *args)
    seeded = sum(sizes)
    assert seeded == 2 * sum(m for *_, m in seed_segments(*args))
    compute_reference(small_cfg, traced)
    assert sum(sizes) - seeded == 2 * small_cfg.n_steps * small_cfg.ref_refine
