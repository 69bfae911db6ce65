"""Per-layer tracing from outside svdflow.

Public svdflow functions are wrapped by replacing the module attribute in
every loaded svdflow module that holds the same function object, so calls
made through `from .x import f` are seen too. Each wrapped call records a
span (name, start, end, parent) in memory; A(t) evaluations, which number
in the hundreds of thousands, are only counted and timed, through a
`Generator(dim, counting_matrix)` returned by the wrapped `build_generator`.

A span's self time is its duration minus the time of its child spans. A
wrapped function that no longer exists is skipped, and the metrics that
depend on it are reported as absent (None) instead of failing the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name, layer). The span name of circuit_probs is
# chosen per call: "qsim.channel" with gate noise (density matrix), else
# "qsim.statevec".
TARGETS = (
    ("svdflow.config", "load_config", "config.load", "config"),
    ("svdflow.config", "build_generator", "config.build", "config"),
    ("svdflow.odeflow", "seed_factors", "odeflow.seed", "odeflow"),
    ("svdflow.runner", "compute_reference", "runner.reference", "runner"),
    ("svdflow.runner", "run_qsvd", "runner.flow", "runner"),
    ("svdflow.runner", "write_csv", "runner.write", "runner"),
    ("svdflow.runner", "write_json", "runner.write", "runner"),
    ("svdflow.svdeom", "snapshot_from_arrays", "svdeom.snapshot", "svdeom"),
    ("svdflow.svdeom", "step_factors", "svdeom.step", "svdeom"),
    ("svdflow.svdeom", "midpoint_generators", "svdeom.step", "svdeom"),
    ("svdflow.svdeom", "reconstruct_phi", "svdeom.reconstruct", "svdeom"),
    ("svdflow.matcore", "cayley", "matcore.cayley", "matcore"),
    ("svdflow.matcore", "svd", "matcore.svd", "matcore"),
    ("svdflow.qsim", "circuit_probs", "qsim.circuit", "qsim"),
    ("svdflow.qsim", "propagate_row", "qsim.rows", "qsim"),
    ("svdflow.qsim", "evolve_sigma_phase", "qsim.phases", "qsim"),
    ("svdflow.qsim", "dilation_circuit", "qsim.dilation", "qsim"),
    ("svdflow.qsim", "sample_probs", "qsim.sample", "qsim"),
    ("svdflow.qsim", "qsvd_step", "qsim.step", "qsim"),
)

LAYERS = ("config", "models", "odeflow", "runner", "svdeom", "matcore", "qsim")

# Per-layer metrics: name -> (unit, function it needs wrapped).
METRICS = {
    "models.gen_calls": ("count", "build_generator"),
    "models.gen_s": ("s", "build_generator"),
    "config.load_s": ("s", "load_config"),
    "odeflow.seed_s": ("s", "seed_factors"),
    "runner.reference_s": ("s", "compute_reference"),
    "qsim.channel_s": ("s", "circuit_probs"),
    "qsim.pauli_terms": ("count", "circuit_probs"),
    "qsim.statevec_s": ("s", "circuit_probs"),
    "qsim.rows_s": ("s", "propagate_row"),
    "qsim.phases_s": ("s", "evolve_sigma_phase"),
    "qsim.dilation_s": ("s", "dilation_circuit"),
    "qsim.sample_s": ("s", "sample_probs"),
    "qsim.step_s": ("s", "qsvd_step"),
    "qsim.circuits": ("count", "circuit_probs"),
    "qsim.shots": ("count", "sample_probs"),
    "qsim.dilation_shots": ("count", "dilation_circuit"),
    "qsim.accept_ratio": ("ratio", "dilation_circuit"),
    "svdeom.snapshots": ("count", "snapshot_from_arrays"),
    "svdeom.snapshot_s": ("s", "snapshot_from_arrays"),
    "svdeom.step_s": ("s", "step_factors"),
    "svdeom.reconstruct_s": ("s", "reconstruct_phi"),
    "matcore.cayley_calls": ("count", "cayley"),
    "matcore.cayley_s": ("s", "cayley"),
    "matcore.svd_calls": ("count", "svd"),
    "matcore.svd_s": ("s", "svd"),
    "runner.flow_s": ("s", "run_qsvd"),
    "runner.write_s": ("s", "write_csv"),
    "runner.write_bytes": ("bytes", "write_csv"),
    **{f"{layer}.errors": ("count", None) for layer in LAYERS},
    "trace.overhead_s": ("s", None),
}

# Metrics that must repeat exactly between traced solves of one config.
EXACT_COUNTS = ("models.gen_calls", "qsim.circuits", "qsim.pauli_terms",
                "qsim.shots", "matcore.cayley_calls", "svdeom.snapshots")


class Tracer:
    """Spans, counts and per-layer errors of one traced solve."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self._stack = []       # [span index, child time] of open spans
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.gen_s = 0.0
        self.errors = Counter()
        self._errors_seen = set()
        self.missing = set()

    def _error(self, layer: str, exc: Exception) -> None:
        # an error crossing several wrapped calls of one layer counts once
        if (layer, exc) not in self._errors_seen:
            self._errors_seen.add((layer, exc))
            self.errors[layer] += 1

    def _child_done(self, duration: float) -> None:
        if self._stack:
            self._stack[-1][1] += duration

    def counting_generator(self, gen):
        """Generator(dim, counting_matrix) around an A(t) generator."""
        from svdflow.errors import SvdFlowError
        matrix = gen.matrix

        def counting_matrix(t):
            start = time.perf_counter()
            try:
                return matrix(t)
            except SvdFlowError as exc:
                self._error("models", exc)
                raise
            finally:
                duration = time.perf_counter() - start
                self.counts["models.gen_calls"] += 1
                self.gen_s += duration
                self._child_done(duration)

        return dataclasses.replace(gen, matrix=counting_matrix)

    def wrap(self, fn, span_name, layer):
        from svdflow.errors import SvdFlowError
        signature = inspect.signature(fn)
        hook = _HOOKS.get(fn.__name__)

        def wrapped(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if hook else None
            name = span_name
            if fn.__name__ == "circuit_probs":
                noise = bound.arguments.get("noise")
                name = ("qsim.channel" if noise is not None and noise.any_gate_noise
                        else "qsim.statevec")
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1][0] if self._stack else None])
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except SvdFlowError as exc:
                self._error(layer, exc)
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
                self.self_s[name] += (end - start) - frame[1]
                self.calls[name] += 1
                self._child_done(end - start)
            if hook:
                out = hook(self, bound.arguments, out)
            return out

        wrapped.__name__ = fn.__name__
        wrapped.__wrapped__ = fn
        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TARGETS function for the duration of the block."""
        replaced = []
        try:
            for module_name, attr, span_name, layer in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.add(attr)
                    continue
                wrapper = self.wrap(original, span_name, layer)
                for mod in [m for n, m in sys.modules.items()
                            if n == "svdflow" or n.startswith("svdflow.")]:
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)

    def metrics(self) -> dict:
        """Per-layer metric values of this solve; None marks an absent one."""
        c, s = self.counts, self.self_s
        drawn = c["qsim.dilation_shots"]
        values = {
            "models.gen_calls": c["models.gen_calls"],
            "models.gen_s": self.gen_s,
            "config.load_s": s["config.load"],
            "odeflow.seed_s": s["odeflow.seed"],
            "runner.reference_s": s["runner.reference"],
            "qsim.channel_s": s["qsim.channel"],
            "qsim.pauli_terms": c["qsim.pauli_terms"],
            "qsim.statevec_s": s["qsim.statevec"],
            "qsim.rows_s": s["qsim.rows"],
            "qsim.phases_s": s["qsim.phases"],
            "qsim.dilation_s": s["qsim.dilation"],
            "qsim.sample_s": s["qsim.sample"],
            "qsim.step_s": s["qsim.step"],
            "qsim.circuits": self.calls["qsim.channel"] + self.calls["qsim.statevec"],
            "qsim.shots": c["qsim.shots"],
            "qsim.dilation_shots": drawn,
            # 0 with a base of 0 drawn shots: the workload runs no dilation
            "qsim.accept_ratio": c["qsim.accepted_shots"] / drawn if drawn else 0.0,
            "svdeom.snapshots": self.calls["svdeom.snapshot"],
            "svdeom.snapshot_s": s["svdeom.snapshot"],
            "svdeom.step_s": s["svdeom.step"],
            "svdeom.reconstruct_s": s["svdeom.reconstruct"],
            "matcore.cayley_calls": self.calls["matcore.cayley"],
            "matcore.cayley_s": s["matcore.cayley"],
            "matcore.svd_calls": self.calls["matcore.svd"],
            "matcore.svd_s": s["matcore.svd"],
            "runner.flow_s": s["runner.flow"],
            "runner.write_s": s["runner.write"],
            "runner.write_bytes": c["runner.write_bytes"],
            **{f"{layer}.errors": self.errors[layer] for layer in LAYERS},
        }
        for name, (_, needs) in METRICS.items():
            if needs in self.missing:
                values[name] = None
        return values


def _gate_qubits(u, qubits) -> int:
    return len(qubits) if qubits is not None else int(math.log2(len(u)))


def _circuit_hook(tracer, args, out):
    noise = args.get("noise")
    if noise is not None and noise.any_gate_noise:
        for u, qubits in args["gates"]:
            k = _gate_qubits(u, qubits)
            if (noise.p1 if k == 1 else noise.p2) > 0.0:
                tracer.counts["qsim.pauli_terms"] += 4**k
    return out


def _sample_hook(tracer, args, out):
    tracer.counts["qsim.shots"] += args["plan"].n_shots
    return out


def _dilation_hook(tracer, args, out):
    if out.record is not None:
        drawn = args["plan"].n_shots
        tracer.counts["qsim.dilation_shots"] += drawn
        tracer.counts["qsim.accepted_shots"] += round(out.acceptance_rate * drawn)
    return out


def _write_hook(tracer, args, out):
    tracer.counts["runner.write_bytes"] += os.path.getsize(args["path"])
    return out


def _build_hook(tracer, args, out):
    return tracer.counting_generator(out)


_HOOKS = {
    "circuit_probs": _circuit_hook,
    "sample_probs": _sample_hook,
    "dilation_circuit": _dilation_hook,
    "write_csv": _write_hook,
    "write_json": _write_hook,
    "build_generator": _build_hook,
}
