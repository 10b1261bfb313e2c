"""Spans recorded from outside the program, by wrapping its public functions.

``Tracer.install()`` replaces each traced function at every name a caller
looks it up by (module attributes inside ``rotor_tvmc`` and class attributes
for methods), and ``Tracer.remove()`` puts the originals back.  A span is a
``[name, start, end, parent]`` list kept in memory; ``per_layer`` derives self
times and counts from the spans after the run, and ``write_spans`` saves them.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); names are "<layer>.<function>"
FUNCTIONS = [
    ("rotor_tvmc.cli", "main", "cli.main"),
    ("rotor_tvmc.config", "load_config", "config.load_config"),
    ("rotor_tvmc.runner", "run_ground_state", "runner.run_ground_state"),
    ("rotor_tvmc.runner", "run_quench", "runner.run_quench"),
    ("rotor_tvmc.runner", "run_oracle_benchmark", "runner.run_oracle_benchmark"),
    ("rotor_tvmc.runner", "write_csv", "runner.write_csv"),
    ("rotor_tvmc.runner", "save_checkpoint", "runner.save_checkpoint"),
    ("rotor_tvmc.runner", "write_metadata", "runner.write_metadata"),
    ("rotor_tvmc.hmc", "warmup", "hmc.warmup"),
    ("rotor_tvmc.hmc", "sample", "hmc.sample"),
    ("rotor_tvmc.lattice", "circular_site_stats", "lattice.circular_site_stats"),
    ("rotor_tvmc.quadrature", "quadrature_qgt", "quadrature.quadrature_qgt"),
    ("rotor_tvmc.quadrature", "born_weights", "quadrature.born_weights"),
    ("rotor_tvmc.quadrature", "grid_points", "quadrature.grid_points"),
    ("rotor_tvmc.tdvp", "estimate_qgt", "tdvp.estimate_qgt"),
    ("rotor_tvmc.tdvp", "tdvp_rhs", "tdvp.tdvp_rhs"),
    ("rotor_tvmc.tdvp", "residual_r2", "tdvp.residual_r2"),
    ("rotor_tvmc.observables", "potential_energy_density",
     "observables.potential_energy_density"),
    ("rotor_tvmc.observables", "magnetization", "observables.magnetization"),
    ("rotor_tvmc.observables", "circular_variance_mean",
     "observables.circular_variance_mean"),
    ("rotor_tvmc.observables", "vorticity", "observables.vorticity"),
    ("rotor_tvmc.observables", "fidelity", "observables.fidelity"),
    ("rotor_tvmc.exact", "build_hamiltonian", "exact.build_hamiltonian"),
    ("rotor_tvmc.exact", "exact_observables", "exact.exact_observables"),
    ("rotor_tvmc.exact", "vqs_to_dense", "exact.vqs_to_dense"),
    ("numpy.linalg", "eigh", "numpy.linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "numpy.linalg.eigvalsh"),
]

# (module, class, method, span name)
METHODS = [
    ("rotor_tvmc.ansatz.base", "VariationalState", "grad_log_prob", "ansatz.grad_log_prob"),
    ("rotor_tvmc.ansatz.base", "VariationalState", "local_energy", "ansatz.local_energy"),
    ("rotor_tvmc.ansatz.base", "VariationalState", "log_derivatives",
     "ansatz.log_derivatives"),
    ("rotor_tvmc.ansatz.base", "VariationalState", "log_prob", "ansatz.log_prob"),
    ("rotor_tvmc.exact", "ExactEvolver", "__init__", "exact.ExactEvolver"),
    ("rotor_tvmc.exact", "ExactEvolver", "evolve", "exact.ExactEvolver.evolve"),
    ("rotor_tvmc.integrator", "AdaptiveStepper", "advance", "integrator.advance"),
]

# spans that only orchestrate the layers below them; trace.coverage is the
# share of wall time spent inside any other span
ORCHESTRATORS = {"cli.main", "runner.run_ground_state", "runner.run_quench",
                 "runner.run_oracle_benchmark"}
EIGENSOLVERS = {"numpy.linalg.eigh", "numpy.linalg.eigvalsh"}

# return values (or arguments) kept for counters read after the run
_KEEP = {
    "hmc.sample": lambda args, out: out[1],
    "tdvp.estimate_qgt": lambda args, out: (out.s_matrix.shape[0], out.n_samples),
    "integrator.advance": lambda args, out: args[0],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.kept: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack, keep = self.spans, self._stack, _KEEP.get(name)
        kept = self.kept[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if keep is not None:
                kept.append(keep(args, out))
            return out

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "rotor_tvmc" or name.startswith("rotor_tvmc.")]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, name)
            self._patch(sys.modules[module_name], attr, traced)
            # callers that imported the function under their own name
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], name))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def write_spans(spans, path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["index", "name", "start", "end", "parent"])
        for index, (name, start, end, parent) in enumerate(spans):
            out.writerow([index, name, repr(start), repr(end), parent])


def self_times(spans) -> tuple[dict, dict]:
    """Per-name (self seconds, calls); self time excludes direct child spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, calls = defaultdict(float), defaultdict(int)
    for index, (name, start, end, _) in enumerate(spans):
        self_s[name] += (end - start) - child[index]
        calls[name] += 1
    return self_s, calls


def _nearest(spans, names) -> list[str | None]:
    """For each span, the name of its nearest ancestor in ``names``."""
    out = []
    for name, _, _, parent in spans:
        if parent < 0:
            out.append(None)
        else:
            parent_name = spans[parent][0]
            out.append(parent_name if parent_name in names else out[parent])
    return out


def per_layer(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Layer metrics of one traced repetition lasting ``wall_s`` seconds."""
    spans = tracer.spans
    self_s, calls = self_times(spans)
    # eigensolves called by tdvp_rhs are the tdvp.eigensolve layer; any other
    # (ExactEvolver's) stays in its caller's self time
    rhs_solve_s, rhs_solves = 0.0, 0
    for name, start, end, parent in spans:
        if name in EIGENSOLVERS and parent >= 0:
            if spans[parent][0] == "tdvp.tdvp_rhs":
                rhs_solve_s, rhs_solves = rhs_solve_s + end - start, rhs_solves + 1
            else:
                self_s[spans[parent][0]] += end - start
    m: dict[str, float] = {}
    for name in ("ansatz.grad_log_prob", "ansatz.local_energy",
                 "ansatz.log_derivatives", "ansatz.log_prob",
                 "quadrature.quadrature_qgt", "quadrature.born_weights",
                 "quadrature.grid_points", "tdvp.estimate_qgt", "tdvp.tdvp_rhs",
                 "tdvp.residual_r2"):
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.calls"] = calls[name]
    for name in ("observables.potential_energy_density", "observables.magnetization",
                 "observables.circular_variance_mean", "observables.vorticity",
                 "observables.fidelity", "exact.build_hamiltonian",
                 "exact.ExactEvolver", "exact.ExactEvolver.evolve",
                 "exact.exact_observables", "exact.vqs_to_dense",
                 "lattice.circular_site_stats", "runner.write_csv",
                 "runner.save_checkpoint", "runner.write_metadata",
                 "config.load_config", "cli.main", "runner.run_ground_state",
                 "runner.run_quench", "runner.run_oracle_benchmark"):
        m[f"{name}.self_s"] = self_s[name]

    # hmc: draws, gradient calls inside the transitions, sampler diagnostics
    draws = calls["hmc.warmup"]
    m["hmc.warmup.self_s"] = self_s["hmc.warmup"]
    m["hmc.warmup.calls"] = draws
    m["hmc.sample.self_s"] = self_s["hmc.sample"]
    in_hmc = _nearest(spans, {"hmc.warmup", "hmc.sample"})
    grad_calls = sum(1 for span, owner in zip(spans, in_hmc)
                     if span[0] == "ansatz.grad_log_prob" and owner is not None)
    m["hmc.grad_calls_per_draw"] = grad_calls / draws if draws else 0.0
    diags = tracer.kept["hmc.sample"]
    m["hmc.acceptance"] = (float(np.mean([np.mean(d.acceptance) for d in diags]))
                           if diags else 0.0)
    m["hmc.divergences"] = int(sum(int(np.sum(d.divergences)) for d in diags))
    rhats = [d.rhat_max for d in diags if np.isfinite(d.rhat_max)]
    m["hmc.rhat_max"] = max(rhats) if rhats else 0.0
    m["hmc.warnings"] = sum(len(d.warnings) for d in diags)

    # tdvp: eigensolves per right-hand side, and the estimate sizes
    m["tdvp.eigensolve.self_s"] = rhs_solve_s
    rhs_calls = calls["tdvp.tdvp_rhs"]
    m["tdvp.eigensolves_per_rhs"] = rhs_solves / rhs_calls if rhs_calls else 0.0
    sizes = tracer.kept["tdvp.estimate_qgt"]
    m["tdvp.n_params"] = max((p for p, _ in sizes), default=0)
    m["tdvp.samples_per_estimate"] = (float(np.mean([n for _, n in sizes]))
                                      if sizes else 0.0)

    # integrator: every RK attempt of every stepper the run created
    steppers = list({id(s): s for s in tracer.kept["integrator.advance"]}.values())
    attempts = [a for s in steppers for a in s.attempts]
    accepted = sum(1 for a in attempts if a.accepted)
    m["integrator.attempts"] = len(attempts)
    m["integrator.accepted"] = accepted
    m["integrator.accept_ratio"] = accepted / len(attempts) if attempts else 0.0
    rhs_in_steps = sum(1 for span, own in zip(spans, _nearest(spans, {"integrator.advance"}))
                       if span[0] == "tdvp.tdvp_rhs" and own is not None)
    m["integrator.rhs_per_accepted_step"] = rhs_in_steps / accepted if accepted else 0.0

    # share of the wall time inside a span below the orchestrators
    above = _nearest(spans, {span[0] for span in spans} - ORCHESTRATORS)
    covered = sum(end - start for (name, start, end, _), anc in zip(spans, above)
                  if name not in ORCHESTRATORS and anc is None)
    m["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    return m
