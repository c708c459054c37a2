"""The traced functions of each dissip module and the per-layer metrics taken from their spans.

Quantities marked computed are worked out from argument shapes, not measured:
the generator's op count and operand bytes, and the bytes of a built
representation.
"""

from __future__ import annotations

import dataclasses
import os
import statistics

import numpy as np

from tracing import SpanTree

# a complex N x N matrix product is N^3 multiply-adds, 8 N^3 real flops
COMPLEX_MATMUL_FLOP = 8
COMPLEX_BYTES = 16
RK4_STAGES = 4


def _observe_apply(attrs, params, result):
    """Computed per call: (2|A| + 2) complex products, and operand plus result
    bytes (K and K^dag stacks, the state, sum K^dag K, the output)."""
    n_jumps = params["rep"].k_stack.shape[0]
    dim = result.shape[0]
    attrs["flop"] = (2 * n_jumps + 2) * COMPLEX_MATMUL_FLOP * dim**3
    attrs["bytes"] = (2 * n_jumps + 3) * COMPLEX_BYTES * dim * dim


def array_bytes(obj) -> int:
    """Bytes of the distinct NumPy arrays reachable through dataclass fields,
    tuples and lists (computed from the arrays, not measured)."""
    seen = set()
    total = 0
    todo = [obj]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.nbytes
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            todo.extend(getattr(item, f.name) for f in dataclasses.fields(item))
    return total


def _observe_build(attrs, params, result):
    attrs["rep_bytes"] = array_bytes(result)


def _observe_evolve(attrs, params, result):
    attrs["norm_bound_t"] = params["rep"].norm_bound * params["cfg"].t_final


def _observe_draw(attrs, params, result):
    attrs["failed"] = int(result.status != "ok")


def _observe_cell(attrs, params, result):
    attrs["workers"] = max(1, params.get("workers", 1))


def _observe_write(attrs, params, result):
    paths = [params.get(key) for key in ("results_csv", "stats_json", "manifest_json")]
    attrs["bytes"] = sum(os.path.getsize(p) for p in paths if p and os.path.isfile(p))


# (module, function, observer); the span name is "<module>.<function>"
TARGETS = (
    ("dissip.cli", "main", None),
    ("dissip.cli", "write_results", _observe_write),
    ("dissip.experiment", "run_experiment", None),
    ("dissip.experiment", "run_cell", _observe_cell),
    ("dissip.experiment", "run_draw", _observe_draw),
    ("dissip.experiment", "aggregate", None),
    ("dissip.experiment", "verify_suite", None),
    ("dissip.analysis", "second_order_residual_scan", None),
    ("dissip.analysis", "rademacher_average_energy", None),
    ("dissip.analysis", "energy_report", None),
    ("dissip.ensembles", "sample", None),
    ("dissip.ensembles", "with_signs", None),
    ("dissip.ensembles", "instance_to_dense", None),
    ("dissip.operators", "to_dense", None),
    ("dissip.lindblad", "build_lindbladian", _observe_build),
    ("dissip.lindblad", "apply_generator", _observe_apply),
    ("dissip.lindblad", "sampled_superop_norm", None),
    ("dissip.densemat", "spectral_norm", None),
    ("dissip.evolution", "evolve", _observe_evolve),
    ("dissip.evolution", "heisenberg_evolve", _observe_evolve),
    ("dissip.evolution", "vectorized_generator", None),
)

COMPUTED = frozenset({
    "lindblad.apply_generator.gflop",
    "lindblad.apply_generator.gbytes",
    "lindblad.apply_generator.gflop_per_s",
    "lindblad.rep_bytes",
})


def per_layer_metrics(spans, attrs, iterations: int, untraced_walls, traced_walls,
                      untraced_cpu, blas_threads: int) -> dict:
    """``<span>.calls``, ``.busy_s``, ``.self_s`` and ``.p50_ms`` for every
    traced function, and the metrics derived from span attributes and the
    passes.  Counts and busy times are per traced iteration; process.cpu_s is
    the median CPU time of an untraced iteration."""
    tree = SpanTree(spans)
    per = 1.0 / iterations

    def attr_values(name, key):
        return [attrs[s.id][key] for s in tree.named(name) if key in attrs.get(s.id, {})]

    out = {}
    for module, fn, _ in TARGETS:
        name = f"{module.rsplit('.', 1)[-1]}.{fn}"
        out[f"{name}.calls"] = tree.calls(name) * per
        out[f"{name}.busy_s"] = tree.busy(name) * per
        out[f"{name}.self_s"] = tree.self_busy(name) * per
        out[f"{name}.p50_ms"] = tree.p50_ms(name)

    flop = sum(attr_values("lindblad.apply_generator", "flop"))
    out["lindblad.apply_generator.gflop"] = flop * per / 1e9
    out["lindblad.apply_generator.gbytes"] = sum(attr_values("lindblad.apply_generator", "bytes")) * per / 1e9
    apply_busy = sum(s.duration for s in tree.named("lindblad.apply_generator"))
    out["lindblad.apply_generator.gflop_per_s"] = flop / apply_busy / 1e9 if apply_busy else 0.0
    out["lindblad.rep_bytes"] = max(attr_values("lindblad.build_lindbladian", "rep_bytes"), default=0)
    out["lindblad.norm_bound_t"] = max(attr_values("evolution.evolve", "norm_bound_t")
                                       + attr_values("evolution.heisenberg_evolve", "norm_bound_t"),
                                       default=0.0)

    in_evolve = sum(tree.has_ancestor(s, "evolution.evolve") for s in tree.named("lindblad.apply_generator"))
    out["evolution.rk4_steps"] = in_evolve / RK4_STAGES * per
    out["analysis.sign_patterns"] = sum(
        tree.has_ancestor(s, "analysis.rademacher_average_energy") for s in tree.named("ensembles.with_signs")
    ) * per
    out["experiment.run_draw.failed"] = sum(attr_values("experiment.run_draw", "failed")) * per
    out["experiment.run_cell.parallel_eff"] = statistics.fmean(
        [parallel_efficiency(tree, cell, attrs[cell.id]["workers"]) for cell in tree.named("experiment.run_cell")]
    ) if tree.named("experiment.run_cell") else 0.0
    out["cli.write_results.bytes"] = sum(attr_values("cli.write_results", "bytes")) * per

    out["process.cpu_s"] = statistics.median(untraced_cpu)
    out["process.blas_threads"] = blas_threads
    out["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    return out


def parallel_efficiency(tree: SpanTree, cell, workers: int) -> float:
    """Sum of the cell's draw busy time over (workers x cell wall time)."""
    busy = sum(c.duration for c in tree.children.get(cell.id, ()) if c.name == "experiment.run_draw")
    return busy / (workers * cell.duration)
