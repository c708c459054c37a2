"""Self-tests of the benchmark harness: order statistics, span arithmetic,
the correctness gates, the wrappers' binding sites and the runner.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import statistics
import subprocess
import sys

import pytest

import layers
import run
import stats
import tracing
import workloads
from tracing import Span, SpanTree

BENCH = run.load_benchmark()


# -- order statistics ---------------------------------------------------------

def test_percentile_interpolates_between_order_statistics():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile(list(range(11)), 90) == 9.0
    assert stats.percentile([1.0, 2.0], 25) == 1.25
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([3, 1, 2], 0) == 1 and stats.percentile([3, 1, 2], 100) == 3


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_quartile_spread_follows_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 30.0, 9.0, 11.5, 10.5, 12.5, 11.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.quartile_spread([2.0, 2.0, 2.0, 2.0]) == 0.0


def test_failed_frac():
    assert stats.failed_frac(1, 8) == 0.125
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)


# -- spans --------------------------------------------------------------------

def _tree():
    # root [0, 10] with children [1, 3] and [2, 5] overlapping (two pool
    # threads) and [6, 7]; a grandchild [6.2, 6.8]; a nested same-name span.
    return SpanTree([
        Span(1, "experiment.run_cell", 0.0, 10.0, None, "r"),
        Span(2, "experiment.run_draw", 1.0, 3.0, 1, "r"),
        Span(3, "experiment.run_draw", 2.0, 5.0, 1, "r"),
        Span(4, "experiment.run_draw", 6.0, 7.0, 1, "r"),
        Span(5, "lindblad.apply_generator", 6.2, 6.8, 4, "r"),
        Span(6, "experiment.run_draw", 6.3, 6.5, 5, "r"),
    ])


def test_self_time_subtracts_the_union_of_children():
    tree = _tree()
    root = tree.by_id[1]
    assert tree.self_time(root) == pytest.approx(10.0 - (4.0 + 1.0))
    assert tree.self_time(tree.by_id[4]) == pytest.approx(1.0 - 0.6)
    assert tree.self_time(tree.by_id[5]) == pytest.approx(0.6 - 0.2)


def test_busy_counts_only_outermost_spans_of_a_name():
    tree = _tree()
    assert tree.calls("experiment.run_draw") == 4
    assert tree.busy("experiment.run_draw") == pytest.approx(2.0 + 3.0 + 1.0)
    assert tree.self_busy("experiment.run_draw") == pytest.approx(2.0 + 3.0 + 0.4)
    assert tree.p50_ms("experiment.run_draw") == pytest.approx(1000.0 * 1.5)


def test_union_length_clips_to_the_parent():
    assert tracing.union_length([(-1.0, 2.0), (1.0, 4.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(6.0)
    assert tracing.union_length([], 0.0, 1.0) == 0.0


def test_parallel_efficiency():
    tree = _tree()
    assert layers.parallel_efficiency(tree, tree.by_id[1], 2) == pytest.approx(6.0 / 20.0)


def test_wrappers_cover_every_binding_site_and_are_removed():
    import dissip
    import dissip.evolution
    import dissip.lindblad

    original = dissip.lindblad.apply_generator
    tracer = tracing.Tracer()
    with tracing.Installed(tracer, layers.TARGETS, "dissip") as installed:
        assert "dissip.evolution.apply_generator" in installed.sites()
        assert "dissip.lindblad.apply_generator" in installed.sites()
        assert "dissip.apply_generator" in installed.sites()
        assert "dissip.experiment.build_lindbladian" in installed.sites()
        assert dissip.evolution.apply_generator is not original
        inst = dissip.sample(dissip.EnsembleSpec("sparse_pauli", 2, 2, 2, seed=1))
        sched = dissip.schedule(inst)
        rep = dissip.build_lindbladian(inst, sched.y)
        dissip.evolve(rep, dissip.maximally_mixed(inst.qubits), dissip.EvolutionConfig(t_final=sched.t))
    assert dissip.evolution.apply_generator is original
    assert dissip.lindblad.apply_generator is original
    tree = SpanTree(tracer.spans)
    applies = tree.named("lindblad.apply_generator")
    assert len(applies) >= 4 * 8 and len(applies) % 4 == 0  # auto steps are at least 8
    assert all(tree.has_ancestor(s, "evolution.evolve") for s in applies)
    flop = tracer.attrs[applies[0].id]["flop"]
    assert flop == (2 * 6 + 2) * 8 * 4**3  # 3n = 6 jumps at N = 4
    assert tracer.attrs[tree.named("lindblad.build_lindbladian")[0].id]["rep_bytes"] > 0

    metrics = layers.per_layer_metrics(tracer.spans, tracer.attrs, 1, [1.0], [1.1], [1.0], 1)
    assert {m["name"] for m in BENCH["per_layer"]} <= set(metrics)
    assert metrics["evolution.rk4_steps"] == len(applies) / 4
    assert metrics["trace.overhead_frac"] == pytest.approx(0.1)


# -- correctness gates ----------------------------------------------------------

def _sweep_outcome(status="ok"):
    draws = [{"cell_id": c["id"], "draw": d, "status": "ok", "energy": 0.25 + 0.01 * d}
             for c in workloads.SWEEP_CELLS for d in range(workloads.SWEEP_DRAWS)]
    draws[1]["status"] = status
    if status != "ok":
        draws[1]["energy"] = math.nan
    cells = [{"cell_id": c["id"], "mean_energy": 0.26, "ci_low": 0.2} for c in workloads.SWEEP_CELLS]
    return {"exit": 0, "manifest": True, "draws": draws, "cells": cells}


def test_sweep_gate_accepts_its_reference_and_rejects_a_perturbed_one():
    outcome = _sweep_outcome()
    ref = workloads.SweepC08.reference(outcome)
    assert workloads.SweepC08.gate(outcome, ref) == []
    ref["draws"][3]["energy"] += 1e-8
    problems = workloads.SweepC08.gate(outcome, ref)
    assert len(problems) == 1 and "reference" in problems[0]


def test_sweep_gate_rejects_nonpositive_cell_statistics():
    outcome = _sweep_outcome()
    ref = workloads.SweepC08.reference(outcome)
    outcome["cells"][0]["ci_low"] = -0.01
    assert any("ci_low" in p for p in workloads.SweepC08.gate(outcome, ref))


def test_failed_frac_counts_a_draw_that_is_not_ok():
    ref = workloads.SweepC08.reference(_sweep_outcome())
    outcome = _sweep_outcome(status="RefinementError: positivity drift")
    attempted, failed = workloads.SweepC08.ops(outcome)
    assert (attempted, failed) == (8, 1)
    assert stats.failed_frac(failed, attempted) == 0.125
    assert any("status" in p for p in workloads.SweepC08.gate(outcome, ref))


def test_evolve_gate_rejects_a_perturbed_reference():
    outcome = {"exit": 0, "achieved": 0.1, "trajectory_energies": [0.0, 0.05, 0.1]}
    assert workloads.EvolveN256.gate(outcome, {"achieved": 0.1}) == []
    assert workloads.EvolveN256.gate(outcome, {"achieved": 0.1 + 2e-9})
    assert workloads.EvolveN256.ops({"exit": 2, "achieved": None}) == (1, 1)


def test_verify_gate_needs_the_same_checks_all_passing():
    outcome = {"exit": 0, "checks": [{"name": "a", "passed": True}, {"name": "b", "passed": True}]}
    assert workloads.VerifyQuick.gate(outcome, {"checks": ["a", "b"]}) == []
    assert workloads.VerifyQuick.gate(outcome, {"checks": ["a", "c"]})
    outcome["checks"][1]["passed"] = False
    assert workloads.VerifyQuick.gate(outcome, {"checks": ["a", "b"]})
    assert workloads.VerifyQuick.ops(outcome) == (2, 1)


def test_scan_gate_checks_means_and_the_final_halving_ratio():
    outcome = {"means": [0.4, 0.2, 0.1, 0.05], "residual_over_t2": [1.0, 1.0, 1.0, 1.0]}
    ref = workloads.SignAverage.reference(outcome)
    assert workloads.SignAverage.gate(outcome, ref) == []
    perturbed = {"means": [0.4, 0.2, 0.1, 0.05 + 1e-8]}
    assert workloads.SignAverage.gate(outcome, perturbed)
    outcome["residual_over_t2"][-1] = 0.5
    assert any("halving" in p for p in workloads.SignAverage.gate(outcome, ref))


def test_references_cover_every_reference_seed():
    for name in workloads.WORKLOADS:
        doc = json.loads((workloads.REFERENCE_DIR / f"{name}.json").read_text())
        assert sorted(doc["seeds"], key=int) == [str(s) for s in range(workloads.REFERENCE_SEEDS)]
    assert workloads.reference_seed(workloads.REFERENCE_SEEDS + 3) == 3


# -- runner -------------------------------------------------------------------

def _result(trace=0, problems=()):
    passes = [{"traced": False, "wall_s": w, "cpu_s": 2 * w, "attempted": 8, "failed": 0}
              for w in (4.0, 2.0, 8.0)]
    return {"trace": trace, "passes": passes, "problems": list(problems),
            "setup_samples_s": [0.5, 0.4, 0.6], "peak_rss_mb": 80.0,
            "per_layer": {m["name"]: 1.0 for m in BENCH["per_layer"]}}


def test_result_line_carries_exactly_the_metrics_of_its_mode():
    line = run.summarize(_result(), BENCH)
    assert line["correct"] and (line["attempted"], line["failed"]) == (24, 0)
    assert list(line["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert line["metrics"]["wall_s"] == {"value": 4.0, "unit": "s"}
    assert line["metrics"]["ops_per_s"]["value"] == 2.0  # median of 2, 4 and 1 draws/s
    assert line["metrics"]["setup_s"]["value"] == 0.5
    traced = run.summarize(_result(trace=1), BENCH)
    assert list(traced["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert not run.summarize(_result(problems=["pass 0: energy off"]), BENCH)["correct"]


def test_a_correct_run_missing_a_listed_metric_is_an_error():
    result = _result(trace=1)
    del result["per_layer"]["trace.overhead_frac"]
    with pytest.raises(ValueError, match="trace.overhead_frac"):
        run.summarize(result, BENCH)


def test_a_worker_that_overruns_is_killed():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                            stdout=subprocess.PIPE, text=True)
    with pytest.raises(run.WorkerError, match="ran past"):
        run.finish_worker(proc, 0.5)
    assert proc.returncode is not None
