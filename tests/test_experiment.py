"""Sweep orchestration: determinism, aggregation algebra, verification suite."""

import dataclasses
import math

import numpy as np
import pytest

import dissip.densemat
from dissip.ensembles import derive_seed
from dissip.errors import ValidationError
from dissip.experiment import (
    CellSpec,
    ExperimentConfig,
    VerifyConfig,
    aggregate,
    config_from_dict,
    config_from_json,
    run_cell,
    run_draw,
    run_experiment,
    verify_suite,
)
from dissip.lindblad import LindbladianRep

CELL = CellSpec(cell_id="spin", model="sparse_pauli", n=3, k=2, m=4)
FERMI_CELL = CellSpec(cell_id="fermi", model="sparse_fermion", n=6, k=2, m=4)


def tiny_config(**kwargs):
    defaults = dict(cells=(CELL, FERMI_CELL), draws=4, master_seed=7)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def strip_wall(results):
    return [dataclasses.replace(r, wall_ms=0.0) for r in results]


# ---------------------------------------------------------------------------
# draws and determinism
# ---------------------------------------------------------------------------

def test_zero_time_draw_gives_zero_energy():
    cell = dataclasses.replace(CELL, t=0.0, y=-0.1)
    config = ExperimentConfig(cells=(cell,), draws=1, master_seed=1)
    result = run_draw(config, cell, 0)
    assert result.status == "ok"
    assert abs(result.energy) < 1e-14
    assert result.t1 == 0.0


def test_draw_seeds_are_stable_hashes():
    config = tiny_config()
    result = run_draw(config, CELL, 2)
    assert result.seed == derive_seed(7, "spin", 2)


def test_rerun_reproduces_everything_but_wall_time():
    config = tiny_config()
    first, _ = run_experiment(config)
    second, _ = run_experiment(config)
    assert strip_wall(first) == strip_wall(second)


def test_parallel_draws_match_sequential():
    config = tiny_config()
    seq = run_cell(config, CELL, workers=1)
    par = run_cell(config, CELL, workers=3)
    assert strip_wall(seq) == strip_wall(par)


def test_results_positive_energy_with_default_schedule():
    config = tiny_config(draws=8)
    results, stats = run_experiment(config)
    assert all(r.status == "ok" for r in results)
    for st in stats:
        assert st.draws_ok == 8
        assert st.mean_energy > 0.0
        assert not st.cell_failed
        assert abs(st.mean_ratio) <= 1.0 + 1e-8


def test_nonfinite_energy_aborts_draw_with_reason(monkeypatch):
    import dissip.analysis
    from dissip.analysis import EnergyReport

    def poisoned(instance, rho_t, h_dense, y, t):
        return EnergyReport(
            achieved=math.nan, t1_prediction=0.0, residual=math.nan,
            lambda_max=1.0, ratio=math.nan, y=y, t=t,
        )

    monkeypatch.setattr(dissip.analysis, "energy_report", poisoned)
    config = tiny_config(draws=1)
    result = run_draw(config, CELL, 0)
    assert result.status == "nonfinite"
    assert math.isnan(result.energy)


def test_small_sweep_regression_fixture():
    # frozen after the first verified run; loose tolerance absorbs BLAS variation
    config = ExperimentConfig(cells=(CELL,), draws=3, master_seed=20240501)
    _, stats = run_experiment(config)
    assert stats[0].mean_energy == pytest.approx(0.2581502365845922, abs=1e-6)


def test_failed_draw_is_recorded_not_raised(monkeypatch):
    # a byte budget no generator fits in fails every draw
    monkeypatch.setattr(dissip.densemat, "MEMORY_BUDGET_BYTES", 1024)
    cell = dataclasses.replace(CELL, cell_id="bad")
    config = ExperimentConfig(cells=(cell,), draws=2, master_seed=0)
    results = run_cell(config, cell)
    assert all(r.status.startswith("CapacityError") for r in results)
    assert all(math.isnan(r.energy) for r in results)
    stats = aggregate(results)
    assert stats.cell_failed and stats.draws_ok == 0


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _fake_result(cell_id, draw, energy):
    from dissip.experiment import RunResult

    return RunResult(
        cell_id=cell_id, draw=draw, seed=draw, n=3, k=2, m=4, model="sparse_pauli",
        y=-0.1, t=0.1, energy=energy, t1=0.0, residual=energy, lambda_max=2.0,
        ratio=energy / 2.0, wall_ms=1.0, status="ok",
    )


def test_aggregate_single_result():
    stats = aggregate([_fake_result("c", 0, 0.5)])
    assert stats.mean_energy == 0.5
    assert stats.stderr == 0.0
    assert stats.ci_low == stats.ci_high == 0.5


def test_aggregate_two_results():
    stats = aggregate([_fake_result("c", 0, 0.2), _fake_result("c", 1, 0.6)])
    assert stats.mean_energy == pytest.approx(0.4, abs=1e-15)


def test_aggregate_rejects_empty_and_mixed_cells():
    with pytest.raises(ValidationError):
        aggregate([])
    with pytest.raises(ValidationError):
        aggregate([_fake_result("a", 0, 0.1), _fake_result("b", 0, 0.1)])


def test_bootstrap_is_seeded_and_brackets_mean():
    rng = np.random.default_rng(8)
    results = [_fake_result("c", i, e) for i, e in enumerate(rng.normal(0.5, 0.1, size=30))]
    a = aggregate(results, bootstrap_seed=3)
    b = aggregate(results, bootstrap_seed=3)
    c = aggregate(results, bootstrap_seed=4)
    assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
    assert (a.ci_low, a.ci_high) != (c.ci_low, c.ci_high)
    assert a.ci_low < a.mean_energy < a.ci_high


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

CONFIG_JSON = """
{
  "master_seed": 11,
  "draws": 3,
  "evolution": {"method": "rk4", "steps": 0},
  "cells": [
    {"id": "a", "model": "sparse_pauli", "n": 3, "k": 2, "m": 4},
    {"id": "b", "model": "syk", "n": 6, "k": 4, "y": -0.1, "t": 0.05}
  ],
  "output": {"results_csv": "out.csv"}
}
"""


def test_config_round_trip():
    config = config_from_json(CONFIG_JSON)
    assert config.draws == 3
    assert config.cells[1].y == -0.1
    again = config_from_json(config.to_json())
    assert again == config
    assert again.config_hash() == config.config_hash()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        config_from_json('{"cells": [{"id": "a", "model": "sparse_pauli", "n": 2, "k": 1, "m": 1}], "typo": 1}')
    with pytest.raises(ValidationError):
        config_from_json('{"cells": [{"id": "a", "model": "sparse_pauli", "n": 2, "k": 1, "m": 1, "oops": 2}]}')
    with pytest.raises(ValidationError):
        config_from_json('{"cells": []}')
    with pytest.raises(ValidationError, match="run_bound_checks"):
        config_from_json('{"cells": [{"id": "a", "model": "sparse_pauli", "n": 2, "k": 1, "m": 1}], '
                         '"run_bound_checks": false}')


def test_config_accepts_the_benchmark_sweep_shape():
    # perfbench/workloads.py::SweepC08 writes this config; its evolution
    # object keeps the steps key of the removed fixed-step integrator
    doc = {
        "master_seed": 3,
        "draws": 4,
        "evolution": {"method": "rk4", "steps": 0},
        "cells": [{"id": "spin", "model": "sparse_pauli", "n": 6, "k": 2, "m": 12}],
        "output": {"results_csv": "r.csv", "stats_json": "s.json", "manifest_json": "m.json"},
    }
    config = config_from_dict(doc)
    assert config.method == "rk4"
    assert config.to_dict()["evolution"] == {"method": "rk4"}


def test_config_validates_cells_eagerly():
    with pytest.raises(ValidationError):
        config_from_json('{"cells": [{"id": "a", "model": "syk", "n": 6, "k": 3}]}')


def test_duplicate_cell_ids_rejected():
    with pytest.raises(ValidationError):
        ExperimentConfig(cells=(CELL, CELL), draws=1)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def test_verify_suite_default_passes():
    report = verify_suite(VerifyConfig(seed=42, instances_per_model=1, condition_instances=5,
                                       probes=10, tail_draws=5))
    assert report.all_passed, "\n".join(report.lines())
    assert [c.name for c in report.checks] == [
        "condition1_unit_squares",
        "condition2_commutation_flags",
        "condition3_anticommuting_rowsums",
        "condition3_jump_counts",
        "t1_summed_identity",
        "zeroth_order_enumeration",
        "appendix_c_single_piece_norms",
        "appendix_c_cross_piece_norms",
        "appendix_c_weighted_anticommute_sum",
        "matrix_hoeffding_tail",
        "heisenberg_contraction",
        "choi_positive_semidefinite",
        "choi_trace_preservation",
        "schedule_guards",
    ]


def test_verify_suite_never_computes_norm_bound(monkeypatch):
    bounded = []
    monkeypatch.setattr(LindbladianRep, "norm_bound", property(lambda rep: bounded.append(rep) or 1.0))
    verify_suite(VerifyConfig(instances_per_model=1, condition_instances=1, probes=1, tail_draws=1))
    assert bounded == []


def test_verify_suite_flags_bad_schedule_but_still_runs():
    report = verify_suite(VerifyConfig(seed=42, y=-5.0, instances_per_model=1,
                                       condition_instances=2, probes=2, tail_draws=2))
    by_name = {c.name: c for c in report.checks}
    assert not by_name["schedule_guards"].passed
    # independent exact checks still ran and passed
    assert by_name["condition3_anticommuting_rowsums"].passed
    assert by_name["zeroth_order_enumeration"].passed
    assert not report.all_passed


def test_corrupted_commutation_table_fails_condition3():
    # negative control for the row-sum ledger
    from dissip.ensembles import EnsembleSpec, sample
    from dissip.lindblad import build_jump_set, commutation_table

    inst = sample(EnsembleSpec("sparse_pauli", 3, 2, 4, seed=1))
    table = commutation_table(build_jump_set(inst), inst.terms)
    assert (table.sum(axis=0) == inst.a_ac * inst.k).all()
    table[0, 0] ^= 1  # corrupt one flag
    assert not (table.sum(axis=0) == inst.a_ac * inst.k).all()
