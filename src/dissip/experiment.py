"""Seeded ensemble sweeps with reproducible per-draw streams.

Every draw gets its own RNG seed derived by a stable hash of
(master_seed, cell id, draw index), so scheduling and parallelism cannot
change the sampled ensemble.  Draw failures (capacity, positivity drift,
non-finite numbers) are recorded as data with a reason code rather than
retried, since retries would bias the ensemble statistics.  Bootstrap
confidence intervals run on their own seeded stream, independent of the
physics RNG.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from hashlib import sha256
from typing import Optional

import numpy as np

from .analysis import (
    BoundCheckReport,
    Check,
    check_schedule_values,
    evolve_report,
    max_eigenvalue,
    rademacher_average_energy,
    schedule,
    schedule_guards,
    spectral_tail_bound,
    t1_identity_error,
)
from .ensembles import EnsembleSpec, derive_seed, instance_to_dense, sample
from .errors import DissipError, ValidationError
from .evolution import (
    EvolutionConfig,
    choi_deviations,
    contraction_excess,
    propagator,
)
from .lindblad import (
    build_lindbladian,
    condition1_max_residual,
    condition2_max_residual,
    ledger_violations,
    piece_norm_margins,
    weighted_anticommute_margin,
)

CELL_FAILURE_FRACTION = 0.10
BOOTSTRAP_RESAMPLES = 10_000


@dataclass(frozen=True)
class CellSpec:
    """One grid cell: an ensemble plus either explicit (y, t) or a schedule."""

    cell_id: str
    model: str
    n: int
    k: int
    m: Optional[int] = None
    y: Optional[float] = None
    t: Optional[float] = None
    c_y: Optional[float] = None
    c_t: Optional[float] = None

    def __post_init__(self):
        check_schedule_values(self.y, self.t, self.c_y, self.c_t, prefix=f"cell {self.cell_id!r}: ")

    def ensemble(self, seed: int) -> EnsembleSpec:
        return EnsembleSpec(model=self.model, n=self.n, k=self.k, m=self.m, seed=seed)


@dataclass(frozen=True)
class ExperimentConfig:
    cells: tuple
    draws: int
    master_seed: int = 0
    method: str = "rk4"
    results_csv: Optional[str] = None
    stats_json: Optional[str] = None
    manifest_json: Optional[str] = None

    def __post_init__(self):
        if self.draws < 1:
            raise ValidationError("draws must be >= 1")
        if len({c.cell_id for c in self.cells}) != len(self.cells):
            raise ValidationError("cell ids must be unique")
        EvolutionConfig(t_final=0.0, method=self.method)  # the draws' own checks

    def to_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "draws": self.draws,
            "evolution": {"method": self.method},
            "cells": [
                {
                    ("id" if k == "cell_id" else k): v
                    for k, v in asdict(c).items()
                    if v is not None
                }
                for c in self.cells
            ],
            "output": {
                k: v
                for k, v in {
                    "results_csv": self.results_csv,
                    "stats_json": self.stats_json,
                    "manifest_json": self.manifest_json,
                }.items()
                if v is not None
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def config_hash(self) -> str:
        return sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()


_CELL_KEYS = {"id", "model", "n", "k", "m", "y", "t", "c_y", "c_t"}
_TOP_KEYS = {"master_seed", "draws", "evolution", "cells", "output"}
# "steps" stays for configs written when a positive count chose fixed-step
# RK4, since removed; only 0 is accepted
_EVOLUTION_KEYS = {"method", "steps"}
_OUTPUT_KEYS = {"results_csv", "stats_json", "manifest_json"}


def _integer(value, what: str) -> int:
    """value as an int when it is an integral JSON number (not a bool), else a
    ValidationError naming the field."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _object(value, what: str, keys) -> dict:
    """value when it is a JSON object with no key outside ``keys``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object, got {value!r}")
    unknown = set(value) - keys
    if unknown:
        raise ValidationError(f"unknown keys in {what}: {sorted(unknown)}")
    return value


def config_from_dict(doc: dict) -> ExperimentConfig:
    _object(doc, "config", _TOP_KEYS)
    if not isinstance(doc.get("cells"), list) or not doc["cells"]:
        raise ValidationError("config needs a nonempty 'cells' list")
    cells = []
    for i, cd in enumerate(doc["cells"]):
        _object(cd, f"cell {i}", _CELL_KEYS)
        missing = [key for key in ("model", "n", "k") if key not in cd]
        if missing:
            raise ValidationError(f"cell {i} needs {missing}")
        cell_id = cd.get("id", f"cell{i}")
        if not isinstance(cell_id, str):
            raise ValidationError(f"cell {i}: id must be a string, got {cell_id!r}")
        cell = CellSpec(
            cell_id=cell_id,
            model=cd["model"],
            n=_integer(cd["n"], f"cell {i}: n"),
            k=_integer(cd["k"], f"cell {i}: k"),
            m=_integer(cd["m"], f"cell {i}: m") if "m" in cd else None,
            y=cd.get("y"),
            t=cd.get("t"),
            c_y=cd.get("c_y"),
            c_t=cd.get("c_t"),
        )
        cell.ensemble(0)  # validate ensemble parameters eagerly
        cells.append(cell)
    evo = _object(doc.get("evolution", {}), "evolution", _EVOLUTION_KEYS)
    if _integer(evo.get("steps", 0), "steps") != 0:
        raise ValidationError("steps must be 0: fixed-step RK4 was removed; every run takes the exact action")
    out = _object(doc.get("output", {}), "output", _OUTPUT_KEYS)
    for key, path in out.items():
        if not isinstance(path, str):
            raise ValidationError(f"output {key} must be a path string, got {path!r}")
    return ExperimentConfig(
        cells=tuple(cells),
        draws=_integer(doc.get("draws", 1), "draws"),
        master_seed=_integer(doc.get("master_seed", 0), "master_seed"),
        method=evo.get("method", "rk4"),
        results_csv=out.get("results_csv"),
        stats_json=out.get("stats_json"),
        manifest_json=out.get("manifest_json"),
    )


def config_from_json(text: str) -> ExperimentConfig:
    return config_from_dict(json.loads(text))


@dataclass(frozen=True)
class RunResult:
    """One draw; numeric fields are NaN when status is not 'ok'."""

    cell_id: str
    draw: int
    seed: int
    n: int
    k: int
    m: int
    model: str
    y: float
    t: float
    energy: float
    t1: float
    residual: float
    lambda_max: float
    ratio: float
    wall_ms: float
    status: str


def _failed_result(cell, draw, seed, reason) -> RunResult:
    nan = math.nan
    return RunResult(
        cell_id=cell.cell_id, draw=draw, seed=seed, n=cell.n, k=cell.k,
        m=cell.m if cell.m is not None else 0, model=cell.model,
        y=nan, t=nan, energy=nan, t1=nan, residual=nan, lambda_max=nan,
        ratio=nan, wall_ms=nan, status=reason,
    )


def run_draw(config: ExperimentConfig, cell: CellSpec, draw: int) -> RunResult:
    seed = derive_seed(config.master_seed, cell.cell_id, draw)
    start = time.perf_counter()
    try:
        instance = sample(cell.ensemble(seed))
        y, t = schedule(instance, y=cell.y, t=cell.t, c_y=cell.c_y, c_t=cell.c_t)
        report = evolve_report(instance, y, EvolutionConfig(t_final=t, method=config.method))
        values = [report.achieved, report.t1_prediction, report.lambda_max, report.ratio]
        if not all(math.isfinite(v) for v in values):
            return _failed_result(cell, draw, seed, "nonfinite")
        wall_ms = 1000.0 * (time.perf_counter() - start)
        return RunResult(
            cell_id=cell.cell_id, draw=draw, seed=seed, n=instance.n, k=instance.k,
            m=instance.m, model=instance.model, y=y, t=t,
            energy=report.achieved, t1=report.t1_prediction, residual=report.residual,
            lambda_max=report.lambda_max, ratio=report.ratio,
            wall_ms=wall_ms, status="ok",
        )
    except DissipError as err:
        return _failed_result(cell, draw, seed, f"{type(err).__name__}: {err}")


def run_cell(config: ExperimentConfig, cell: CellSpec, workers: int = 1) -> list[RunResult]:
    """All draws of one cell, collected in draw order regardless of scheduling."""
    if workers <= 1:
        return [run_draw(config, cell, d) for d in range(config.draws)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_draw, config, cell, d) for d in range(config.draws)]
        return [f.result() for f in futures]


def run_experiment(config: ExperimentConfig, workers: int = 1):
    """(ordered results, per-cell stats) for the whole grid."""
    results = []
    stats = []
    for cell in config.cells:
        cell_results = run_cell(config, cell, workers=workers)
        results.extend(cell_results)
        stats.append(
            aggregate(
                cell_results,
                bootstrap_seed=derive_seed(config.master_seed, "bootstrap", cell.cell_id),
            )
        )
    return results, stats


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleStats:
    """Per-cell aggregate: moments of the ok draws' energies and a bootstrap CI."""

    cell_id: str
    draws: int
    draws_ok: int
    mean_energy: float
    m2: float
    stderr: float
    ci_low: float
    ci_high: float
    mean_ratio: float
    mean_lambda_max: float
    cell_failed: bool

    @property
    def variance(self) -> float:
        return self.m2 / (self.draws_ok - 1) if self.draws_ok > 1 else 0.0

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["variance"] = self.variance
        return doc


def aggregate(results, bootstrap_seed: int = 0) -> EnsembleStats:
    if not results:
        raise ValidationError("cannot aggregate an empty result list")
    cell_ids = {r.cell_id for r in results}
    if len(cell_ids) != 1:
        raise ValidationError(f"aggregate needs a homogeneous cell, got {sorted(cell_ids)}")
    ok = [r for r in results if r.status == "ok"]
    draws = len(results)
    if not ok:
        return EnsembleStats(
            cell_id=results[0].cell_id, draws=draws, draws_ok=0,
            mean_energy=math.nan, m2=math.nan, stderr=math.nan,
            ci_low=math.nan, ci_high=math.nan, mean_ratio=math.nan,
            mean_lambda_max=math.nan, cell_failed=True,
        )
    energies = np.array([r.energy for r in ok])
    mean = float(energies.mean())
    m2 = float(((energies - mean) ** 2).sum())
    stderr = math.sqrt(m2 / (len(ok) - 1) / len(ok)) if len(ok) > 1 else 0.0
    if len(ok) > 1:
        rng = np.random.default_rng(bootstrap_seed)
        idx = rng.integers(0, len(ok), size=(BOOTSTRAP_RESAMPLES, len(ok)))
        means = energies[idx].mean(axis=1)
        ci_low, ci_high = (float(q) for q in np.percentile(means, [2.5, 97.5]))
    else:
        ci_low = ci_high = mean
    return EnsembleStats(
        cell_id=ok[0].cell_id,
        draws=draws,
        draws_ok=len(ok),
        mean_energy=mean,
        m2=m2,
        stderr=stderr,
        ci_low=ci_low,
        ci_high=ci_high,
        mean_ratio=float(np.mean([r.ratio for r in ok])),
        mean_lambda_max=float(np.mean([r.lambda_max for r in ok])),
        cell_failed=(draws - len(ok)) > CELL_FAILURE_FRACTION * draws,
    )


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

TAIL_DELTA = 0.01  # failure probability of the matrix Hoeffding tail bound


@dataclass(frozen=True)
class VerifyConfig:
    """Sizes and overrides for the bundled identity-and-bound check suite."""

    seed: int = 42
    y: Optional[float] = None        # override; default is the per-instance schedule
    t: Optional[float] = None
    instances_per_model: int = 3
    condition_instances: int = 25
    probes: int = 30                 # per piece norm and per contraction instance
    tail_draws: int = 30

    def __post_init__(self):
        check_schedule_values(self.y, self.t, prefix="verify ")
        for name in ("instances_per_model", "condition_instances", "probes", "tail_draws"):
            if getattr(self, name) < 1:
                raise ValidationError(f"verify {name} must be >= 1, got {getattr(self, name)}")


_VERIFY_MODELS = (
    ("gaussian_pauli", 3, 2, None),
    ("syk", 6, 4, None),
    ("sparse_pauli", 3, 2, 4),
    ("sparse_fermion", 6, 2, 4),
)


def _verify_instances(cfg, tag, count):
    for model, n, k, m in _VERIFY_MODELS:
        for i in range(count):
            seed = derive_seed(cfg.seed, tag, model, i)
            yield sample(EnsembleSpec(model=model, n=n, k=k, m=m, seed=seed))


def verify_suite(cfg: VerifyConfig = VerifyConfig()) -> BoundCheckReport:
    """Run every named exact identity and bound check; all must pass."""
    rng = np.random.default_rng(derive_seed(cfg.seed, "verify", "probes"))
    runs = [(inst, *schedule(inst, y=cfg.y, t=cfg.t))
            for inst in _verify_instances(cfg, "verify", cfg.instances_per_model)]
    reps = [build_lindbladian(inst, y) for inst, y, _ in runs]
    # rng feeds these piece norms first, then the contraction probes below
    margins = [piece_norm_margins(rep, cfg.probes, rng) for rep in reps]
    # Condition 3 is exact jump counting, cheap enough for many more instances
    ledgers = [ledger_violations(inst) for inst in _verify_instances(cfg, "cond3", cfg.condition_instances)]
    inst0 = sample(EnsembleSpec("sparse_pauli", 3, 2, 6, seed=derive_seed(cfg.seed, "zeroth")))
    tail_bound = spectral_tail_bound("sparse_pauli", 8, TAIL_DELTA)
    tails = (sample(EnsembleSpec("sparse_pauli", 8, 2, 24, seed=derive_seed(cfg.seed, "tail", i)))
             for i in range(cfg.tail_draws))
    # contraction and channel validity on one spin and one fermion instance
    channels = []
    for model, n, k, m in (("sparse_pauli", 2, 2, 3), ("sparse_fermion", 4, 2, 3)):
        inst = sample(EnsembleSpec(model, n, k, m, seed=derive_seed(cfg.seed, "channel", model)))
        y, t = schedule(inst, y=cfg.y, t=cfg.t)
        channels.append((build_lindbladian(inst, y), t))
    chois = [choi_deviations(propagator(rep, t_choi)) for rep, _ in channels for t_choi in (0.1, 0.5)]

    return BoundCheckReport(checks=(
        Check.one_sided("condition1_unit_squares", max(map(condition1_max_residual, reps)), 0.0, 1e-12),
        Check.one_sided("condition2_commutation_flags",
                        max(map(condition2_max_residual, reps)), 0.0, 1e-12),
        Check.one_sided("condition3_anticommuting_rowsums", sum(r for r, _ in ledgers), 0.0, 0.0),
        Check.one_sided("condition3_jump_counts", sum(c for _, c in ledgers), 0.0, 0.0),
        Check.one_sided("t1_summed_identity", max(map(t1_identity_error, reps)), 0.0, 1e-9),
        Check.one_sided("zeroth_order_enumeration",
                        abs(rademacher_average_energy(inst0, y=-0.1, t=0.0)[0]), 0.0, 1e-12),
        Check.one_sided("appendix_c_single_piece_norms", max(s for s, _ in margins), 0.0, 1e-9),
        Check.one_sided("appendix_c_cross_piece_norms", max(c for _, c in margins), 0.0, 1e-9),
        Check.one_sided("appendix_c_weighted_anticommute_sum",
                        max(map(weighted_anticommute_margin, reps)), 0.0, 1e-12),
        Check.one_sided("matrix_hoeffding_tail",
                        sum(max_eigenvalue(instance_to_dense(inst)) > tail_bound for inst in tails), 0.0, 0.0),
        Check.one_sided("heisenberg_contraction",
                        max(contraction_excess(propagator(rep, t), cfg.probes, rng) for rep, t in channels),
                        0.0, 1e-8),
        Check.one_sided("choi_positive_semidefinite", max(e for e, _ in chois), 0.0, 1e-8),
        Check.one_sided("choi_trace_preservation", max(d for _, d in chois), 0.0, 1e-9),
        Check.one_sided("schedule_guards", sum(not all(schedule_guards(*run)) for run in runs), 0.0, 0.0),
    ))
