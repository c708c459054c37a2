"""The benchmark's workloads: inputs made from the benchmark seed, the timed
call into dissip, and the correctness gate against stored references.

Every workload drives dissip through its public functions or its CLI entry
point ``dissip.cli.main``, looked up on the module at call time so that the
traced run's wrappers see the calls.  References are stored for
``REFERENCE_SEEDS`` benchmark seeds; a seed outside that range is reduced
modulo it, so every run is checked against a stored reference.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import dissip
import dissip.cli

REFERENCE_SEEDS = 16
ENERGY_TOL = 1e-9            # absolute, on every stored energy
HALVING_RATIO = (0.8, 1.25)  # final residual/t^2 halving ratio, as in criterion c03
REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# c08's grid at N = 64 with fewer draws per cell, so that a run holds several sweeps.
SWEEP_DRAWS = 4
SWEEP_WORKERS = 2
SWEEP_CELLS = (
    {"id": "spin", "model": "sparse_pauli", "n": 6, "k": 2, "m": 12},
    {"id": "fermion", "model": "sparse_fermion", "n": 12, "k": 4, "m": 12},
)

# N = 256.  c_t = 0.05 (t = 0.0125) instead of the default 0.5 keeps the
# auto-selected step count near 15 rather than 140, so one evolution takes
# seconds; each step does the same N = 256 generator work.
EVOLVE_ARGS = ("--model", "sparse_fermion", "--n", "16", "--k", "4", "--m", "16", "--c-t", "0.05")

# The default verify preset with one instance per model instead of three, so
# that a pass takes about 2.5 s and a run holds about ten passes; the check
# names and the code paths are those of the default preset.
VERIFY_ARGS = ("--instances", "1")

# c03's instance shape and t grid, with m = 6 terms: 2^6 sign patterns per t.
SCAN_M = 6
SCAN_GRID = (0.08, 0.04, 0.02, 0.01)


def reference_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def load_reference(name: str, seed: int) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)["seeds"][str(reference_seed(seed))]


def _cli(argv) -> tuple[int, str]:
    """Run ``dissip.cli.main`` with its console output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = dissip.cli.main(list(argv))
    return code, buf.getvalue()


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= ENERGY_TOL


def warm_up() -> None:
    """One tiny pass through sampling, the generator, both integrators and the
    energy report, so that lazy imports and library start-up happen before timing."""
    inst = dissip.sample(dissip.EnsembleSpec("sparse_pauli", 2, 2, 2, seed=0))
    sched = dissip.schedule(inst)
    rep = dissip.build_lindbladian(inst, sched.y)
    rho = dissip.evolve(rep, dissip.maximally_mixed(inst.qubits), dissip.EvolutionConfig(t_final=sched.t))
    dissip.energy_report(inst, rho, rep.h_dense, sched.y, sched.t)
    dissip.heisenberg_evolve(rep, rep.h_dense, dissip.EvolutionConfig(t_final=sched.t, method="expm"))


class SweepC08:
    """``dissip sweep --workers 2`` over the c08 cells, writing results, stats and manifest."""

    name = "sweep_c08"

    def __init__(self, seed: int, workdir: Path, workers: int = SWEEP_WORKERS):
        self.workers = workers
        self.outputs = {key: workdir / f"{key}.{ext}" for key, ext in
                        (("results_csv", "csv"), ("stats_json", "json"), ("manifest_json", "json"))}
        self.config = workdir / "config.json"
        doc = {
            "master_seed": reference_seed(seed),
            "draws": SWEEP_DRAWS,
            "evolution": {"method": "rk4", "steps": 0},
            "cells": list(SWEEP_CELLS),
            "output": {key: str(path) for key, path in self.outputs.items()},
        }
        self.config.write_text(json.dumps(doc, indent=2) + "\n")
        self.exit, self.log = None, ""

    def run(self) -> None:
        self.exit, self.log = _cli(["sweep", "--config", str(self.config), "--workers", str(self.workers)])

    def outcome(self) -> dict:
        out = {"exit": self.exit, "draws": [], "cells": [],
               "manifest": self.outputs["manifest_json"].is_file()}
        if self.outputs["results_csv"].is_file():
            with open(self.outputs["results_csv"], newline="") as fh:
                out["draws"] = [
                    {"cell_id": row["cell_id"], "draw": int(row["draw"]),
                     "status": row["status"], "energy": float(row["energy"])}
                    for row in csv.DictReader(fh)
                ]
        if self.outputs["stats_json"].is_file():
            with open(self.outputs["stats_json"]) as fh:
                out["cells"] = [
                    {"cell_id": c["cell_id"], "mean_energy": c["mean_energy"], "ci_low": c["ci_low"]}
                    for c in json.load(fh)["cells"]
                ]
        for path in self.outputs.values():
            path.unlink(missing_ok=True)
        return out

    @staticmethod
    def ops(outcome: dict) -> tuple[int, int]:
        attempted = SWEEP_DRAWS * len(SWEEP_CELLS)
        ok = sum(d["status"] == "ok" for d in outcome["draws"])
        return attempted, attempted - ok

    @staticmethod
    def gate(outcome: dict, ref: dict) -> list[str]:
        problems = []
        if outcome["exit"] != 0:
            problems.append(f"sweep exit code {outcome['exit']}")
        if not outcome["manifest"]:
            problems.append("no manifest written")
        got = {(d["cell_id"], d["draw"]): d for d in outcome["draws"]}
        for r in ref["draws"]:
            d = got.get((r["cell_id"], r["draw"]))
            if d is None:
                problems.append(f"draw {r['cell_id']}/{r['draw']} missing")
            elif d["status"] != "ok":
                problems.append(f"draw {r['cell_id']}/{r['draw']} status {d['status']!r}")
            elif not _close(d["energy"], r["energy"]):
                problems.append(f"draw {r['cell_id']}/{r['draw']} energy {d['energy']!r} "
                                f"vs reference {r['energy']!r}")
        if len(got) != len(ref["draws"]):
            problems.append(f"{len(got)} draws, reference has {len(ref['draws'])}")
        if len(outcome["cells"]) != len(SWEEP_CELLS):
            problems.append(f"{len(outcome['cells'])} cells in stats, expected {len(SWEEP_CELLS)}")
        for c in outcome["cells"]:
            if not (c["mean_energy"] > 0.0 and c["ci_low"] > 0.0):
                problems.append(f"cell {c['cell_id']}: mean_energy {c['mean_energy']!r}, "
                                f"ci_low {c['ci_low']!r} not both positive")
        return problems

    @staticmethod
    def reference(outcome: dict) -> dict:
        return {"draws": [{k: d[k] for k in ("cell_id", "draw", "energy")} for d in outcome["draws"]]}


class EvolveN256:
    """One ``dissip evolve`` at N = 256 with a trajectory file."""

    name = "evolve_n256"

    def __init__(self, seed: int, workdir: Path):
        self.trajectory = workdir / "trajectory.csv"
        self.report = workdir / "report.json"
        self.argv = ["evolve", *EVOLVE_ARGS, "--seed", str(reference_seed(seed)),
                     "--trajectory", str(self.trajectory), "--out", str(self.report)]
        self.exit, self.log = None, ""

    def run(self) -> None:
        self.exit, self.log = _cli(self.argv)

    def outcome(self) -> dict:
        out = {"exit": self.exit, "achieved": None, "trajectory_energies": []}
        if self.report.is_file():
            out["achieved"] = json.loads(self.report.read_text())["achieved"]
        if self.trajectory.is_file():
            with open(self.trajectory, newline="") as fh:
                out["trajectory_energies"] = [float(row["energy"]) for row in csv.DictReader(fh)]
        self.report.unlink(missing_ok=True)
        self.trajectory.unlink(missing_ok=True)
        return out

    @staticmethod
    def ops(outcome: dict) -> tuple[int, int]:
        return 1, int(outcome["exit"] != 0 or outcome["achieved"] is None)

    @staticmethod
    def gate(outcome: dict, ref: dict) -> list[str]:
        problems = []
        if outcome["exit"] != 0:
            problems.append(f"evolve exit code {outcome['exit']}")
        achieved = outcome["achieved"]
        if achieved is None or not _close(achieved, ref["achieved"]):
            problems.append(f"achieved {achieved!r} vs reference {ref['achieved']!r}")
        traj = outcome["trajectory_energies"]
        if len(traj) < 2:
            problems.append(f"trajectory has {len(traj)} rows")
        elif achieved is not None and not _close(traj[-1], achieved):
            problems.append(f"last trajectory energy {traj[-1]!r} vs achieved {achieved!r}")
        return problems

    @staticmethod
    def reference(outcome: dict) -> dict:
        return {"achieved": outcome["achieved"]}


class VerifyQuick:
    """``dissip verify`` at its default preset, one instance per model."""

    name = "verify_quick"

    def __init__(self, seed: int, workdir: Path):
        self.report = workdir / "verify.json"
        self.argv = ["verify", *VERIFY_ARGS, "--seed", str(reference_seed(seed)), "--out", str(self.report)]
        self.exit, self.log = None, ""

    def run(self) -> None:
        self.exit, self.log = _cli(self.argv)

    def outcome(self) -> dict:
        out = {"exit": self.exit, "checks": []}
        if self.report.is_file():
            out["checks"] = [{"name": c["name"], "passed": c["passed"]}
                             for c in json.loads(self.report.read_text())["checks"]]
        self.report.unlink(missing_ok=True)
        return out

    @staticmethod
    def ops(outcome: dict) -> tuple[int, int]:
        checks = outcome["checks"]
        if not checks:
            return 1, 1
        return len(checks), sum(not c["passed"] for c in checks)

    @staticmethod
    def gate(outcome: dict, ref: dict) -> list[str]:
        problems = []
        if outcome["exit"] != 0:
            problems.append(f"verify exit code {outcome['exit']}")
        names = [c["name"] for c in outcome["checks"]]
        if names != ref["checks"]:
            problems.append(f"check names {names} vs reference {ref['checks']}")
        problems.extend(f"check {c['name']} FAILED" for c in outcome["checks"] if not c["passed"])
        return problems

    @staticmethod
    def reference(outcome: dict) -> dict:
        return {"checks": [c["name"] for c in outcome["checks"]]}


class SignAverage:
    """Exact sign enumeration over c03's t grid through ``second_order_residual_scan``."""

    name = "sign_average"

    def __init__(self, seed: int, workdir: Path):
        self.instance = dissip.sample(
            dissip.EnsembleSpec("sparse_pauli", 3, 2, SCAN_M, seed=reference_seed(seed)))
        self.y = dissip.schedule(self.instance).y
        self.rows = []

    def run(self) -> None:
        self.rows = dissip.second_order_residual_scan(self.instance, self.y, SCAN_GRID, mode="enumerate")

    def outcome(self) -> dict:
        return {"means": [r.mean_energy for r in self.rows],
                "residual_over_t2": [r.residual_over_t2 for r in self.rows]}

    @staticmethod
    def ops(outcome: dict) -> tuple[int, int]:
        attempted = 2**SCAN_M * len(SCAN_GRID)
        return attempted, 0 if len(outcome["means"]) == len(SCAN_GRID) else attempted

    @staticmethod
    def final_halving_ratio(residual_over_t2) -> float:
        return residual_over_t2[-2] / residual_over_t2[-1]

    @classmethod
    def gate(cls, outcome: dict, ref: dict) -> list[str]:
        problems = []
        means = outcome["means"]
        if len(means) != len(ref["means"]):
            return [f"{len(means)} scan rows, reference has {len(ref['means'])}"]
        for t, got, want in zip(SCAN_GRID, means, ref["means"]):
            if not _close(got, want):
                problems.append(f"t={t}: mean energy {got!r} vs reference {want!r}")
        ratio = cls.final_halving_ratio(outcome["residual_over_t2"])
        lo, hi = HALVING_RATIO
        if not lo <= ratio <= hi:
            problems.append(f"final halving ratio {ratio!r} outside [{lo}, {hi}]")
        return problems

    @staticmethod
    def reference(outcome: dict) -> dict:
        return {"means": outcome["means"]}


WORKLOADS = {w.name: w for w in (SweepC08, EvolveN256, VerifyQuick, SignAverage)}
