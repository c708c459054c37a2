"""CLI contract: subcommands, exit codes, and byte-stable serialization."""

import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dissip
from dissip.cli import CSV_COLUMNS, build_parser, main, write_results
from dissip.ensembles import instance_from_json, instance_to_json
from dissip.experiment import VerifyConfig, config_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_round_trips(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--model", "sparse_pauli", "--n", "4", "--k", "2", "--m", "5",
        "--seed", "7",
    )
    assert code == 0
    assert "resolved config:" in err
    inst = instance_from_json(out.strip())
    assert inst.m == 5 and inst.seed == 7
    assert instance_to_json(inst) == out.strip()


def test_sample_same_seed_same_bytes(capsys):
    args = ("sample", "--model", "syk", "--n", "6", "--k", "4", "--seed", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_sample_validation_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "sample", "--model", "syk", "--n", "6", "--k", "3")
    assert code == 2
    assert "error:" in err


def test_capacity_error_names_bytes(capsys):
    code, _, err = run_cli(
        capsys, "evolve", "--model", "sparse_pauli", "--n", "24", "--k", "2", "--m", "3",
        "--t", "0.1", "--y", "-0.1",
    )
    assert code == 2
    assert "bytes" in err and "budget" in err


def test_unknown_flag_rejected(capsys):
    code, _, _ = run_cli(capsys, "sample", "--model", "sparse_pauli", "--n", "2",
                         "--k", "1", "--m", "1", "--bogus", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_zero_time_zero_energy(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--model", "sparse_pauli", "--n", "3", "--k", "2", "--m", "4",
        "--seed", "1", "--t", "0", "--y", "-0.1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["achieved"] == 0.0
    assert doc["t1_prediction"] == 0.0


def test_evolve_default_schedule_positive_energy(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "evolve", "--model", "sparse_fermion", "--n", "6", "--k", "2", "--m", "4",
        "--seed", "2", "--trajectory", str(traj),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["achieved"] > 0
    assert abs(doc["ratio"]) <= 1 + 1e-8
    with traj.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["step"] == "0"
    assert set(rows[0]) == {"step", "time", "energy", "trace_error", "min_eig"}
    assert float(rows[-1]["trace_error"]) <= 1e-9


def test_evolve_expm_trajectory_has_first_and_last_rows(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "evolve", "--model", "sparse_pauli", "--n", "3", "--k", "2", "--m", "4",
        "--method", "expm", "--trajectory", str(traj),
    )
    assert code == 0
    with traj.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [row["step"] for row in rows] == ["0", "8"]
    assert float(rows[-1]["energy"]) == json.loads(out)["achieved"]


def test_evolve_zero_time_trajectory_has_one_row(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "evolve", "--model", "sparse_pauli", "--n", "3", "--k", "2", "--m", "4",
        "--t", "0", "--trajectory", str(traj),
    )
    assert code == 0
    with traj.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["step"], row["time"]) for row in rows] == [("0", "0.0")]
    assert float(rows[0]["energy"]) == json.loads(out)["achieved"]


def test_refinement_error_without_step_count_prints_no_suggestion(capsys, monkeypatch):
    # a drift exits 2 with the error's message alone
    def drift(*args, **kwargs):
        raise dissip.RefinementError("positivity drift: min eigenvalue -1.000e-05 at step 0")

    monkeypatch.setattr(dissip.cli, "evolve_report", drift)
    code, _, err = run_cli(capsys, "evolve", "--model", "sparse_pauli", "--n", "2", "--k", "2", "--m", "2")
    assert code == 2
    assert err.splitlines()[-1] == "error: positivity drift: min eigenvalue -1.000e-05 at step 0"


SPIN_3 = ("--model", "sparse_pauli", "--n", "3", "--k", "2", "--m", "3", "--seed", "1")


@pytest.mark.parametrize(
    "model_args, y, message",
    [
        (SPIN_3, "1e200", "jump coefficient"),
        (SPIN_3, "1e150", "overflows the Taylor scaling"),  # a finite 1-norm of about 3e301
        (("--model", "syk", "--n", "4", "--k", "2"), "1e200", "overflows the Taylor scaling"),
        # the dense oracle checks L t and e^(L t)
        ((*SPIN_3, "--method", "expm"), "1e200", "L t is not finite"),
        ((*SPIN_3, "--method", "expm"), "1e30", "e^(L t) is not finite"),
        (("--model", "syk", "--n", "4", "--k", "2", "--method", "expm"), "1e30", "e^(L t) is not finite"),
    ],
    ids=["sampled", "sampled-scaling", "gaussian", "sampled-expm", "sampled-expm-exponential", "gaussian-expm"],
)
def test_evolve_overflowing_coupling_exits_2(capsys, tmp_path, model_args, y, message):
    out = tmp_path / "out.json"
    # the Gaussian jump stacks overflow on the way, which numpy warns about
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run_cli(capsys, "evolve", *model_args, "--y", y, "--t", "1", "--out", str(out))
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 2
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_config(tmp_path, draws=2):
    doc = {
        "master_seed": 5,
        "draws": draws,
        "cells": [
            {"id": "spin", "model": "sparse_pauli", "n": 3, "k": 2, "m": 4},
        ],
        "output": {
            "results_csv": str(tmp_path / "results.csv"),
            "stats_json": str(tmp_path / "stats.json"),
            "manifest_json": str(tmp_path / "manifest.json"),
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


def test_sweep_outputs(capsys, tmp_path):
    path, doc = sweep_config(tmp_path)
    code, out, err = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 0
    assert "resolved config:" in err
    with open(doc["output"]["results_csv"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert list(rows[0]) == CSV_COLUMNS
    assert all(r["status"] == "ok" for r in rows)
    # floats round-trip through the CSV text exactly
    first = rows[0]
    assert repr(float(first["energy"])) == first["energy"]
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["cells"][0]["draws_ok"] == 2
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config_hash"] == stats["config_hash"]
    assert manifest["code_version"] == stats["code_version"]


STATS_SCHEMA = {
    "type": "object",
    "required": ["code_version", "config_hash", "cells"],
    "properties": {
        "code_version": {"type": "string"},
        "config_hash": {"type": ["string", "null"]},
        "cells": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "cell_id", "draws", "draws_ok", "mean_energy", "stderr",
                    "ci_low", "ci_high", "mean_ratio", "mean_lambda_max",
                    "cell_failed", "variance",
                ],
                "properties": {
                    "cell_id": {"type": "string"},
                    "draws": {"type": "integer"},
                    "draws_ok": {"type": "integer"},
                    "cell_failed": {"type": "boolean"},
                },
            },
        },
    },
}


def test_stats_json_matches_documented_schema(capsys, tmp_path):
    import jsonschema

    path, doc = sweep_config(tmp_path)
    assert run_cli(capsys, "sweep", "--config", str(path))[0] == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    jsonschema.validate(stats, STATS_SCHEMA)


def test_sweep_deterministic_modulo_wall_time(capsys, tmp_path):
    path, doc = sweep_config(tmp_path)

    def read_without_wall():
        with open(doc["output"]["results_csv"]) as fh:
            rows = list(csv.DictReader(fh))
        return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]

    assert run_cli(capsys, "sweep", "--config", str(path))[0] == 0
    first = read_without_wall()
    assert run_cli(capsys, "sweep", "--config", str(path), "--workers", "2")[0] == 0
    assert read_without_wall() == first


def overflowing_sweep(capsys, tmp_path, y, evolution):
    """The statuses of the two draws of a normal cell and of a cell at
    coupling y, from a sweep that must exit 0."""
    path, doc = sweep_config(tmp_path)
    doc["evolution"] = evolution
    doc["cells"].append({"id": "huge", "model": "sparse_pauli", "n": 3, "k": 2, "m": 3, "y": y, "t": 1.0})
    path.write_text(json.dumps(doc))
    # with method expm the dense jump stacks overflow on the way, which numpy warns about
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, _ = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 0
    with open(doc["output"]["results_csv"]) as fh:
        rows = list(csv.DictReader(fh))
    return ([r["status"] for r in rows if r["cell_id"] == "spin"],
            [r["status"] for r in rows if r["cell_id"] == "huge"])


def test_sweep_records_an_overflowing_coupling_as_failed_draws(capsys, tmp_path):
    spin, huge = overflowing_sweep(capsys, tmp_path, 1e200, {})
    assert spin == ["ok", "ok"]
    assert len(huge) == 2 and all(s.startswith("ValidationError: jump coefficient") for s in huge)


def test_sweep_records_an_overflowing_propagator_as_failed_draws(capsys, tmp_path):
    spin, huge = overflowing_sweep(capsys, tmp_path, 1e30, {"method": "expm"})
    assert spin == ["ok", "ok"]
    assert len(huge) == 2 and all(s.startswith("ValidationError: e^(L t) is not finite") for s in huge)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("evolution", "method", "rk5", "unknown method"),
        ("evolution", "steps", 1, "fixed-step RK4 was removed"),
        ("cell", "c_t", -1, "schedule constants must be positive"),
        ("cell", "t", -0.5, "evolution time must be nonnegative"),
    ],
)
def test_sweep_config_error_exits_2_before_any_draw(capsys, tmp_path, section, key, value, message):
    path, doc = sweep_config(tmp_path)
    if section == "cell":
        doc["cells"][0][key] = value
    else:
        doc["evolution"] = {key: value}
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 2
    assert message in err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["cells"][0].pop("model"), "needs ['model']"),
        (lambda doc: doc["cells"][0].update(n="two"), "n must be an integer"),
        (lambda doc: doc["cells"][0].update(m=[4]), "m must be an integer"),
        (lambda doc: doc.update(draws="x"), "draws must be an integer"),
        (lambda doc: doc.update(master_seed=None), "master_seed must be an integer"),
        (lambda doc: doc.update(evolution={"steps": "many"}), "steps must be an integer"),
        (lambda doc: doc.update(cells=[3]), "must be a JSON object"),
        (lambda doc: doc["cells"][0].update(n=2.7), "n must be an integer"),
        (lambda doc: doc.update(draws=1.9), "draws must be an integer"),
        (lambda doc: doc["cells"][0].update(m=True), "m must be an integer"),
        (lambda doc: doc.update(evolution={"method": "rk4", "step": 0}), "unknown keys in evolution"),
        (lambda doc: doc["output"].update(result_csv=doc["output"].pop("results_csv")),
         "unknown keys in output"),
        (lambda doc: doc["output"].update(results_csv=True), "results_csv must be a path string"),
        (lambda doc: doc["output"].update(stats_json=3), "stats_json must be a path string"),
        (lambda doc: doc["cells"][0].update(id=["x"]), "id must be a string"),
        (lambda doc: doc["cells"][0].update(id={"a": 1}), "id must be a string"),
        (lambda doc: doc["cells"][0].update(id=None), "id must be a string"),
        (lambda doc: doc["cells"][0].update(id=7), "id must be a string"),
    ],
    ids=["missing-model", "n-text", "m-list", "draws-text", "seed-null", "steps-text", "cell-number",
         "n-fraction", "draws-fraction", "m-bool", "evolution-key", "output-key", "output-bool",
         "output-number", "id-list", "id-object", "id-null", "id-number"],
)
def test_sweep_malformed_config_exits_2(capsys, tmp_path, edit, message):
    path, doc = sweep_config(tmp_path)
    edit(doc)
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 2
    assert message in err
    assert not (tmp_path / "results.csv").exists()


def test_sweep_malformed_json_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cells": [,]}')
    code, _, err = run_cli(capsys, "sweep", "--config", str(bad))
    assert code == 2
    assert "line 1" in err and "column" in err


def test_write_results_empty_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    write_results([], [], results_csv=str(out))
    assert out.read_bytes() == (",".join(CSV_COLUMNS) + "\n").encode()


def test_csv_row_round_trip(tmp_path):
    path, doc = sweep_config(tmp_path)
    config = config_from_json(path.read_text())
    from dissip.experiment import run_experiment

    results, stats = run_experiment(config)
    write_results(results, stats, results_csv=str(tmp_path / "r.csv"))
    with open(tmp_path / "r.csv") as fh:
        rows = list(csv.DictReader(fh))
    for parsed, original in zip(rows, results):
        assert float(parsed["energy"]) == original.energy
        assert float(parsed["lambda_max"]) == original.lambda_max
        assert int(parsed["seed"]) == original.seed


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_passes(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--seed", "42", "--instances", "1", "--condition-instances", "3",
        "--probes", "5", "--tail-draws", "3", "--out", str(out_json),
    )
    assert code == 0
    assert "all checks passed" in out
    doc = json.loads(out_json.read_text())
    assert doc["all_passed"] is True


def test_verify_defaults_are_verify_config():
    args = build_parser().parse_args(["verify"])
    cfg = VerifyConfig()
    flags = {"instances_per_model": "instances"}
    assert {f.name: getattr(args, flags.get(f.name, f.name)) for f in dataclasses.fields(cfg)} \
        == dataclasses.asdict(cfg)


def test_verify_run_never_imports_scipy_sparse():
    # only an evolution builds a transfer matrix or takes the action of the
    # exponential; verify pays no import for either
    script = ("import sys; from dissip.cli import main; "
              "code = main(['verify', '--instances', '1', '--condition-instances', '1', "
              "'--probes', '1', '--tail-draws', '1']); "
              "print(code, 'scipy.sparse' in sys.modules, 'scipy.sparse.linalg' in sys.modules)")
    src = str(Path(dissip.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split()[-3:] == ["0", "False", "False"]


@pytest.mark.parametrize("flag", ["--instances", "--condition-instances", "--probes", "--tail-draws"])
def test_verify_zero_count_exits_2(capsys, tmp_path, flag):
    out_json = tmp_path / "report.json"
    counts = {"--instances": "1", "--condition-instances": "1", "--probes": "1", "--tail-draws": "1"}
    counts[flag] = "0"
    code, out, err = run_cli(capsys, "verify", *(x for kv in counts.items() for x in kv),
                             "--out", str(out_json))
    assert code == 2
    assert "must be >= 1" in err
    assert "passed" not in out
    assert not out_json.exists()


def test_verify_overflowing_coupling_exits_2(capsys, tmp_path):
    # the channel checks' dense propagator overflows; no check is reported
    out_json = tmp_path / "report.json"
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, "verify", "--y", "1e30", "--instances", "1", "--condition-instances", "1",
                                 "--probes", "1", "--tail-draws", "1", "--out", str(out_json))
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 2
    assert len(errors) == 1 and "e^(L t) is not finite" in errors[0]
    assert "Traceback" not in err and "passed" not in out
    assert not out_json.exists()


def test_verify_bad_coupling_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--seed", "42", "--y", "-9.0", "--instances", "1",
        "--condition-instances", "2", "--probes", "4", "--tail-draws", "2",
    )
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# every float flag
# ---------------------------------------------------------------------------

# a small valid run of each subcommand that has float flags, so that the
# flag under test is the only fault
BASE_ARGV = {
    "evolve": ("--model", "sparse_pauli", "--n", "2", "--k", "1", "--m", "2"),
    "spectrum": ("--model", "sparse_pauli", "--n", "2", "--k", "1", "--m", "2"),
    "verify": ("--instances", "1", "--condition-instances", "1", "--probes", "1", "--tail-draws", "1"),
}


def float_options():
    """(subcommand, flag, dest, has --out) for every type=float option of build_parser()."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action.dest, "--out" in sub._option_string_actions)
            for command, sub in subparsers.choices.items()
            for action in sub._actions if action.type is float]


def test_float_options_are_found():
    assert {(c, f) for c, f, _, _ in float_options()} >= {("evolve", "--y"), ("verify", "--t"),
                                                            ("spectrum", "--delta")}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag, dest, has_out",
                         [pytest.param(*option, id=option[0] + option[1]) for option in float_options()])
def test_nonfinite_float_flag_exits_2(capsys, tmp_path, value, command, flag, dest, has_out):
    out = tmp_path / "out.json"
    argv = [command, *BASE_ARGV[command], flag, value]
    if has_out:
        argv += ["--out", str(out)]
    code, _, err = run_cli(capsys, *argv)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 2
    assert len(errors) == 1 and dest in errors[0]
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# spectrum and ratio-stats
# ---------------------------------------------------------------------------

def test_spectrum_reports_bound(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--model", "sparse_pauli", "--n", "4", "--k", "2", "--m", "6",
        "--seed", "1", "--full",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_max"] <= doc["tail_bound"]
    assert len(doc["eigenvalues"]) == 16
    assert doc["lambda_min"] == pytest.approx(-doc["lambda_max"], abs=3.0)


@pytest.mark.parametrize("delta", ["0", "-1", "1"])
def test_spectrum_delta_outside_unit_interval_exits_2(capsys, delta):
    code, _, err = run_cli(capsys, "spectrum", *BASE_ARGV["spectrum"], "--delta", delta)
    assert code == 2
    assert "delta must lie in (0, 1)" in err


def test_ratio_stats_csv(capsys):
    code, out, _ = run_cli(
        capsys, "ratio-stats", "--model", "sparse_pauli", "--k", "2",
        "--n-list", "8,16", "--draws", "20", "--seed", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "model,n,k,m,draws,mean_ratio,stderr"
    assert len(lines) == 3
    n8 = float(lines[1].split(",")[5])
    n16 = float(lines[2].split(",")[5])
    assert n16 > n8  # ratio grows with n


@pytest.mark.parametrize("flag, value", [("--n-list", "8,x"), ("--m-list", "12,y")])
def test_ratio_stats_bad_size_list_exits_2(capsys, flag, value):
    argv = ["ratio-stats", "--model", "sparse_pauli", "--k", "2", "--n-list", "8,16", "--draws", "2"]
    argv += [flag, value]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"{flag} must be comma-separated integers" in err


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
