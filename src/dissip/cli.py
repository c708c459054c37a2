"""Command-line entry points and bit-exact result serialization.

Subcommands: sample, evolve, sweep, verify, spectrum, ratio-stats.
Exit codes: 0 success, 1 verification failures, 2 configuration errors
(malformed JSON, invalid parameters, capacity limits).  Every run echoes its
fully resolved configuration to stderr.  Floats are serialized with their
shortest round-trip decimal form, so outputs are byte-stable.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone

from . import __version__
from .analysis import concentration_m, evolve_report, glo_loc_ratio_stats, schedule, spectral_tail_bound
from .ensembles import (
    MODELS,
    SAMPLED_MODELS,
    EnsembleSpec,
    instance_to_dense,
    instance_to_json,
    sample,
)
from .errors import DissipError, ValidationError
from .evolution import METHODS, EvolutionConfig
from .experiment import (
    VerifyConfig,
    config_from_json,
    run_experiment,
    verify_suite,
)

CSV_COLUMNS = [
    "cell_id", "draw", "seed", "n", "k", "m", "model", "y", "t",
    "energy", "t1", "residual", "lambda_max", "ratio", "wall_ms", "status",
]


def _echo_resolved(config: dict) -> None:
    print("resolved config: " + json.dumps(config, sort_keys=True), file=sys.stderr)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def write_results(results, stats, results_csv, stats_json=None, manifest_json=None, config=None):
    """Results CSV (fixed column order), stats JSON, and a manifest."""
    with open(results_csv, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in results:
            writer.writerow([getattr(r, col) for col in CSV_COLUMNS])
    if stats_json:
        doc = {
            "code_version": __version__,
            "config_hash": config.config_hash() if config else None,
            "cells": [s.to_dict() for s in stats],
        }
        with open(stats_json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if manifest_json:
        doc = {
            "code_version": __version__,
            "config_hash": config.config_hash() if config else None,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "config": config.to_dict() if config else None,
        }
        with open(manifest_json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _ensemble_args(parser):
    parser.add_argument("--model", required=True, choices=MODELS)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)


def _spec_from(args) -> EnsembleSpec:
    return EnsembleSpec(model=args.model, n=args.n, k=args.k, m=args.m, seed=args.seed)


def cmd_sample(args) -> int:
    instance = sample(_spec_from(args))
    _emit(instance_to_json(instance), args.out)
    return 0


def cmd_evolve(args) -> int:
    instance = sample(_spec_from(args))
    y, t = schedule(instance, y=args.y, t=args.t, c_y=args.c_y, c_t=args.c_t)
    trajectory = [] if args.trajectory else None
    report = evolve_report(instance, y, EvolutionConfig(t_final=t, method=args.method), trajectory)
    if args.trajectory:
        with open(args.trajectory, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["step", "time", "energy", "trace_error", "min_eig"])
            for row in trajectory:
                writer.writerow([row["step"], row["time"], row["energy"],
                                 row["trace_error"], row["min_eig"]])
    _emit(report.to_json(), args.out)
    return 0


def cmd_sweep(args) -> int:
    with open(args.config) as fh:
        config = config_from_json(fh.read())
    _echo_resolved(config.to_dict())
    results, stats = run_experiment(config, workers=args.workers)
    write_results(
        results,
        stats,
        results_csv=config.results_csv or "results.csv",
        stats_json=config.stats_json or "stats.json",
        manifest_json=config.manifest_json or "manifest.json",
        config=config,
    )
    for st in stats:
        flag = "FAILED" if st.cell_failed else "ok"
        print(
            f"{st.cell_id}: draws {st.draws_ok}/{st.draws} {flag} "
            f"mean_energy={st.mean_energy!r} ci=[{st.ci_low!r}, {st.ci_high!r}] "
            f"mean_ratio={st.mean_ratio!r}"
        )
    return 0


def cmd_verify(args) -> int:
    cfg = VerifyConfig(
        seed=args.seed,
        y=args.y,
        t=args.t,
        instances_per_model=args.instances,
        condition_instances=args.condition_instances,
        probes=args.probes,
        tail_draws=args.tail_draws,
    )
    report = verify_suite(cfg)
    print("\n".join(report.lines()))
    print(("all checks passed" if report.all_passed else
           f"{len(report.failures())} check(s) FAILED"))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.all_passed else 1


def cmd_spectrum(args) -> int:
    instance = sample(_spec_from(args))
    tail_bound = spectral_tail_bound(instance.model, instance.n, args.delta)
    h = instance_to_dense(instance)
    import numpy as np

    evals = np.linalg.eigvalsh(h)
    doc = {
        "model": instance.model,
        "n": instance.n,
        "k": instance.k,
        "m": instance.m,
        "seed": instance.seed,
        "lambda_max": float(evals[-1]),
        "lambda_min": float(evals[0]),
        "tail_bound": tail_bound,
        "delta": args.delta,
    }
    if args.full:
        doc["eigenvalues"] = [float(v) for v in evals]
    _emit(json.dumps(doc, separators=(",", ":")), args.out)
    return 0


def _int_list(text: str, flag: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} must be comma-separated integers, got {text!r}") from None


def cmd_ratio_stats(args) -> int:
    n_values = _int_list(args.n_list, "--n-list")
    if args.m_list:
        m_values = _int_list(args.m_list, "--m-list")
        if len(m_values) == 1:
            m_values = m_values * len(n_values)
        if len(m_values) != len(n_values):
            raise ValidationError("--m-list length must match --n-list")
    elif args.model in SAMPLED_MODELS:
        m_values = [concentration_m(n, args.k) for n in n_values]
    else:
        m_values = [None] * len(n_values)
    specs = [
        EnsembleSpec(model=args.model, n=n, k=args.k, m=m, seed=0)
        for n, m in zip(n_values, m_values)
    ]
    rows = glo_loc_ratio_stats(specs, draws=args.draws, master_seed=args.seed)
    lines = ["model,n,k,m,draws,mean_ratio,stderr"]
    for row in rows:
        lines.append(
            f"{row['model']},{row['n']},{row['k']},{row['m']},{row['draws']},"
            f"{row['mean_ratio']!r},{row['stderr']!r}"
        )
    _emit("\n".join(lines), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dissip",
        description="Dissipative optimization of random k-local Hamiltonians.",
    )
    parser.add_argument("--version", action="version", version=f"dissip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one Hamiltonian instance as JSON")
    _ensemble_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evolve", help="evolve the mixed state and report energies")
    _ensemble_args(p)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--c-y", dest="c_y", type=float, default=None)
    p.add_argument("--c-t", dest="c_t", type=float, default=None)
    p.add_argument("--method", choices=METHODS, default="rk4",
                   help="rk4 (default): the exact action of e^(Lt); expm: the dense propagator, N <= 64")
    p.add_argument("--trajectory", default=None, help="CSV path for checkpoint rows")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sweep", help="run a seeded ensemble sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    defaults = VerifyConfig()
    p = sub.add_parser("verify", help="run the identity and bound check suite")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--y", type=float, default=defaults.y)
    p.add_argument("--t", type=float, default=defaults.t)
    p.add_argument("--instances", type=int, default=defaults.instances_per_model)
    p.add_argument("--condition-instances", dest="condition_instances", type=int,
                   default=defaults.condition_instances)
    p.add_argument("--probes", type=int, default=defaults.probes)
    p.add_argument("--tail-draws", dest="tail_draws", type=int, default=defaults.tail_draws)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="exact spectrum extremes and the tail bound")
    _ensemble_args(p)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--full", action="store_true", help="include all eigenvalues")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("ratio-stats", help="h_glo^2 / h_loc statistics, no dense matrices")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-list", dest="n_list", required=True, help="comma-separated sizes")
    p.add_argument("--m-list", dest="m_list", default=None)
    p.add_argument("--draws", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ratio_stats)
    return parser


def parse_and_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    if args.command != "sweep":  # sweep echoes its file-resolved config itself
        resolved = {k: v for k, v in vars(args).items() if k != "func"}
        _echo_resolved(resolved)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except (DissipError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return parse_and_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
