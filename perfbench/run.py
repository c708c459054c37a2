"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep_c08 --seed 0 --seconds 27 --trace 0

Runs from the root of a checkout.  Set-up time is sampled by starting the
worker process several times up to its READY line, half of them before and
half after one fresh worker runs the workload for ``--seconds``.  Prints
human-readable ``#`` lines, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits 1 when a correctness gate fails, 2 when the worker
cannot run (for example when the checkout holds no ``src/dissip``).
``--workload all`` runs every workload in turn.  Workload and metric names
and units are read from ``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import COMPUTED  # noqa: E402
from stats import failed_frac, quartile_spread  # noqa: E402

SETUP_PROBES = 5          # set-up-only starts before the measuring worker, and as many after it
READY_TIMEOUT_S = 60.0
RUN_SLACK_S = 120.0       # the worker's own limit past --seconds


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(argv, timeout_s: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns it with the set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=_worker_env(), cwd=str(ROOT), text=True)
    ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup


def finish_worker(proc: subprocess.Popen, timeout_s: float) -> None:
    try:
        proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker ran past {timeout_s:g} s")
    code = proc.returncode
    if code != 0:
        raise WorkerError(f"worker exit code {code}")


def source_sha256() -> str:
    """Digest of the program's sources, which names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout: do not let git search parent directories
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []

    def probe_setup():
        for _ in range(SETUP_PROBES):
            proc, setup = start_worker([*common, "--setup-only"], READY_TIMEOUT_S)
            finish_worker(proc, READY_TIMEOUT_S)
            setups.append(setup)

    probe_setup()
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"result-{workload}-seed{seed}-trace{trace}.json"
    result_path.unlink(missing_ok=True)
    proc, setup = start_worker(
        [*common, "--seconds", str(seconds), "--trace", str(trace), "--result", str(result_path)],
        READY_TIMEOUT_S)
    setups.append(setup)
    finish_worker(proc, seconds + RUN_SLACK_S)
    probe_setup()
    result = json.loads(result_path.read_text())
    result["setup_samples_s"] = setups
    result["machine"].update({"nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
                              "source_sha256": source_sha256()})
    if trace:
        result["computed_metrics"] = sorted(COMPUTED)
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def summarize(result: dict, bench: dict) -> dict:
    """The result line: totals over all passes, and the metrics that ``bench``
    (BENCHMARK.json) lists for the run's mode.  An incorrect run may lack
    metrics; a correct one that lacks any is a harness error."""
    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = not result["problems"] and failed == 0
    if result["trace"]:
        listed = bench["per_layer"]
        values = result.get("per_layer", {})
    else:
        listed = bench["end_to_end"]
        timed = [p for p in passes if p["wall_s"] is not None]
        walls = [p["wall_s"] for p in timed]
        values = {
            "setup_s": statistics.median(result["setup_samples_s"]),
            "wall_s": statistics.median(walls),
            "ops_per_s": statistics.median((p["attempted"] - p["failed"]) / p["wall_s"] for p in timed),
            "peak_rss_mb": result["peak_rss_mb"],
        } if walls else {}
    missing = [m["name"] for m in listed if m["name"] not in values]
    if correct and missing:
        raise ValueError(f"no value for metric(s) {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed if m["name"] in values}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def report(result: dict, line: dict) -> None:
    passes = result["passes"]
    print(f"# {result['workload']} seed={result['seed']} (reference seed {result['reference_seed']}) "
          f"trace={result['trace']}: {len(passes)} passes, correct={line['correct']}, "
          f"failed_frac={failed_frac(line['failed'], line['attempted'])}")
    print("# machine " + json.dumps(result["machine"], sort_keys=True))
    for p in passes:
        if p["wall_s"] is not None:
            print(f"#   pass {'traced' if p['traced'] else 'untraced'}: wall_s={p['wall_s']:.4f} "
                  f"cpu_s={p['cpu_s']:.4f} ops={p['attempted']} failed={p['failed']}")
    samples = result["setup_samples_s"]
    print("#   setup_s samples: " + " ".join(f"{s:.4f}" for s in samples)
          + f" (quartile spread {quartile_spread(samples):.3f})")
    for name, metric in line["metrics"].items():
        tag = " (computed)" if name in COMPUTED else ""
        print(f"#   {name} = {metric['value']!r} {metric['unit']}{tag}")
    for problem in result["problems"]:
        print("# GATE: " + problem.replace("\n", "\n#   "))


def main(argv=None) -> int:
    try:
        bench = load_benchmark()
    except (OSError, ValueError) as err:
        print(f"benchmark could not read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    workload_names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="dissip benchmark")
    parser.add_argument("--workload", required=True, choices=(*workload_names, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    names = workload_names if args.workload == "all" else (args.workload,)
    all_correct = True
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, args.trace)
            line = summarize(result, bench)
        except (WorkerError, OSError, ValueError) as err:
            print(f"benchmark could not run {name}: {err}", file=sys.stderr)
            return 2
        report(result, line)
        print(json.dumps(line), flush=True)
        all_correct = all_correct and line["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
