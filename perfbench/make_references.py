"""Regenerate the stored references the correctness gates compare against.

    PYTHONPATH=src python3 perfbench/make_references.py [--workload NAME ...]

Runs each workload once per reference seed, the sweep with one worker (the
benchmark runs it with two, so the gate also checks that energies do not
depend on the worker count), and refuses to write a reference whose own
outcome fails the gate's other conditions.  Run it only on a commit whose
outputs are known good: the references define correct output.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import dissip

import workloads

OUT = Path(__file__).resolve().parent / "out" / "references-work"


def reference_for(cls, seed: int) -> dict:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    workload = cls(seed, OUT, workers=1) if cls is workloads.SweepC08 else cls(seed, OUT)
    workload.run()
    outcome = workload.outcome()
    ref = cls.reference(outcome)
    attempted, failed = cls.ops(outcome)
    problems = cls.gate(outcome, ref)
    if failed or problems:
        raise SystemExit(f"{cls.name} seed {seed}: {failed}/{attempted} failed, {problems}\n"
                         f"{getattr(workload, 'log', '')}")
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for name in args.workload or sorted(workloads.WORKLOADS):
        cls = workloads.WORKLOADS[name]
        seeds = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            seeds[str(seed)] = reference_for(cls, seed)
            print(f"{name} seed {seed}: {json.dumps(seeds[str(seed)])[:100]}", file=sys.stderr)
        doc = {"workload": name, "dissip_version": dissip.__version__,
               "energy_tolerance": workloads.ENERGY_TOL, "seeds": seeds}
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
    shutil.rmtree(OUT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
