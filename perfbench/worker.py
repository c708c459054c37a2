"""One benchmark process: import dissip and warm up, print READY, then run one
workload over and over until the time budget is spent, checking each pass.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``; writes
its findings as JSON to ``--result``.  With ``--setup-only`` it exits right
after READY, which is how run.py samples set-up time.  With ``--trace 1`` it
alternates untraced and traced passes, so the tracing overhead is measured
within the same process.
"""

from __future__ import annotations

import argparse
import ctypes
import faulthandler
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import layers
import tracing

ROOT = Path(__file__).resolve().parent.parent
# A worker still running this long past --seconds prints every thread's stack
# to stderr, shortly before run.py (120 s past --seconds) kills it.
HANG_DUMP_S = 100.0


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _loaded_libraries(fragment: str) -> list[str]:
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "/" in line and fragment in line.lower()}
    return sorted(paths)


def _blas_call(lib, stem: str, restype):
    for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}", f"openblas_{stem}64_", f"openblas_{stem}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def blas_libraries() -> list[dict]:
    """Every loaded OpenBLAS, with the configuration and thread count it reports."""
    out = []
    for path in _loaded_libraries("openblas"):
        lib = ctypes.CDLL(path)
        config = _blas_call(lib, "get_config", ctypes.c_char_p)
        out.append({
            "library": Path(path).name,
            "config": config.decode() if config else None,
            "threads": _blas_call(lib, "get_num_threads", ctypes.c_int),
        })
    return out


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {"name": blas.get("name"), "version": blas.get("version")},
        "scipy_blas": {"name": scipy_blas.get("name"), "version": scipy_blas.get("version")},
        "blas_libraries": blas_libraries(),
    }


def blas_threads(facts: dict) -> int:
    """The largest thread count any loaded BLAS reports."""
    return max((lib["threads"] or 0 for lib in facts["blas_libraries"]), default=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import dissip

    src = (ROOT / "src").resolve()
    if src not in Path(dissip.__file__).resolve().parents:
        print(f"dissip imported from {dissip.__file__}, not from {src}", file=sys.stderr)
        return 3

    import workloads

    workloads.warm_up()
    workdir = ROOT / "perfbench" / "out" / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    faulthandler.dump_traceback_later(args.seconds + HANG_DUMP_S)
    result = run_passes(workload, args)
    faulthandler.cancel_dump_traceback_later()
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


def run_passes(workload, args) -> dict:
    import workloads

    ref = workloads.load_reference(workload.name, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    passes = []
    problems = []
    sites = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 1
        body_start = time.perf_counter()
        try:
            if traced:
                tracer.run_id = f"{workload.name}-seed{args.seed}-pass{index}"
                with tracing.Installed(tracer, layers.TARGETS, "dissip") as installed:
                    sites = installed.sites()
                    cpu0, t0 = _cpu_s(), time.perf_counter()
                    workload.run()
                    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
            else:
                cpu0, t0 = _cpu_s(), time.perf_counter()
                workload.run()
                wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
            outcome = workload.outcome()
        except Exception:  # a pass that raises fails all its operations; stop and report it
            problems.append(f"pass {index} raised:\n{traceback.format_exc()}")
            passes.append({"traced": traced, "wall_s": None, "cpu_s": None,
                           "attempted": 1, "failed": 1})
            break
        attempted, failed = workload.ops(outcome)
        found = workload.gate(outcome, ref)
        problems.extend(f"pass {index}: {p}" for p in found)
        passes.append({"traced": traced, "wall_s": wall, "cpu_s": cpu,
                       "attempted": attempted, "failed": failed})
        if found:
            problems.append(f"pass {index} program output:\n{getattr(workload, 'log', '')}")
            break
        body = time.perf_counter() - body_start
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start + body > args.seconds:
            break

    facts = machine_facts()
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "reference_seed": workloads.reference_seed(args.seed),
        "trace": args.trace,
        "passes": passes,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": facts,
    }
    if tracer is not None and not problems:
        untraced = [p for p in passes if not p["traced"]]
        traced_passes = [p for p in passes if p["traced"]]
        result["per_layer"] = layers.per_layer_metrics(
            tracer.spans, tracer.attrs, len(traced_passes),
            untraced_walls=[p["wall_s"] for p in untraced],
            traced_walls=[p["wall_s"] for p in traced_passes],
            untraced_cpu=[p["cpu_s"] for p in untraced],
            blas_threads=blas_threads(facts),
        )
        result["trace_sites"] = sites
        spans_path = ROOT / "perfbench" / "out" / f"spans-{workload.name}.jsonl"
        tracer.write_jsonl(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(tracer.spans)
    return result


if __name__ == "__main__":
    sys.exit(main())
