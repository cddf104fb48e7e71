"""treecast benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

The package is run from ``src/`` of the checkout holding this directory;
nothing is installed.  Each run

1. draws the workload's inputs from ``--seed`` (``workloads.py``) into a
   scratch directory under ``.perfbench/`` and removes it afterwards;
2. starts one fresh interpreter (``worker.py``) that repeats the job list
   for ``--seconds`` and checks every job's output (``checks.py``);
3. with ``--trace 0``, also times fresh interpreters from start until
   ``import treecast.cli`` returns, spread over the run (``worker.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (the median
launch), ``wall_s`` (the median pass over the job list, set-up and checks
excluded) and ``peak_rss_mb`` (the worker's peak resident memory).
``--trace 1`` reports the per-layer metrics of ``tracer.PER_LAYER``
instead, and writes the spans of its last traced pass to
``.perfbench/spans-<workload>.jsonl``.

``wall_s`` and ``setup_s`` are in reference seconds: wall time rescaled
by the host speed sampled while it ran (``hostspeed.py``), because CPU
speed on a shared host drifts by up to 2x in phases of seconds to minutes.
On a shared 2-core x86-64 host, a CPU-bound loop timed second by second
read 6.3-11.2 ms per step within 90 s.  A program that does more work
takes more reference seconds at any host speed.  The wall-clock figures
are printed with the summary and kept in the record.

The failure ratio is printed with the summary and carried by the
``attempted`` and ``failed`` fields of the last line; any failed job makes
the run exit with code 1.  Every workload process runs its BLAS and OpenMP
pools with one thread, so a timing does not depend on the scheduler.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def host_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "thread_env": THREAD_ENV,
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float, builder=None) -> dict:
    """Generate, set up and run one workload; return the worker's result."""
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    env = child_env()
    try:
        jobs, digests = workloads.generate(workload, seed, workdir, builder)
        spec = {
            "jobs": jobs,
            "seconds": seconds,
            "trace": trace,
            "spans_out": str(SCRATCH / f"spans-{workload}.jsonl") if trace else None,
        }
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), spec_path],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result.update(input_digests=digests, jobs=len(jobs))
    return result


def end_to_end(result: dict) -> dict[str, float]:
    untraced = [p["scaled_s"] for p in result["passes"] if not p["traced"]]
    return {
        "setup_s": statistics.median(s["scaled_s"] for s in result["setup_s"]),
        "wall_s": statistics.median(untraced),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(workload: str, seed: int, trace: bool, result: dict) -> dict[str, dict]:
    """Print the human summary and the record; return the metrics block."""
    walls = [(round(p["wall_s"], 3), round(p["scaled_s"], 3))
             for p in result["passes"] if not p["traced"]]
    print(f"[{workload}] seed {seed}, {result['jobs']} jobs, "
          f"{len(result['passes'])} passes, {'traced' if trace else 'untraced'}")
    if trace:
        units = dict(tracer.PER_LAYER)
        values = result["per_layer"]
    else:
        units = dict(END_TO_END)
        values = end_to_end(result)
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<44} {ratio:>14.6g} ratio "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    if not trace:
        launches = [(round(s["wall_s"], 4), round(s["scaled_s"], 4)) for s in result["setup_s"]]
        print(f"  (wall, reference) s by pass: {walls}; by set-up launch: {launches}")
    for job_id, why in result["failures"].items():
        print(f"  FAILED {job_id}: {'; '.join(why)}")
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host": host_info(),
        "input_digests": result["input_digests"],
        "passes": result["passes"],
        "bindings_patched": result.get("bindings"),
    }
    print("record: " + json.dumps(record, sort_keys=True))
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treecast" / "cli.py").is_file():
        print(f"perfbench: no treecast sources under {SRC}", file=sys.stderr)
        return 2
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        block = report(name, args.seed, bool(args.trace), result)
        attempted += result["attempted"]
        failed += result["failed"]
        if args.workload == "all":
            block = {f"{name}.{k}": v for k, v in block.items()}
        metrics.update(block)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
