"""Self-test of the benchmark on a smoke-sized job list.

Usage, from the repository root:  python3 perfbench/selftest.py

It checks that
- two traced runs of the same seed give every count metric exactly equal,
  with no failed job;
- the wrappers reach each layer through the callers' own bindings, so the
  layers the smoke jobs exercise record calls;
- a deliberately wrong pinned cost is reported as a failed job (negative
  control), and only that job fails;
- the metric names in BENCHMARK.json are the ones the benchmark prints.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7
MUST_RECORD_CALLS = [
    "koashi_imoto.ki_decompose.calls",
    "merge_split.build_merge_protocol.calls",
    "merge_split.merge_post_state.calls",
    "tensors.project_onto.calls",
    "merge_split.apply_merge_correction.calls",
    "tensors.apply_map.calls",
    "merge_split.build_split_protocol.calls",
    "merge_split.execute_split.calls",
]


def smoke(rng, inputs, wrong_pin: bool = False) -> list[dict]:
    """A few sub-second jobs that touch every layer."""
    tight = dict(workloads.FIVE_QUBIT_TIGHT)
    if wrong_pin:
        tight["v3"] += 1
    path = inputs.code("q4-line", workloads.haar_code(rng, 2, (2, 2, 2, 2)), (2, 2, 2, 2))
    jobs = workloads.tight_jobs(inputs, rng, "five_qubit-line", "five_qubit", "line:5",
                                tight, workloads.FIVE_QUBIT_SPREAD)
    jobs += workloads.spread_jobs(inputs, rng, "q4-line", path, "line:4",
                                  workloads.LINE4_QUBITS)
    jobs += workloads.search_jobs(rng, "star4", "star:4")
    return jobs


def _run(trace: bool, builder) -> dict:
    deadline = time.monotonic() + run.RUN_LIMIT_S
    return run.run_workload("smoke", SEED, 0.0, trace, deadline, builder)


def main() -> int:
    problems = []

    first, second = _run(True, smoke), _run(True, smoke)
    counts = [name for name, unit in tracer.PER_LAYER if unit != "s"]
    for name in counts:
        a, b = first["per_layer"][name], second["per_layer"][name]
        if a != b:
            problems.append(f"count {name} differs between runs: {a} vs {b}")
    for res in (first, second):
        if res["failed"]:
            problems.append(f"smoke run failed jobs: {res['failures']}")
    for name in MUST_RECORD_CALLS:
        if not first["per_layer"][name] > 0:
            problems.append(f"traced run recorded no calls for {name}")

    control = _run(False, lambda rng, inputs: smoke(rng, inputs, wrong_pin=True))
    bad = set(control["failures"])
    if bad != {"five_qubit-line:run-concentrate"}:
        problems.append(f"wrong pinned cost: expected one failed job, got {control['failures']}")
    elif not any("pinned" in why for why in control["failures"]["five_qubit-line:run-concentrate"]):
        problems.append("wrong pinned cost failed for another reason")

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if [m["name"] for m in bench["per_layer"]] != [n for n, _ in tracer.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer names differ from tracer.PER_LAYER")
    if {m["name"] for m in bench["end_to_end"]} != {n for n, _ in run.END_TO_END}:
        problems.append("BENCHMARK.json end_to_end names differ from run.END_TO_END")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for p in problems:
        print("FAIL:", p)
    print(f"selftest: {len(counts)} counts compared, "
          f"{control['failed']} of {control['attempted']} control jobs failed as planted, "
          f"{'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
