"""One workload run inside a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC.json`` with ``PYTHONPATH`` naming
the package sources.  SPEC holds ``jobs`` (from ``workloads.py``),
``seconds``, ``trace`` and ``spans_out``.

Jobs run back to back through ``treecast.cli.main(argv)`` with
``--format structured``: a closed loop with one client, since treecast is
a batch tool.  The whole job list is one pass; passes repeat until
``seconds`` have gone by.  A pass's time covers the jobs only; parsing and
checking their outputs happens after it.  Each pass is timed twice: in wall
seconds, and in reference seconds, scaled by the host speed sampled during
the pass (``hostspeed.py``).

Without ``trace``, set-up is timed as well: fresh interpreters are timed
from start until ``import treecast.cli`` returns, a few before the first
pass and one after every pass, so the launches spread over the whole run.
The launched interpreter runs probe units after its import, and they scale
the launch the same way.

With ``trace`` set, untraced and traced passes alternate, and the traced
pass with the fewest reference seconds yields the per-layer metrics.  Every pass must print the same bytes
for every job as the first pass, traced or not.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import checks
import hostspeed
from tracer import PER_LAYER, Tracer

import treecast.cli

# The launched interpreter stamps the time once treecast.cli is imported,
# then runs host-speed probes (argv[1] is this directory) and prints both.
SETUP_PROBE = (
    "import time, treecast.cli; t = time.monotonic(); import sys; "
    "sys.path.insert(0, sys.argv[1]); import hostspeed; "
    "print(t, *hostspeed.units(int(sys.argv[2])))"
)
SETUP_LAUNCHES_FIRST = 3  # before the first pass; then one after each pass
SETUP_PROBE_UNITS = 16  # host-speed probes after each launch; the first 4 warm up


def measure_setup(launches: int) -> list[dict]:
    """Seconds from spawning an interpreter until ``import treecast.cli`` returns.

    Both ends read CLOCK_MONOTONIC, which every process on the host shares.
    The interpreter inherits this process's environment and directory.
    Each launch is also given in reference seconds, scaled by the probes
    the launched interpreter runs right after its import, at the host speed
    the launch saw.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    samples = []
    for _ in range(launches):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, here, str(SETUP_PROBE_UNITS)],
                              capture_output=True, text=True, timeout=60, check=True)
        stamp, *probes = map(float, done.stdout.split())
        wall = stamp - t0
        samples.append({"wall_s": wall, "scaled_s": hostspeed.scaled(wall, probes[4:])})
    return samples


def run_pass(jobs: list[dict]) -> tuple[hostspeed.SpeedClock, list[tuple[int | str, str]]]:
    """Run the job list once; return its clock and (exit, stdout) per job."""
    outputs = []
    with hostspeed.SpeedClock() as clock:
        for job in jobs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = treecast.cli.main(job["argv"] + ["--format", "structured"])
                except SystemExit as exc:  # argparse rejects a command line
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    code = "uncaught " + traceback.format_exc(limit=1).strip().splitlines()[-1]
            outputs.append((code, buf.getvalue()))
    return clock, outputs


def _parse(text: str) -> dict | None:
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def judge(jobs, outputs, reference) -> dict[str, list[str]]:
    """Failures of one pass, keyed by job id; fills ``reference`` on pass 1."""
    docs = [_parse(text) for _, text in outputs]
    failures: dict[str, list[str]] = {}
    for job, (code, text), doc in zip(jobs, outputs, docs):
        try:
            why = checks.check_job(job, code, doc)
        except (KeyError, TypeError, ValueError) as exc:
            why = [f"malformed report: {exc!r}"]
        digest = hashlib.sha256(text.encode()).hexdigest()
        if reference.setdefault(job["id"], digest) != digest:
            why.append("report bytes differ from the first pass")
        if why:
            failures[job["id"]] = why
    try:
        group_failures = checks.check_groups(jobs, docs)
    except (KeyError, TypeError, ValueError) as exc:
        group_failures = {"groups": [f"malformed report: {exc!r}"]}
    for job_id, why in group_failures.items():
        failures.setdefault(job_id, []).extend(why)
    return failures


def trace_bytes(jobs) -> int:
    return sum(os.path.getsize(j["trace_out"]) for j in jobs if "trace_out" in j
               and os.path.exists(j["trace_out"]))


def main(spec_path: str) -> dict:
    with open(spec_path) as fh:
        spec = json.load(fh)
    jobs, seconds, traced = spec["jobs"], spec["seconds"], bool(spec["trace"])
    tracer = Tracer() if traced else None
    reference: dict[str, str] = {}
    passes, failures = [], {}
    layer_passes: list[dict] = []
    bindings = {}
    attempted = failed = 0
    rounds = (False, True) if traced else (False,)
    begin = time.perf_counter()
    setup = [] if traced else measure_setup(SETUP_LAUNCHES_FIRST)
    # Start another round only if it would end nearer to ``seconds`` than
    # stopping now, so a run measures about ``seconds`` whatever the pass.
    while not passes or (
        time.perf_counter() - begin
        + 0.5 * statistics.median(p["wall_s"] for p in passes) * len(rounds)
        < seconds
    ):
        for with_trace in rounds:
            if with_trace:
                tracer.reset()
                bindings = tracer.install()
                try:
                    clock, outputs = run_pass(jobs)
                finally:
                    tracer.uninstall()
                layer_passes.append(tracer.per_layer(trace_bytes(jobs)))
            else:
                clock, outputs = run_pass(jobs)
                if not traced:
                    setup += measure_setup(1)
            passes.append({"wall_s": clock.wall_s, "scaled_s": clock.scaled_s,
                           "probes": clock.probes, "traced": with_trace})
            bad = judge(jobs, outputs, reference)
            attempted += len(jobs)
            failed += len(bad)
            for job_id, why in bad.items():
                failures.setdefault(job_id, []).extend(why)
    out = {
        "passes": passes,
        "setup_s": setup,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        out["per_layer"], unsteady = summarize_layers(layer_passes, passes)
        out["bindings"] = bindings
        if unsteady:
            failures["per-layer counts"] = unsteady
            out["failed"] += 1
        tracer.dump(spec["spans_out"])
    return out


def summarize_layers(layer_passes, passes) -> tuple[dict[str, float], list[str]]:
    """The fastest traced pass's layers; every count must repeat exactly.

    Passes are compared in reference seconds, so the fastest is the one
    that did the least work, not the one the host ran fastest.
    """
    traced = [p["scaled_s"] for p in passes if p["traced"]]
    untraced = [p["scaled_s"] for p in passes if not p["traced"]]
    out = dict(layer_passes[traced.index(min(traced))])
    unsteady = [
        f"{name} changed between traced passes: {[lp[name] for lp in layer_passes]}"
        for name, unit in PER_LAYER
        if unit != "s" and name in out and len({lp[name] for lp in layer_passes}) != 1
    ]
    out["tracing.overhead_s"] = min(traced) - min(untraced)
    return out, unsteady


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
