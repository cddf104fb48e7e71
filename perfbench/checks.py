"""The correctness gate: every job's output against its pinned expectation.

A job fails on a non-zero exit code, a failed verdict, or any mismatch
against the values pinned in ``workloads.py``.  Checks run outside the
timed region.
"""

from __future__ import annotations

FIDELITY_FLOOR = 1.0 - 1e-9
COVERAGE_TOL = 1e-9


def _costs(report: dict) -> dict[str, int]:
    return {e["child"]: e["k"] for e in report["edges"]}


def check_job(job: dict, exit_code: int, doc: dict | None) -> list[str]:
    """Return the reasons this job's output is wrong (empty when correct)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if doc is None:
        return ["no structured report"]
    expect = job["expect"]
    kind = job["kind"]
    why = []
    if doc.get("task") != kind:
        return [f"report is for task {doc.get('task')!r}"]
    if "costs" in expect and _costs(doc["cost_report"]) != expect["costs"]:
        why.append(f"costs {_costs(doc['cost_report'])} != pinned {expect['costs']}")
    if kind in ("run-concentrate", "run-spread") and not doc["verification"]["passed"]:
        why.append("verification.passed is false")
    if kind == "run-concentrate":
        br = doc["branches"]
        if not br["min_fidelity"] >= FIDELITY_FLOOR:
            why.append(f"min_fidelity {br['min_fidelity']!r} < 1-1e-9")
        if expect["exhaustive"] and not (
            br["explored_all"] and abs(br["coverage"] - 1.0) <= COVERAGE_TOL
        ):
            why.append(f"exhaustive run covered {br['coverage']!r}")
    if kind == "run-spread":
        fid = doc["verification"]["branch_fidelity"]
        if not fid >= FIDELITY_FLOOR:
            why.append(f"branch_fidelity {fid!r} < 1-1e-9")
    if kind == "verify-trace":
        v = doc["verdict"]
        for key in ("passed", "hash_match", "cost_consistent"):
            if v[key] is not True:
                why.append(f"verify-trace {key} is {v[key]!r}")
    if "best_total_log2" in expect:
        search = doc.get("labeling_search", {})
        got = (search.get("best_total_log2"), search.get("candidates"))
        want = (expect["best_total_log2"], expect["candidates"])
        if got != want:
            why.append(f"search (best_total_log2, candidates) {got} != pinned {want}")
    return why


def check_groups(jobs: list[dict], docs: list[dict | None]) -> dict[str, list[str]]:
    """In tight mode, concentrating must cost at most spreading on every edge."""
    spread, conc = {}, {}
    for job, doc in zip(jobs, docs):
        if doc is None or "group" not in job or "cost_report" not in doc:
            continue
        if job["kind"] == "cost-spread":
            spread[job["group"]] = _costs(doc["cost_report"])
        elif job["expect"].get("tight"):
            conc[job["group"]] = (job["id"], _costs(doc["cost_report"]))
    out: dict[str, list[str]] = {}
    for group, (job_id, c) in conc.items():
        s = spread.get(group)
        if s is None:
            out.setdefault(job_id, []).append("no spreading costs to compare with")
            continue
        worse = {v: (c[v], s.get(v)) for v in c if s.get(v) is None or c[v] > s[v]}
        if worse:
            out.setdefault(job_id, []).append(
                f"concentrating exceeds spreading on edges {worse}"
            )
    return out
