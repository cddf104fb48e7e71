"""Seeded inputs, job lists and pinned expectations for the workloads.

Every random input is drawn here, from the benchmark's own NumPy
generator, and written as a code JSON file, so the program under test
receives only files and command lines and a change to the package cannot
change its inputs.  Nothing in this module imports ``treecast``.

A job is a plain dict: ``argv`` for ``treecast.cli.main`` (the worker adds
``--format structured``), the ``kind`` of output it yields, and ``expect``,
the values the checker compares that output with.  Costs are pinned as
``{child: K}`` per edge, never as protocol bytes, because protocol bytes
may change on purpose while costs may not.  Jobs sharing a ``group`` run
on one input, so their outputs can be checked against each other.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zlib

import numpy as np

# Spreading costs of a Haar-random code: with probability 1 a cut's Schmidt
# rank is the dimension of its smaller side (the reference counts with v1).
LINE4_QUBITS = {"v2": 4, "v3": 4, "v4": 2}
LINE5_QUTRITS_D2 = {"v2": 6, "v3": 18, "v4": 9, "v5": 3}
STAR5_QUTRITS_D2 = {"v2": 3, "v3": 3, "v4": 3, "v5": 3}
LINE7_QUBITS_D4 = {"v2": 8, "v3": 16, "v4": 16, "v5": 8, "v6": 4, "v7": 2}
STAR6_QUBITS_D4 = {"v2": 2, "v3": 2, "v4": 2, "v5": 2, "v6": 2}

FIVE_QUBIT_SPREAD = {"v2": 4, "v3": 8, "v4": 4, "v5": 2}
FIVE_QUBIT_TIGHT = {"v2": 1, "v3": 1, "v4": 1, "v5": 1}
STAR_QUBITS_SPREAD = {"v2": 2, "v3": 2, "v4": 2, "v5": 2}

# --labeling search, pinned per (code, tree): per-edge costs of the winning
# order, its total in ebits, the number of orders tried, and the spreading
# costs the concentrating ones may not exceed.
SEARCH_PINS = {
    ("five_qubit", "star:5"): (FIVE_QUBIT_TIGHT, 0, 24, STAR_QUBITS_SPREAD),
    ("ghz:5", "star:5"): (FIVE_QUBIT_TIGHT, 0, 24, STAR_QUBITS_SPREAD),
    ("star4", "star:4"): ({"v2": 2, "v3": 1, "v4": 1}, 1, 6, {"v2": 2, "v3": 2, "v4": 2}),
    ("five_qubit", "v1-v2,v1-v3,v3-v4,v3-v5"): (
        FIVE_QUBIT_TIGHT, 0, 8, {"v2": 2, "v3": 8, "v4": 2, "v5": 2},
    ),
}

FALLBACK_SAMPLE = 96


def _code_document(matrix: np.ndarray, dims, name: str) -> dict:
    """Dense ``[row, col, re, im]`` entries; rows run over v1 slowest."""
    entries = [
        [row, col, float(matrix[row, col].real), float(matrix[row, col].imag)]
        for row in range(matrix.shape[0])
        for col in range(matrix.shape[1])
        if matrix[row, col] != 0
    ]
    return {
        "name": name,
        "D": int(matrix.shape[1]),
        "parties": [{"name": f"v{i + 1}", "dim": int(d)} for i, d in enumerate(dims)],
        "entries": entries,
    }


def haar_code(rng: np.random.Generator, logical_dim: int, dims) -> np.ndarray:
    """Haar-random isometry C^D -> (x) C^d_i, from the QR of a Gaussian."""
    total = math.prod(dims)
    g = rng.standard_normal((total, logical_dim)) + 1j * rng.standard_normal(
        (total, logical_dim)
    )
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class _Inputs:
    """Writes generated code files and remembers their digests."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.digests: dict[str, str] = {}

    def code(self, name: str, matrix: np.ndarray, dims) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        data = json.dumps(_code_document(matrix, dims, name), sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(data)
        self.digests[f"{name}.json"] = hashlib.sha256(data).hexdigest()
        return path

    def trace(self, name: str) -> str:
        return os.path.join(self.workdir, f"{name}.trace.json")


def _cli_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(2**31)))


def tight_jobs(inputs, rng, label, code, tree, conc, spread) -> list[dict]:
    """run-concentrate with a trace, verify-trace on it, and cost-spread."""
    trace = inputs.trace(label)
    return [
        {
            "id": f"{label}:run-concentrate",
            "kind": "run-concentrate",
            "group": label,
            "argv": ["run-concentrate", "--code", code, "--tree", tree,
                     "--seed", _cli_seed(rng), "--trace-out", trace],
            "expect": {"costs": conc, "exhaustive": True, "tight": True},
            "trace_out": trace,
        },
        {
            "id": f"{label}:verify-trace",
            "kind": "verify-trace",
            "group": label,
            "argv": ["verify-trace", trace],
            "expect": {},
        },
        {
            "id": f"{label}:cost-spread",
            "kind": "cost-spread",
            "group": label,
            "argv": ["cost-spread", "--code", code, "--tree", tree],
            "expect": {"costs": spread},
        },
    ]


def conc_fallback(rng, inputs) -> list[dict]:
    """Sampled fallback run, then one small exhaustive tight run with a trace.

    The tight run (0.2 s of about 4 s) keeps the exhaustive-coverage and
    concentrate-trace checks in the benchmark.
    """
    fallback = {
        "id": "five_qubit-line:fallback",
        "kind": "run-concentrate",
        "argv": ["run-concentrate", "--code", "five_qubit", "--tree", "line:5",
                 "--mode", "fallback", "--branches", f"sample:{FALLBACK_SAMPLE}",
                 "--seed", _cli_seed(rng)],
        "expect": {"costs": FIVE_QUBIT_SPREAD, "exhaustive": False, "tight": False},
    }
    return [fallback] + tight_jobs(inputs, rng, "five_qubit-line", "five_qubit",
                                   "line:5", FIVE_QUBIT_TIGHT, FIVE_QUBIT_SPREAD)


def search_jobs(rng, code: str, tree: str) -> list[dict]:
    """cost-concentrate --labeling search, and cost-spread to compare with."""
    costs, total, candidates, spread = SEARCH_PINS[(code, tree)]
    group = f"{code}@{tree}"
    return [
        {
            "id": f"{group}:search",
            "kind": "cost-concentrate",
            "group": group,
            "argv": ["cost-concentrate", "--code", code, "--tree", tree,
                     "--labeling", "search", "--seed", _cli_seed(rng)],
            "expect": {"costs": costs, "best_total_log2": total,
                       "candidates": candidates, "tight": True},
        },
        {
            "id": f"{group}:cost-spread",
            "kind": "cost-spread",
            "group": group,
            "argv": ["cost-spread", "--code", code, "--tree", tree],
            "expect": {"costs": spread},
        },
    ]


def label_search(rng, inputs) -> list[dict]:
    return [job for code, tree in SEARCH_PINS for job in search_jobs(rng, code, tree)]


def spread_jobs(inputs, rng, label, code, tree, costs) -> list[dict]:
    trace = inputs.trace(label)
    return [
        {
            "id": f"{label}:run-spread",
            "kind": "run-spread",
            "argv": ["run-spread", "--code", code, "--tree", tree,
                     "--seed", _cli_seed(rng), "--trace-out", trace],
            "expect": {"costs": costs},
            "trace_out": trace,
        },
        {
            "id": f"{label}:verify-trace",
            "kind": "verify-trace",
            "argv": ["verify-trace", trace],
            "expect": {},
        },
    ]


def spread_trace(rng, inputs) -> list[dict]:
    shapes = [
        ("qt5-line", 2, (3,) * 5, "line:5", LINE5_QUTRITS_D2),
        ("q7-line", 4, (2,) * 7, "line:7", LINE7_QUBITS_D4),
        ("qt5-star", 2, (3,) * 5, "star:5", STAR5_QUTRITS_D2),
        ("q6-star", 4, (2,) * 6, "star:6", STAR6_QUBITS_D4),
    ]
    jobs = []
    for label, d, dims, tree, costs in shapes:
        path = inputs.code(label, haar_code(rng, d, dims), dims)
        jobs += spread_jobs(inputs, rng, label, path, tree, costs)
    return jobs


WORKLOADS = {
    "conc-fallback": conc_fallback,
    "label-search": label_search,
    "spread-trace": spread_trace,
}


def generate(workload: str, seed: int, workdir: str, builder=None):
    """Write the inputs of one workload run; return (jobs, input digests).

    Each workload draws from its own stream of ``seed``, so adding a job to
    one workload leaves every other workload's inputs unchanged.
    """
    salt = zlib.crc32(workload.encode())
    rng = np.random.default_rng([seed, salt])
    inputs = _Inputs(workdir)
    jobs = (builder or WORKLOADS[workload])(rng, inputs)
    return jobs, inputs.digests
