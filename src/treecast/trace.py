"""Self-contained LOCC protocol traces.

A trace is a JSON document recording one fixed-outcome run of a
spreading or concentrating protocol: the initial state, an ordered
event list (local isometries, measurements, broadcasts, resource
consumption, and the composed root correction), an operator side
table, the per-edge cost report, and a hash of the final state.  The
side table holds each operator densely, or as ``{"bell": K}`` when it is
byte for byte the K²×K² Bell basis a split measures in, which replay
reads from the split protocols' own per-K table (format
``treecast.trace/2``; dense-only ``treecast.trace/1`` documents are
still read).
Replaying the stored events against the stored initial state re-derives
every branch probability and the final state with no other context, so
a trace can be verified long after the run that produced it.

Events come from the protocols themselves (``split_events``,
``merge_events``) and run through the one interpreter,
``tensors.apply_event``, on one row, both while a trace is built and
when ``replay_trace`` re-executes it, which makes the recorded hash
reproducible by construction; an independent fidelity gate against the
ideal target state keeps the builders honest.  The reader refuses an
outcome that is not a JSON integer, a probability that is not a JSON
number, and a broadcast that does not repeat its measurement's outcome.
This module only serializes, assembles and replays.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .codes import (
    REFERENCE_ID,
    IsometryCode,
    code_to_document,
    encoded_pair,
    reference_pair,
)
from .config import MAX_BELL_ENTRIES, RANK_RTOL, VERIFY_TOL
from .errors import InputError, SchemaError, ShapeMismatch, VerificationFailed
from .merge_split import (
    _bell_basis,
    isometry_event,
    merge_events,
    split_events,
)
from .network import RootedTree, tree_to_document
from .protocols import (
    ConcentrateResult,
    SpreadResult,
    _replay_root_corrections,
)
from .tensors import (
    PureState,
    Register,
    apply_event,
    max_entangled_pair,
    overlap,
    permute_registers,
)

TRACE_FORMAT = "treecast.trace/2"
# dense operators only; still read and verified
TRACE_FORMAT_V1 = "treecast.trace/1"
HASH_DECIMALS = 12


# -- register and operator plumbing -------------------------------------------


def _regspec(reg: Register) -> dict:
    return {"id": reg.id, "dim": reg.dim, "owner": reg.owner}


def _size(value, what: str) -> int:
    """A recorded size: a JSON integer ≥ 1, never a bool, string or float."""
    if type(value) is not int or value < 1:
        raise SchemaError(f"{what} must be an integer >= 1, got {value!r}")
    return value


def _reg_from(spec: dict) -> Register:
    dim = _size(spec["dim"], f"register {spec['id']!r} dim")
    return Register(spec["id"], dim, spec["owner"])


def _bell_k(rows: int, cols: int) -> int | None:
    """K when a rows × cols operator could be the Bell basis named ``{"bell": K}``.

    Only K ≥ 2 is named: the K = 1 basis is the 1×1 identity that also
    relabels trivial blocks, and naming it saves nothing.  Only bases up
    to ``MAX_BELL_ENTRIES``, the bound the reader enforces, are named, so
    the writer never emits an operator the reader refuses.
    """
    k = math.isqrt(rows)
    if rows == cols == k * k and k >= 2 and rows * cols <= MAX_BELL_ENTRIES:
        return k
    return None


class _OpTable:
    """Deduplicating matrix store; matrices are referenced by name."""

    def __init__(self):
        self._by_key: dict[tuple, str] = {}
        self._ops: dict[str, np.ndarray] = {}

    def add(self, matrix: np.ndarray) -> str:
        mat = np.ascontiguousarray(matrix, dtype=complex)
        key = (mat.shape, mat.tobytes())
        ref = self._by_key.get(key)
        if ref is None:
            ref = f"op{len(self._ops)}"
            self._by_key[key] = ref
            self._ops[ref] = mat
        return ref

    def to_doc(self) -> dict:
        """Each operator as ``{"bell": K}`` when byte-identical to that basis, else dense."""
        out = {}
        for ref, mat in self._ops.items():
            k = _bell_k(*mat.shape)
            if k is not None and mat.tobytes() == _bell_basis(k).tobytes():
                out[ref] = {"bell": k}
            else:
                out[ref] = {"shape": list(mat.shape), "data": _pairs(mat)}
        return out


def _pairs(values: np.ndarray) -> list[list[float]]:
    """The ``[re, im]`` float pairs of a contiguous complex array, in memory order."""
    return values.reshape(-1).view(np.float64).reshape(-1, 2).tolist()


def _complex_array(data, what: str) -> np.ndarray:
    """Parse ``[[re, im], …]``: every entry a pair of JSON numbers, nothing else.

    ``np.array`` would turn numeric strings into floats and ``null`` into
    NaN under a float dtype, so the inferred dtype is checked first.
    """
    arr = np.array(data)
    if arr.dtype.kind not in "biuf" or arr.ndim != 2 or arr.shape[1] != 2:
        raise SchemaError(f"{what}: entries must be [re, im] pairs of numbers")
    return np.ascontiguousarray(arr, dtype=np.float64).view(complex).reshape(-1)


def _ops_from_doc(doc: dict, *, named: bool) -> dict[str, np.ndarray]:
    """Operators by name; ``{"bell": K}`` entries are read only when ``named`` (format /2)."""
    ops = {}
    for ref, item in doc.items():
        if "bell" in item:
            k = item["bell"]
            if not named:
                raise SchemaError(f"operator {ref!r}: {TRACE_FORMAT_V1} has no bell entries")
            if type(k) is not int or k < 1 or k**4 > MAX_BELL_ENTRIES:
                raise SchemaError(
                    f"operator {ref!r}: bell must be an integer K >= 1 with "
                    f"K^4 <= {MAX_BELL_ENTRIES}, got {k!r}"
                )
            ops[ref] = _bell_basis(k)
            continue
        rows, cols = (_size(x, f"operator {ref!r} shape") for x in item["shape"])
        data = item["data"]
        if len(data) != rows * cols:
            raise SchemaError(f"operator {ref!r} data length does not match shape")
        ops[ref] = _complex_array(data, f"operator {ref!r}").reshape(rows, cols)
    return ops


def _state_doc(state: PureState) -> dict:
    return {
        "registers": [_regspec(r) for r in state.registers],
        "amplitudes": _pairs(state.amplitudes),
    }


def _state_from_doc(doc: dict) -> PureState:
    regs = tuple(_reg_from(s) for s in doc["registers"])
    return PureState(regs, _complex_array(doc["amplitudes"], "state amplitudes"))


def state_hash(state: PureState) -> str:
    """Order-independent digest of a state, rounded to spare float dust."""
    ordered = permute_registers(state, sorted(state.ids))
    # adding 0.0 folds -0.0 into 0.0, so the sign of a rounded zero is not hashed
    amps = np.round(ordered.amplitudes, HASH_DECIMALS) + 0.0
    payload = {
        "registers": [[r.id, r.dim] for r in ordered.registers],
        "amplitudes": _pairs(amps),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


# -- events ----------------------------------------------------------------------


def _convert(event: dict, op, reg) -> dict:
    """Map an event's operators through ``op`` and its registers through ``reg``."""
    out = dict(event)
    for key in event.keys() & {"matrix", "basis"}:
        out[key] = op(event[key])
    for key in event.keys() & {"a0", "b0"}:
        out[key] = reg(event[key])
    for key in event.keys() & {"in", "out", "targets"}:
        out[key] = [reg(r) for r in event[key]]
    return out


def _advance(state: PureState, event: dict) -> tuple[PureState, float | None]:
    """One interpreter step on one row; the state is renormalized after a measurement."""
    amps, regs, probs = apply_event(state.amplitudes[None], state.registers, event)
    state = PureState(regs, amps[0])
    return (state, None) if probs is None else (state.normalized(), float(probs[0]))


class _Recorder:
    """Runs events through the interpreter and keeps their serialized form."""

    def __init__(self, state: PureState):
        self.initial = _state_doc(state)
        self.state = state
        self.events: list[dict] = []
        self.ops = _OpTable()

    def emit(self, *events: dict) -> None:
        for event in events:
            self.state, prob = _advance(self.state, event)
            doc = _convert(event, self.ops.add, _regspec)
            if prob is not None:
                doc["probability"] = prob
            self.events.append(doc)


# -- builders -------------------------------------------------------------------


def _fixed_outcomes(outcomes, count: int, per: str) -> tuple[int, ...]:
    outcomes = (0,) * count if outcomes is None else tuple(int(m) for m in outcomes)
    if len(outcomes) != count:
        raise ShapeMismatch(f"need {count} outcomes (one per {per}), got {len(outcomes)}")
    return outcomes


def _assemble(
    task: str,
    code: IsometryCode,
    tree: RootedTree,
    result,
    rec: _Recorder,
    target: PureState,
    *,
    mode: str,
    outcomes: tuple[int, ...],
    code_name: str | None,
    seed: int,
    tolerances: dict | None,
) -> dict:
    """The trace document, once the target-fidelity gate passes."""
    fid = abs(overlap(rec.state.normalized(), target))
    if fid < 1.0 - VERIFY_TOL:
        raise VerificationFailed(
            f"trace construction drifted from the target state "
            f"(fidelity {fid:.12f})"
        )
    tols = {"rank_rtol": RANK_RTOL, "verify_tol": VERIFY_TOL} | (tolerances or {})
    report = result.cost_report
    return {
        "format": TRACE_FORMAT,
        "metadata": {
            "task": task,
            "code": code_to_document(code, name=code_name),
            "code_name": code_name,
            "tree": tree_to_document(tree),
            "labeling": list(result.labeling),
            "mode": mode,
            "seed": int(seed),
            "tolerances": {k: float(v) for k, v in sorted(tols.items())},
            "outcomes": list(outcomes),
        },
        "initial_state": rec.initial,
        "events": rec.events,
        "operators": rec.ops.to_doc(),
        "cost_report": {
            "direction": report.direction,
            "edges": [
                {"parent": e.parent, "child": e.child, "k": e.k, "log2": e.log2}
                for e in report.edges
            ],
            "total_log2": report.total_log2,
        },
        "final_state": {
            "registers": [
                _regspec(r) for r in sorted(rec.state.registers, key=lambda r: r.id)
            ],
            "fidelity": fid,
            "hash": state_hash(rec.state),
        },
    }


def spread_trace(
    code: IsometryCode,
    tree: RootedTree,
    result: SpreadResult,
    *,
    outcomes=None,
    code_name: str | None = None,
    seed: int = 0,
    tolerances: dict | None = None,
) -> dict:
    """Trace one fixed-outcome spreading run (default: all outcomes 0).

    Events: the encoder isometry at the root, then each edge's split
    events (:func:`~treecast.merge_split.split_events`) in execution
    order — the sender's compression, resource consumption, the
    Bell-basis measurement and broadcast, and the receiver's correction
    and decompression.
    """
    outcomes = _fixed_outcomes(outcomes, len(result.steps), "edge")
    root = result.labeling[0]
    logical = Register("L", code.logical_dim, root)
    ref = Register(REFERENCE_ID, code.logical_dim, "reference")
    rec = _Recorder(max_entangled_pair(ref, logical))
    phys_at_root = [Register(p, d, root) for p, d in zip(code.parties, code.physical_dims)]
    rec.emit(isometry_event(root, code.matrix, [logical], phys_at_root))
    for step, m in zip(result.steps, outcomes):
        proto = step.protocol
        if not 0 <= m < proto.k**2:
            raise ShapeMismatch(
                f"edge ({step.parent}, {step.child}) has {proto.k ** 2} outcomes, "
                f"got {m}"
            )
        prefix, tail = split_events(proto, rec.state.registers, m)
        rec.emit(*prefix, *tail)
    return _assemble(
        "spread",
        code,
        tree,
        result,
        rec,
        encoded_pair(code),
        mode="exact",
        outcomes=outcomes,
        code_name=code_name,
        seed=seed,
        tolerances=tolerances,
    )


def concentrate_trace(
    code: IsometryCode,
    tree: RootedTree,
    result: ConcentrateResult,
    *,
    outcomes=None,
    code_name: str | None = None,
    seed: int = 0,
    tolerances: dict | None = None,
) -> dict:
    """Trace one branch of a concentrating run (default: all outcomes 0).

    Events: per stage, descending, the merge events
    (:func:`~treecast.merge_split.merge_events`) — resource consumption
    on the stage edge, the merging vertex's measurement, and its
    broadcast — then the single composed correction isometry at the
    root, which also inverts the encoding.
    """
    labeling = result.labeling
    n = len(labeling)
    outcomes = _fixed_outcomes(outcomes, n - 1, "stage")
    rec = _Recorder(encoded_pair(code))
    for j in range(n, 1, -1):
        prefix = outcomes[: n - j]
        step = result.steps.get(j, {}).get(prefix)
        if step is None:
            raise InputError(
                f"branch {list(outcomes)} was not recorded in this run "
                f"(stage {j} prefix {list(prefix)})"
            )
        proto = step.protocol
        m = outcomes[n - j]
        if not 0 <= m < len(proto.probs):
            raise ShapeMismatch(f"stage {j} has {len(proto.probs)} outcomes, got {m}")
        rec.emit(*merge_events(proto, m))
    # compose the root correction in one replay: row i holds basis vector i
    # of the rest registers, so it comes out as column i of the composed map
    rest = tuple(r for r in rec.state.registers if r.id != REFERENCE_ID)
    dim = math.prod(r.dim for r in rest)
    pushed, regs = _replay_root_corrections(
        code, labeling, result.steps, [outcomes] * dim, np.eye(dim, dtype=complex), rest
    )
    if [r.id for r in regs] != ["L"]:
        raise VerificationFailed(
            "root correction did not close onto the logical register"
        )
    rec.emit(isometry_event(labeling[0], pushed.T, rest, regs, kind="root-correction"))
    return _assemble(
        "concentrate",
        code,
        tree,
        result,
        rec,
        reference_pair(code.logical_dim),
        mode=result.mode,
        outcomes=outcomes,
        code_name=code_name,
        seed=seed,
        tolerances=tolerances,
    )


# -- replay and verification -----------------------------------------------------


def _check_sections(doc) -> None:
    if not isinstance(doc, dict):
        raise SchemaError("trace document must be a JSON object")
    if doc.get("format") not in (TRACE_FORMAT, TRACE_FORMAT_V1):
        raise SchemaError(f"trace format must be {TRACE_FORMAT!r} or {TRACE_FORMAT_V1!r}")
    missing = {
        "metadata",
        "initial_state",
        "events",
        "operators",
        "cost_report",
        "final_state",
    } - set(doc)
    if missing:
        raise SchemaError(f"trace document is missing sections {sorted(missing)}")
    if not isinstance(doc["events"], list):
        raise SchemaError("trace events must be a JSON list")


def _section(doc: dict, name: str, parse):
    """``parse(doc[name])``; a malformed section raises SchemaError."""
    try:
        return parse(doc[name])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(
            f"malformed trace section {name!r}: {type(exc).__name__}: {exc}"
        ) from exc


def _recorded_costs(report: dict) -> tuple[list[tuple[str, str, int]], float]:
    edges = sorted((e["parent"], e["child"], _size(e["k"], "edge k")) for e in report["edges"])
    return edges, float(report["total_log2"])


def _announced(ev: dict, pending: int | None) -> int | None:
    """The measured outcome awaiting its broadcast once ``ev`` is read.

    SchemaError unless an outcome is a JSON integer (never a bool), a
    probability a JSON number, and a broadcast repeats its measurement's outcome.
    """
    kind, outcome = ev.get("type"), ev.get("outcome")
    if kind not in ("measurement", "broadcast"):
        return pending
    if type(outcome) is not int or kind == "measurement" and type(ev["probability"]) not in (int, float):
        raise SchemaError(f"{kind}: an outcome must be an integer and a probability a number")
    if kind == "broadcast" and outcome != pending:
        raise SchemaError(f"a broadcast announces {outcome}, but the measurement gave {pending}")
    return outcome if kind == "measurement" else None


def replay_trace(doc: dict) -> dict:
    """Re-execute a trace's fixed outcomes from its stored initial state."""
    _check_sections(doc)
    named = doc["format"] == TRACE_FORMAT
    ops = _section(doc, "operators", lambda section: _ops_from_doc(section, named=named))
    state = _section(doc, "initial_state", _state_from_doc)
    recorded, recorded_total = _section(doc, "cost_report", _recorded_costs)
    recorded_hash = _section(doc, "final_state", lambda section: section["hash"])
    max_pdev = 0.0
    consumed: list[tuple[str, str, int]] = []
    pending = None  # the outcome of the last measurement, until its broadcast
    for i, ev in enumerate(doc["events"]):
        try:
            state, prob = _advance(state, _convert(ev, ops.__getitem__, _reg_from))
            pending = _announced(ev, pending)
            if prob is not None:
                max_pdev = max(max_pdev, abs(prob - ev["probability"]))
            if ev.get("type") == "resource-consumed":
                consumed.append((ev["edge"][0], ev["edge"][1], _size(ev["k"], "resource k")))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(
                f"malformed trace event {i}: {type(exc).__name__}: {exc}"
            ) from exc
    digest = state_hash(state)
    total = float(sum(math.log2(k) for _, _, k in consumed))
    cost_consistent = sorted(consumed) == recorded and abs(total - recorded_total) <= 1e-9
    return {
        "final_state": state,
        "hash": digest,
        "recorded_hash": recorded_hash,
        "hash_match": digest == recorded_hash,
        "max_probability_deviation": max_pdev,
        "cost_consistent": cost_consistent,
        "resource_total_log2": total,
        "events_replayed": len(doc["events"]),
    }


def verify_trace(doc: dict, *, tol: float = VERIFY_TOL) -> dict:
    """Replay a trace and judge it: hash, probabilities, cost consistency."""
    replay = replay_trace(doc)
    passed = (
        replay["hash_match"]
        and replay["cost_consistent"]
        and replay["max_probability_deviation"] <= tol
    )
    return {
        "passed": passed,
        "hash_match": replay["hash_match"],
        "cost_consistent": replay["cost_consistent"],
        "max_probability_deviation": replay["max_probability_deviation"],
        "resource_total_log2": replay["resource_total_log2"],
        "events_replayed": replay["events_replayed"],
        "recorded_hash": replay["recorded_hash"],
        "replayed_hash": replay["hash"],
    }


# -- serialization ----------------------------------------------------------------


def trace_json(doc: dict) -> str:
    """Canonical byte-deterministic serialization of a trace document."""
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def save_trace(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(trace_json(doc))
        fh.write("\n")


def load_trace(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read trace file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bad JSON in trace file {path!r}: {exc}")
    _check_sections(doc)
    return doc
