"""Labeled-register state vectors and the multilinear algebra on them.

A quantum system is a tuple of named registers; a pure state stores one
complex amplitude per joint computational-basis label.  The first
register is the slowest-varying (most significant) digit of the
mixed-radix index, which makes the flat amplitude vector the C-order
flattening of the dims-shaped tensor.  All values are immutable;
operations return new objects.  Rows are states stacked as an (rows, dim)
array over one register layout: ``apply_rows`` applies every operator to
them, and ``apply_event`` runs protocol events, built by the constructors
beside it, through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DISCARD_TOL, PROB_TOL
from .errors import (
    BadPermutation,
    DuplicateRegister,
    InputError,
    SchemaError,
    ShapeMismatch,
    UnknownRegister,
    ZeroProbabilityBranch,
)


@dataclass(frozen=True)
class Register:
    """One named subsystem: identity, dimension and owning party."""

    id: str
    dim: int
    owner: str

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeMismatch(f"register {self.id!r} has dimension {self.dim}")

    def with_owner(self, owner: str) -> Register:
        return replace(self, owner=owner)


def _check_unique(registers) -> None:
    seen = set()
    for r in registers:
        if r.id in seen:
            raise DuplicateRegister(f"duplicate register id {r.id!r}")
        seen.add(r.id)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex).reshape(-1)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PureState:
    """A normalized (or deliberately unnormalized) state vector over registers."""

    registers: tuple[Register, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        regs = tuple(self.registers)
        _check_unique(regs)
        amps = _frozen(self.amplitudes)
        dim = math.prod(r.dim for r in regs)
        if amps.size != dim:
            raise ShapeMismatch(
                f"amplitude vector has length {amps.size}, registers give {dim}"
            )
        object.__setattr__(self, "registers", regs)
        object.__setattr__(self, "amplitudes", amps)

    # -- basic queries --------------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.registers)

    def register(self, rid: str) -> Register:
        for r in self.registers:
            if r.id == rid:
                return r
        raise UnknownRegister(f"no register {rid!r} in state")

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per register (C order)."""
        return self.amplitudes.reshape(self.dims if self.registers else (1,))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> PureState:
        n = self.norm()
        if n == 0.0:
            raise ShapeMismatch("cannot normalize the zero vector")
        return PureState(self.registers, self.amplitudes / n)


@dataclass(frozen=True)
class LinearMap:
    """A linear map between register tuples; matrix rows index the outputs."""

    in_registers: tuple[Register, ...]
    out_registers: tuple[Register, ...]
    matrix: np.ndarray

    def __post_init__(self):
        ins = tuple(self.in_registers)
        outs = tuple(self.out_registers)
        _check_unique(ins)
        _check_unique(outs)
        mat = np.array(self.matrix, dtype=complex)
        din = math.prod(r.dim for r in ins)
        dout = math.prod(r.dim for r in outs)
        if mat.shape != (dout, din):
            raise ShapeMismatch(f"map has shape {mat.shape}, expected {(dout, din)}")
        mat.setflags(write=False)
        object.__setattr__(self, "in_registers", ins)
        object.__setattr__(self, "out_registers", outs)
        object.__setattr__(self, "matrix", mat)


# -- construction helpers ------------------------------------------------------


def max_entangled_pair(reg_a: Register, reg_b: Register) -> PureState:
    """|Phi+_K> = K^(-1/2) sum_l |l>|l> on two registers of equal dimension."""
    if reg_a.dim != reg_b.dim:
        raise ShapeMismatch("maximally entangled pair needs equal dimensions")
    k = reg_a.dim
    amps = np.zeros(k * k, dtype=complex)
    amps[np.arange(k) * k + np.arange(k)] = 1.0 / np.sqrt(k)
    return PureState((reg_a, reg_b), amps)


# -- core operations -----------------------------------------------------------


def permute_registers(state: PureState, order) -> PureState:
    """Reorder registers to the id sequence ``order`` (a bijection)."""
    ids = list(state.ids)
    new = list(order)
    if sorted(new) != sorted(ids) or len(new) != len(ids):
        raise BadPermutation(f"{new!r} is not a permutation of {ids!r}")
    perm = [ids.index(rid) for rid in new]
    tens = state.tensor().transpose(perm)
    regs = tuple(state.registers[p] for p in perm)
    return PureState(regs, tens.reshape(-1))


def _group_rows(amps: np.ndarray, registers, rids) -> tuple[np.ndarray, list[Register]]:
    """Rows over ``registers`` as (rows, dim(rids), dim(rest)), and the rest registers."""
    index = {r.id: k for k, r in enumerate(registers)}
    try:
        pos = [index[rid] for rid in rids]
    except KeyError as exc:
        raise UnknownRegister(f"no register {exc.args[0]!r} in state") from None
    kept = set(pos)
    if len(kept) != len(pos):
        raise BadPermutation("repeated register id in group")
    rest = [k for k in range(len(registers)) if k not in kept]
    dims = [r.dim for r in registers]
    tens = amps.reshape([len(amps), *dims]).transpose([0, *(k + 1 for k in pos + rest)])
    dk = math.prod([dims[k] for k in pos])
    grouped = np.ascontiguousarray(tens).reshape(len(amps), dk, -1)
    return grouped, [registers[k] for k in rest]


def check_rank_cut(evals: np.ndarray, cut: float) -> None:
    """Refuse a rank cut that drops real weight, not just rounding noise.

    Raises InputError when the eigenvalues at or below ``cut`` carry more
    than DISCARD_TOL of the trace: no exact protocol exists at the rank
    such a cut reports, so the rank tolerance is too loose for the input.
    """
    vals = evals.tolist()  # a few eigenvalues: plain floats beat NumPy calls here
    dropped = sum(v for v in vals if 0.0 < v <= cut) / sum(v for v in vals if v > 0.0)
    if dropped > DISCARD_TOL:
        raise InputError(
            f"the rank tolerance drops eigenvalue weight {dropped:.2e}, more than "
            f"{DISCARD_TOL:g}: it is too loose for this input"
        )


def apply_rows(amps: np.ndarray, registers, ins, outs, matrix) -> tuple[np.ndarray, tuple]:
    """Apply one map to every row of ``amps``, or row b's own map to row b: (rows, registers).

    ``amps`` holds one state per row over ``registers``; ``matrix`` maps
    the ``ins`` to the ``outs``, one (dout, din) map or a (rows, dout, din)
    stack.  The outputs are spliced in where the first input sat, and
    untouched registers keep their order.  A map with no inputs appends
    its outputs (state preparation); one with no outputs contracts its
    inputs away (a measurement's 1 × din row ⟨v|).
    """
    mat = np.asarray(matrix, dtype=complex)
    din, dout = math.prod(r.dim for r in ins), math.prod(r.dim for r in outs)
    if mat.shape[-2:] != (dout, din) or (mat.ndim != 2 and mat.shape[:-2] != (len(amps),)):
        raise ShapeMismatch(f"map has shape {mat.shape}, expected {(dout, din)} per row")
    dims = {r.id: r.dim for r in registers}
    for r in ins:
        if dims.get(r.id, r.dim) != r.dim:
            raise ShapeMismatch(f"register {r.id!r} has dimension {dims[r.id]}, map expects {r.dim}")
    in_ids = [r.id for r in ins]
    grouped, rest = _group_rows(amps, registers, in_ids)
    first = next((k for k, r in enumerate(registers) if r.id in in_ids), len(registers))
    new = (*rest[:first], *outs, *rest[first:])
    _check_unique(new)
    before = math.prod(r.dim for r in rest[:first])
    out = (mat @ grouped).reshape(len(amps), dout, before, -1).transpose(0, 2, 1, 3)
    return out.reshape(len(amps), -1), new


# -- protocol events ------------------------------------------------------------


def isometry_event(party, matrix, ins, outs, kind="local-isometry") -> dict:
    """``matrix`` applied at ``party``, from the ``ins`` registers to the ``outs``."""
    return {"type": kind, "party": party, "matrix": matrix, "in": list(ins), "out": list(outs)}


def _resource_event(edge, k, a0=None, b0=None) -> dict:
    event = {"type": "resource-consumed", "edge": list(edge), "k": k}
    return event if a0 is None else event | {"a0": a0, "b0": b0}


def _measured_events(party, basis, targets, outcome) -> list[dict]:
    """A measurement and the broadcast of its outcome."""
    return [
        {
            "type": "measurement",
            "party": party,
            "basis": basis,
            "targets": list(targets),
            "outcome": outcome,
        },
        {"type": "broadcast", "party": party, "outcome": outcome},
    ]


def apply_event(amps: np.ndarray, regs, event: dict):
    """Advance rows by one protocol event: (rows, registers, per-row probabilities or None).

    Row b of ``amps`` is a state over the registers ``regs`` (one state is
    one row), and every operator runs through :func:`apply_rows`.  Events
    are dicts keyed by ``type``:

    * ``resource-consumed`` — attach Φ⁺_K on (``a0``, ``b0``) when given,
      a map with no inputs (a K = 1 resource attaches nothing);
    * ``local-isometry`` / ``root-correction`` — apply ``matrix``, one map
      or a (rows, dout, din) stack, from the ``in`` to the ``out`` registers;
    * ``measurement`` — contract ``targets`` with ⟨v| for column ``outcome``
      of ``basis``; ``outcome`` is one integer or one per row.  The rows are
      left unnormalized and each row's squared norm is returned: its
      outcome's probability for a normalized row;
    * ``broadcast`` — classical communication, no change to the rows.
    """
    kind = event.get("type")
    if kind == "resource-consumed":
        if "a0" in event:
            pair = max_entangled_pair(event["a0"], event["b0"])
            amps, regs = apply_rows(amps, regs, (), pair.registers, pair.amplitudes[:, None])
        return amps, regs, None
    if kind in ("local-isometry", "root-correction"):
        return (*apply_rows(amps, regs, event["in"], event["out"], event["matrix"]), None)
    if kind == "measurement":
        basis, outcome = event["basis"], np.asarray(event["outcome"])
        if outcome.dtype.kind not in "iu" or ((outcome < 0) | (outcome >= basis.shape[1])).any():
            raise SchemaError(f"measurement outcome {outcome} is not a column of the basis")
        amps, regs = apply_rows(amps, regs, event["targets"], (), basis.T[outcome].conj()[..., None, :])
        probs = row_norms(amps)[:, 0] ** 2
        if (probs < PROB_TOL).any():
            msg = f"outcome {outcome} at {event.get('party')!r} has zero probability"
            raise ZeroProbabilityBranch(msg)
        return amps, regs, probs
    if kind == "broadcast":
        return amps, regs, None
    raise SchemaError(f"unknown event type {kind!r}")


def apply_map(state: PureState, m: LinearMap) -> PureState:
    """Apply ``m`` to its input registers inside ``state``: a one-row :func:`apply_rows`."""
    amps, regs = apply_rows(
        state.amplitudes[None], state.registers, m.in_registers, m.out_registers, m.matrix
    )
    return PureState(regs, amps[0])


def project_onto(state: PureState, rids, vector: np.ndarray) -> PureState:
    """Contract <vector| against the group ``rids``, first id slowest: a one-row :func:`apply_rows`."""
    ins = [state.register(rid) for rid in rids]
    bra = np.asarray(vector, dtype=complex).reshape(-1).conj()
    amps, regs = apply_rows(state.amplitudes[None], state.registers, ins, (), bra[None])
    return PureState(regs, amps[0])


def overlap(a: PureState, b: PureState) -> complex:
    """<a|b> after aligning register order by id; UnknownRegister if the id sets differ."""
    if set(a.ids) != set(b.ids):
        raise UnknownRegister(f"states on {a.ids!r} and {b.ids!r} cannot be compared")
    if a.ids != b.ids:
        b = permute_registers(b, list(a.ids))
    if a.dims != b.dims:
        raise ShapeMismatch(f"dims {a.dims} vs {b.dims} cannot be compared")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """(1/2) * trace norm of (rho - sigma) for Hermitian inputs.

    Stacks (…, d, d), broadcast together, go slice by slice into an array
    of distances, each the bits the 2-D call gives; 2-D inputs give a float.
    """
    delta = np.asarray(rho) - np.asarray(sigma)
    delta = (delta + _dagger(delta)) / 2
    dist = 0.5 * np.abs(np.linalg.eigvalsh(delta)).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def range_trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """(1/2) * trace norm of (A A† − B B†), taken in the range of [A B].

    With the reduced QR [A B] = Q [R_A R_B], A A† − B B† equals
    Q (R_A R_A† − R_B R_B†) Q†, so one eigvalsh of a matrix with side at
    most cols(A) + cols(B) gives the trace norm.  Stacks of A and B with
    one leading shape go slice by slice, as in :func:`trace_distance`.
    """
    r = np.linalg.qr(np.concatenate([a, b], axis=-1), mode="r")
    ra, rb = r[..., : a.shape[-1]], r[..., a.shape[-1] :]
    return trace_distance(ra @ _dagger(ra), rb @ _dagger(rb))


def phase_fixed(cols: np.ndarray) -> np.ndarray:
    """Columns with their global phases fixed, all at once; a stack (…, d, c) slice by slice.

    Each column is rotated so that its pivot is real positive.  The pivot
    is its earliest entry within a relative whisker of the column's
    largest magnitude, so that exact ties broken only by floating-point
    noise pick a stable pivot; an all-zero column is left as it is.

    Bit for bit the same as fixing one column at a time with scalar
    arithmetic: the pivot magnitude is taken with ``np.hypot``, which
    rounds as the scalar ``abs`` does (the array ``np.abs`` kernel does
    not), and the scale is multiplied in as a row so NumPy takes the same
    complex-multiply kernel as for a column times a scalar.  A stack is
    fixed as one matrix holding its slices' columns side by side.
    """
    cols = np.asarray(cols, dtype=complex)
    if cols.ndim > 2:
        d, c = cols.shape[-2:]
        wide = phase_fixed(np.moveaxis(cols, -2, 0).reshape(d, math.prod(cols.shape[:-2]) * c))
        return np.moveaxis(wide.reshape(d, *cols.shape[:-2], c), 0, -2)
    mags = np.abs(cols)
    if not mags.size:
        return cols.copy()
    k = np.argmax(mags >= mags.max(axis=0) * (1.0 - 1e-9), axis=0)
    piv = cols[k, np.arange(cols.shape[1])]
    live = piv != 0.0
    scale = np.hypot(piv.real, piv.imag) / np.where(live, piv, 1.0)
    return np.where(live, cols * scale[None, :], cols)


def _dagger(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def row_norms(amps: np.ndarray) -> np.ndarray:
    """Each row's 2-norm, as (rows, 1).

    One-row dot products of the real and imaginary parts, so every digit
    equals that of ``np.linalg.norm`` on the row alone (``axis=1`` norms
    sum in another order).
    """
    x = amps.reshape(len(amps), 1, -1)
    return np.sqrt(x.real @ x.real.swapaxes(1, 2) + x.imag @ x.imag.swapaxes(1, 2))[:, 0]
