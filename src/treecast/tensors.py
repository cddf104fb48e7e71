"""Labeled-register state vectors and the multilinear algebra on them.

A quantum system is a tuple of named registers; a pure state stores one
complex amplitude per joint computational-basis label.  The first
register is the slowest-varying (most significant) digit of the
mixed-radix index, which makes the flat amplitude vector the C-order
flattening of the dims-shaped tensor.  All values are immutable;
operations return new objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DISCARD_TOL
from .errors import (
    BadPermutation,
    DuplicateRegister,
    InputError,
    ShapeMismatch,
    UnknownRegister,
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


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Joint state with ``a``'s registers first (slowest-varying)."""
    _check_unique(a.registers + b.registers)
    return PureState(a.registers + b.registers, np.kron(a.amplitudes, b.amplitudes))


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


def _group_first(state: PureState, rids) -> tuple[np.ndarray, list[Register], list[Register]]:
    """Tensor reshaped to (dim(rids), dim(rest)); returns kept/rest registers."""
    rows, kept, rest = _group_rows(state.amplitudes[None], state.registers, rids)
    return rows[0], kept, rest


def _group_rows(
    amps: np.ndarray, registers, rids
) -> tuple[np.ndarray, list[Register], list[Register]]:
    """Rows over ``registers`` as (rows, dim(rids), dim(rest)), and the kept/rest registers."""
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
    return grouped, [registers[k] for k in pos], [registers[k] for k in rest]


def marginal_matrix(state: PureState, keep) -> np.ndarray:
    """Reduced density matrix on ``keep`` (ids; the state's register order is kept)."""
    keep_set = set(keep)
    ordered = [r.id for r in state.registers if r.id in keep_set]
    missing = keep_set - set(ordered)
    if missing:
        raise UnknownRegister(f"no register {sorted(missing)[0]!r} in state")
    mat, _, _ = _group_first(state, ordered)
    return mat @ mat.conj().T


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


def apply_map(state: PureState, m: LinearMap) -> PureState:
    """Apply ``m`` to its input registers inside ``state``.

    The output registers replace the inputs, spliced in at the position
    of the earliest input register; untouched registers keep their
    relative order.  Maps with no input registers attach fresh
    registers (state preparation).
    """
    _check_unique(m.out_registers)
    in_ids = [r.id for r in m.in_registers]
    for r in m.in_registers:
        have = state.register(r.id)
        if have.dim != r.dim:
            raise ShapeMismatch(
                f"register {r.id!r} has dimension {have.dim}, map expects {r.dim}"
            )
    if not in_ids:
        extra = PureState(m.out_registers, m.matrix[:, 0])
        _check_unique(state.registers + extra.registers)
        return tensor_product(state, extra)

    mat, _, rest_regs = _group_first(state, in_ids)
    out = m.matrix @ mat
    new_regs = m.out_registers + tuple(rest_regs)
    _check_unique(new_regs)
    produced = PureState(new_regs, out.reshape(-1))

    # splice outputs where the first input register sat
    first = min(map(state.ids.index, in_ids))
    order: list[str] = []
    for k, r in enumerate(state.registers):
        if k == first:
            order.extend(o.id for o in m.out_registers)
        if r.id in set(in_ids):
            continue
        order.append(r.id)
    return permute_registers(produced, order) if order else produced


def project_onto(state: PureState, rids, vector: np.ndarray) -> PureState:
    """Contract <vector| against the group ``rids`` (unnormalized result).

    The projector vector is indexed with the first id in ``rids``
    slowest.  The contracted registers are removed.
    """
    mat, kept, rest = _group_first(state, rids)
    vec = np.asarray(vector, dtype=complex).reshape(-1)
    if vec.size != mat.shape[0]:
        raise ShapeMismatch("projector vector length does not match register group")
    amps = vec.conj() @ mat
    produced = PureState(tuple(rest), amps)
    return produced


def overlap(a: PureState, b: PureState) -> complex:
    """<a|b> after aligning register order by id; UnknownRegister if the id sets differ."""
    if set(a.ids) != set(b.ids):
        raise UnknownRegister(f"states on {a.ids!r} and {b.ids!r} cannot be compared")
    if a.ids != b.ids:
        b = permute_registers(b, list(a.ids))
    if a.dims != b.dims:
        raise ShapeMismatch(f"dims {a.dims} vs {b.dims} cannot be compared")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) * trace norm of (rho - sigma) for Hermitian inputs."""
    delta = np.asarray(rho) - np.asarray(sigma)
    delta = (delta + delta.conj().T) / 2
    return float(0.5 * np.abs(np.linalg.eigvalsh(delta)).sum())


def range_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) * trace norm of (A A† − B B†), taken in the range of [A B].

    With the reduced QR [A B] = Q [R_A R_B], A A† − B B† equals
    Q (R_A R_A† − R_B R_B†) Q†, so one eigvalsh of a matrix with side at
    most cols(A) + cols(B) gives the trace norm.
    """
    r = np.linalg.qr(np.hstack([a, b]), mode="r")
    ra, rb = r[:, : a.shape[1]], r[:, a.shape[1] :]
    return trace_distance(ra @ ra.conj().T, rb @ rb.conj().T)


def phase_fixed(cols: np.ndarray) -> np.ndarray:
    """Columns with their global phases fixed, all at once.

    Each column is rotated so that its pivot is real positive.  The pivot
    is its earliest entry within a relative whisker of the column's
    largest magnitude, so that exact ties broken only by floating-point
    noise pick a stable pivot; an all-zero column is left as it is.

    Bit for bit the same as fixing one column at a time with scalar
    arithmetic: the pivot magnitude is taken with ``np.hypot``, which
    rounds as the scalar ``abs`` does (the array ``np.abs`` kernel does
    not), and the scale is multiplied in as a row so NumPy takes the same
    complex-multiply kernel as for a column times a scalar.
    """
    cols = np.asarray(cols, dtype=complex)
    mags = np.abs(cols)
    if not mags.size:
        return cols.copy()
    k = np.argmax(mags >= mags.max(axis=0) * (1.0 - 1e-9), axis=0)
    piv = cols[k, np.arange(cols.shape[1])]
    live = piv != 0.0
    scale = np.hypot(piv.real, piv.imag) / np.where(live, piv, 1.0)
    return np.where(live, cols * scale[None, :], cols)


def orthonormal_completion(cols: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the complement of ``cols``'s column space in C^dim.

    Deterministic: projects the standard basis and orthonormalizes by SVD.
    """
    have = 0 if cols.size == 0 else cols.shape[1]
    need = dim - have
    if need <= 0:
        return np.zeros((dim, 0), dtype=complex)
    proj = np.eye(dim, dtype=complex)
    if have:
        proj -= cols @ cols.conj().T
    u, s, _ = np.linalg.svd(proj)
    keep = u[:, np.argsort(-s)[:need]]
    return np.ascontiguousarray(keep)

