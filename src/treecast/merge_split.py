"""Exact one-step protocols: splitting a share off, or merging one in.

Splitting moves a register block A′ from its holder to a receiver
through a maximally entangled resource Φ⁺_K.  The exact cost is the
rank of the A′ marginal: compress the block onto its support, teleport
the K-dimensional buffer, undo the Pauli shift at the far end, and
decompress.  All K² outcomes succeed exactly with probability 1/K².

Merging hands A's share over in the opposite direction: A measures
(share + resource half) in a basis tailored to the block decomposition
of the state, broadcasts the outcome, and the receiving side applies an
outcome-conditioned isometry U_m : H^B ⊗ C^K → H^{B′} ⊗ H^B restoring
the state with B′ ≅ H^A on the receiving side.  The minimal K is
max_j ⌈λ₀(j)·dim a_j^R⌉ from the block decomposition — junk that is
already shared makes the transfer cheaper than teleportation.

Measurement strategies, picked by block structure:
  * scalar-fourier  — several blocks, all content scalar on A: Fourier
                      mix across the support frame.
  * single-block    — one block: with no content on A, measure the junk
                      eigenframe directly; with pure content, use a
                      shift-injection basis (a teleport whose resource
                      index is offset by the content index).
  * uniform-junk    — one block, uniform junk times content: the junk
                      pair and Φ⁺_K act as one larger resource.
  * synthesized     — anything else at the tight K: alternating
                      optimization over the measurement unitary.
  * fallback-teleport — rank-of-A teleport, always available, with its
                      corrections written in closed form.

The tight strategies' corrections are solved exactly per outcome from
the linear constraint (1⊗U_m)(⟨q_m|⊗1)(ψ⊗Φ⁺_K) = √p_m ψ^{R′B′B} and
extended to isometries.  Every build checks that constraint on every
live outcome; a residual above tolerance raises SynthesisFailed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import groupby

import numpy as np

from .config import MAX_BELL_ENTRIES, PROB_TOL, RANK_RTOL, VERIFY_TOL
from .errors import (
    DimensionMismatch,
    InputError,
    InsufficientResource,
    ShapeMismatch,
    SynthesisFailed,
    TreecastError,
    ZeroProbabilityBranch,
)
from .koashi_imoto import (
    _parse_roles,
    ki_decompose,
    ki_rows,
    merge_cost_K,
)
from .teleport import _fourier, _teleport_blocks, _teleport_columns, _teleport_posts
from .tensors import (
    PureState,
    Register,
    _dagger,
    _group_rows,
    _measured_events,
    _resource_event,
    apply_event,
    check_rank_cut,
    isometry_event,
    phase_fixed,
    row_norms,
)

def _bell_folded(columns: np.ndarray, mat: np.ndarray, k: int) -> np.ndarray:
    """columns_b†[(a, l), m] X_b[a, rest] Φ⁺_K[l, l′]  →  post[b, m, rest, l′], per row b.

    ``mat`` holds X_b as (rows, a, rest) and ``columns`` each row's
    measurement columns on (a, l), l fastest, as (rows, a·l, m).
    Φ⁺_K = Σ_l |l⟩|l⟩/√K is folded into one matmul, so the resource pair
    is never attached.
    """
    n = columns.shape[2]
    posts = columns.conj().reshape(len(mat), -1, k * n).swapaxes(1, 2) @ mat
    return posts.reshape(len(mat), k, n, -1).transpose(0, 2, 3, 1) / math.sqrt(k)


def _outcome_indices(outcomes, n: int) -> np.ndarray:
    """``outcomes`` as an index array, all ``n`` by default; InputError outside [0, n)."""
    if outcomes is None:
        return np.arange(n)
    wanted = np.asarray(outcomes, dtype=int).reshape(-1)
    bad = [m for m in wanted.tolist() if not 0 <= m < n]
    if bad:
        raise InputError(f"outcome {bad[0]} outside 0..{n - 1}")
    return wanted


# -- splitting ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SplitProtocol:
    """Move the ``moved_ids`` block to ``receiver`` through Φ⁺_K.

    ``bell`` and ``corrections`` are K's shared read-only tables
    (:func:`_bell_basis`, :func:`_pauli_shifts`), not copies.
    """

    moved_ids: tuple[str, ...]
    moved_dims: tuple[int, ...]
    sender: str
    receiver: str
    k: int
    rank: int
    compress: np.ndarray  # K × dA′
    decompress: np.ndarray  # dA′ × K
    bell: np.ndarray  # K² × K² Bell columns, outcome (p, q) at p·K + q
    corrections: np.ndarray  # K² × K × K shift fixes at B₀, outcome (p, q) at p·K + q


@dataclass(frozen=True)
class SplitBranch:
    outcome: int
    probability: float
    state: PureState


def _support(amps, regs, ids, rank_rtol: float) -> tuple[list[int], np.ndarray]:
    """Numerical rank and phase-fixed eigenframe (largest first) of each row's ``ids`` marginal.

    Rows of ``amps`` are states over ``regs``.  InputError when a rank cut
    drops real weight (:func:`check_rank_cut`).
    """
    order = {r.id: i for i, r in enumerate(regs)}
    mats = _group_rows(amps, regs, sorted(ids, key=lambda i: order.get(i, -1)))[0]
    vals, vecs = np.linalg.eigh(mats @ _dagger(mats))
    for row in vals[vals[:, -1] > 0.0]:
        check_rank_cut(row, rank_rtol * float(row[-1]))
    ranks = np.where(vals[:, -1] > 0.0, np.sum(vals > rank_rtol * vals[:, -1:], axis=1), 0)
    return ranks.tolist(), phase_fixed(vecs[..., ::-1])


def split_cost(psi: PureState, moved_ids, rank_rtol: float = RANK_RTOL) -> int:
    """Exact resource dimension for splitting: rank of the moved marginal."""
    return _support(psi.amplitudes[None], psi.registers, moved_ids, rank_rtol)[0][0]


def _shift_table(k: int) -> np.ndarray:
    """X^p Z^q at index p·K + q: entry ω^{qj} at ((j + p) mod K, j)."""
    omega = np.exp(2j * np.pi / k)
    j = np.arange(k)
    p, q = np.divmod(np.arange(k * k), k)
    shifts = np.zeros((k * k, k, k), dtype=complex)
    shifts[np.arange(k * k)[:, None], (j + p[:, None]) % k, j] = (omega ** np.outer(j, j))[q]
    return shifts


def _bell_columns(shifts: np.ndarray) -> np.ndarray:
    """(X^p Z^q ⊗ 1)|Φ⁺_K⟩ at column p·K + q: each shift flattened, over √K.

    Adding 0.0 turns the shifts' signed zeros into +0.0, as a sum of
    products gives them.
    """
    k = shifts.shape[1]
    return np.ascontiguousarray((shifts / math.sqrt(k) + 0.0).reshape(k * k, k * k).T)


def _bell_table(k: int) -> np.ndarray:
    return _bell_columns(_pauli_shifts(k))


@cache
def _shared(build, k: int) -> np.ndarray:
    """``build(k)``, read-only: built once per (builder, K) and shared by every caller."""
    table = build(k)
    table.flags.writeable = False
    return table


def _pauli_shifts(k: int) -> np.ndarray:
    """The K² shifts of :func:`_shift_table`, shared per K while K⁴ ≤ ``MAX_BELL_ENTRIES``."""
    return _shared(_shift_table, k) if k**4 <= MAX_BELL_ENTRIES else _shift_table(k)


def _bell_basis(k: int) -> np.ndarray:
    """The K²×K² generalized Bell basis a split measures in, shared as :func:`_pauli_shifts` is."""
    return _shared(_bell_table, k) if k**4 <= MAX_BELL_ENTRIES else _bell_table(k)


def build_split_protocol(
    psi: PureState,
    moved_ids,
    k: int | None = None,
    *,
    receiver: str,
    rank_rtol: float = RANK_RTOL,
) -> SplitProtocol:
    moved_ids = tuple(moved_ids)
    regs = [psi.register(i) for i in moved_ids]
    d_move = math.prod(r.dim for r in regs)
    (rank,), (basis,) = _support(psi.amplitudes[None], psi.registers, moved_ids, rank_rtol)
    k_eff = rank if k is None else int(k)
    if k_eff < rank:
        raise InsufficientResource(
            f"splitting needs a rank-{rank} resource, got K={k_eff}"
        )
    if k_eff <= d_move:
        compress = basis[:, :k_eff].conj().T
    else:
        compress = np.vstack(
            [basis.conj().T, np.zeros((k_eff - d_move, d_move), dtype=complex)]
        )
    return SplitProtocol(
        moved_ids=moved_ids,
        moved_dims=tuple(r.dim for r in regs),
        sender=regs[0].owner,
        receiver=receiver,
        k=k_eff,
        rank=rank,
        compress=compress,
        decompress=compress.conj().T,
        bell=_bell_basis(k_eff),
        corrections=_pauli_shifts(k_eff),
    )


def split_events(protocol: SplitProtocol, registers, outcome: int) -> tuple[list[dict], list[dict]]:
    """The split's events for one outcome on a state over ``registers``, as (prefix, tail).

    The prefix does not depend on the outcome: the sender compresses the
    moved block into a K-dimensional buffer, and Φ⁺_K is consumed on
    (A₀, B₀).  The tail is the Bell measurement of (buffer, A₀), its
    broadcast, the receiver's shift correction on B₀ and the
    decompression of B₀ into the moved registers.  A block of trivial
    registers needs no teleport: the prefix is the resource and a
    relabel, and the tail is empty.
    """
    k, sender, receiver = protocol.k, protocol.sender, protocol.receiver
    held = {r.id: r for r in registers}
    moved = [held[i] for i in protocol.moved_ids]
    moved_out = [r.with_owner(receiver) for r in moved]
    edge = (sender, receiver)
    if all(r.dim == 1 for r in moved):
        relabel = isometry_event(receiver, np.eye(1, dtype=complex), moved, moved_out)
        return [_resource_event(edge, k), relabel], []
    buf = Register(f"buf:{protocol.moved_ids[0]}", k, sender)
    a0 = Register(f"sp:{receiver}:A0", k, sender)
    b0 = Register(f"sp:{receiver}:B0", k, receiver)
    prefix = [
        isometry_event(sender, protocol.compress, moved, [buf]),
        _resource_event(edge, k, a0, b0),
    ]
    tail = _measured_events(sender, protocol.bell, [buf, a0], outcome) + [
        isometry_event(receiver, protocol.corrections[outcome], [b0], [b0]),
        isometry_event(receiver, protocol.decompress, [b0], moved_out),
    ]
    return prefix, tail


def _split_compress(protocol: SplitProtocol, amps: np.ndarray, regs):
    """Rows through the split's outcome-free prefix: (X, the registers the split leaves).

    X is (rows, buffer, rest) after the compression event.  A block of
    trivial registers has no buffer: X is (rows, 1, dim) after the relabel.
    """
    prefix, tail = split_events(protocol, regs, 0)
    if not tail:
        for event in prefix:
            amps, regs, _ = apply_event(amps, regs, event)
        return amps[:, None], regs
    amps, regs, _ = apply_event(amps, regs, prefix[0])
    mat, rest = _group_rows(amps, regs, [prefix[0]["out"][0].id])
    return mat, (*rest, *tail[-1]["out"])


def _split_fan_out(protocol: SplitProtocol, mat: np.ndarray, outcomes: np.ndarray):
    """(probabilities, normalized states)[b, m]: row b of X on ``outcomes[b, m]``.

    X is from :func:`_split_compress`.  One contraction bell† (X ⊗ Φ⁺_K)
    with each row's Bell columns gathered, one shift matmul along B₀ and
    one decompression.  A block of trivial registers has one branch per
    row, outcome 0.
    """
    if all(d == 1 for d in protocol.moved_dims):
        return np.ones((len(mat), 1)), mat
    k, (rows, n) = protocol.k, outcomes.shape
    posts = _bell_folded(np.moveaxis(protocol.bell[:, outcomes], 0, 1), mat, k)
    probs = np.linalg.norm(posts.reshape(rows, n, -1), axis=2) ** 2
    if (probs < PROB_TOL).any():
        m = outcomes[probs < PROB_TOL][0]
        raise ZeroProbabilityBranch(f"outcome {m} at {protocol.sender!r} has zero probability")
    fixed = posts @ protocol.corrections[outcomes].swapaxes(-1, -2)
    out = (fixed @ protocol.decompress.T).reshape(rows, n, -1)
    out /= np.linalg.norm(out, axis=2)[..., None]
    return probs, out


def split_post_states(
    protocol: SplitProtocol, psi: PureState, outcomes=None
) -> list[tuple[int, float, PureState]]:
    """``(outcome, probability, state)`` per outcome in ``outcomes``, all K² by default.

    One row through :func:`_split_compress` and :func:`_split_fan_out`.  A block
    of trivial registers has one branch, outcome 0, whatever ``outcomes`` asks.
    """
    wanted = _outcome_indices(outcomes, protocol.k**2)
    mat, regs = _split_compress(protocol, psi.amplitudes[None], psi.registers)
    probs, out = _split_fan_out(protocol, mat, wanted[None])
    if all(d == 1 for d in protocol.moved_dims):
        wanted = [0]
    return [(int(m), float(p), PureState(regs, amps)) for m, p, amps in zip(wanted, probs[0], out[0])]


def execute_split(
    protocol: SplitProtocol, psi: PureState, *, outcomes=None
) -> list[SplitBranch]:
    """Run the split; exhaustive over all K² outcomes unless given.

    A block of trivial registers has one branch, outcome 0.
    """
    return [SplitBranch(*branch) for branch in split_post_states(protocol, psi, outcomes)]


# -- merging ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MergeProtocol:
    """One exact merge step: measurement at A, isometry at the receiver.

    :func:`measurement_matrix` reads the columns, on (a registers…, A₀) (no A₀
    when k == 1), and :func:`correction_matrices` each U_m, (b registers…, B₀) →
    (a-copy registers…, b registers…).  A tight strategy stores both.  The
    fallback stores only ``frame``, from which both follow in closed form
    (``teleport``), and covers its K·n head outcomes; the rest are dead.
    """

    r_ids: tuple[str, ...]
    a_ids: tuple[str, ...]
    b_ids: tuple[str, ...]
    a_dims: tuple[int, ...]
    b_dims: tuple[int, ...]
    k: int
    kmin: int
    strategy: str
    measurement: np.ndarray | None  # tight: the columns
    corrections: np.ndarray | None  # tight: U_m per outcome, stacked
    probs: tuple[float, ...]
    zero_mask: tuple[bool, ...]
    a0_id: str
    b0_id: str
    sender: str
    receiver: str
    b0_owner: str
    frame: np.ndarray | None = None  # fallback: the phase-fixed eigenframe f of ρ^A, dA × dA


@dataclass(frozen=True)
class MergeReport:
    passed: bool
    max_deviation: float
    completeness: float
    prob_sum: float
    correction_residual: float
    deviations: tuple[float, ...]


def merge_cost(
    psi: PureState,
    roles,
    *,
    mode: str = "tight",
    rank_rtol: float = RANK_RTOL,
) -> int:
    """Minimal resource dimension K for merging A's share into B (fallback: the rank of ρ^A)."""
    ids = _parse_roles(psi, roles)
    if mode == "fallback":
        return _support(psi.amplitudes[None], psi.registers, ids[1], rank_rtol)[0][0]
    if mode != "tight":
        raise ValueError(f"unknown merge mode {mode!r}")
    return merge_cost_K(ki_decompose(psi, ids, rank_rtol=rank_rtol))


def _junk_frames(decs, j: int) -> np.ndarray:
    """Block j's embedded junk eigenframe columns (only valid when n = 1), phase-fixed, per decomposition."""
    m = decs[0].blocks[j].dimL_A
    omega = np.array([dec.blocks[j].omega.amplitudes.reshape(m, m) for dec in decs])
    mu = np.linalg.norm(omega, axis=1) ** 2
    emb = np.array([dec.a_block_embed(j) for dec in decs])
    return phase_fixed(emb @ (omega / np.sqrt(mu)[:, None, :]))


def _completed_basis(head: np.ndarray, dim: int) -> np.ndarray:
    """Phase-fixed ``head`` columns followed by a completion to a basis of C^dim; a stack slice by slice.

    The completion is the trailing columns of one complete QR of the head.
    """
    head = phase_fixed(head)
    if head.shape[-1] >= dim:
        return np.ascontiguousarray(head)
    q = np.linalg.qr(head, mode="complete")[0]
    return np.concatenate([head, q[..., head.shape[-1]:]], axis=-1)


def _shift_injection(frames: np.ndarray, k: int) -> np.ndarray:
    """Shift-injection measurement columns on (share, A₀); a stack (…, m, n, dA) slice by slice.

    ``frames[j, a]`` holds orthonormal share vectors (j < m, a < n).  With
    y[c, a] = frames[c // k, a] ⊗ |c mod k⟩ and kj = m·k, the head columns
    are v_{p,q} = n^{-1/2} Σ_a ω^{qa} y[(p+a) mod kj, a] at p·n + q: a
    teleport whose resource index is offset by the content index a.
    """
    *lead, m, n, da = frames.shape
    kj = m * k
    y = np.einsum("...jax,st->...jsaxt", frames, np.eye(k)).reshape(*lead, kj, n, da * k)
    shifted = y[..., (np.arange(kj)[:, None] + np.arange(n)) % kj, np.arange(n), :]
    return np.einsum("qa,...pad->...dpq", _fourier(n), shifted).reshape(*lead, da * k, kj * n)


def _tight_measurements(decs, da: int, k: int) -> list:
    """Measurement columns (dA·k × dA·k) and the strategy tag of each decomposition, or None.

    Decompositions of one block shape are measured as one stack, each
    equal to its own build bit for bit.
    """
    out: list = [None] * len(decs)
    shapes: dict[tuple, list[int]] = {}
    for b, dec in enumerate(decs):
        shape = tuple((blk.dimL_A, blk.dimR_A) for blk in dec.blocks)
        if any(n > 1 for _, n in shape):
            if len(shape) > 1:
                continue
            ((m, n),) = shape
            # with junk, only a uniform one joins Φ⁺_K as one m·k-dimensional resource
            if (m > 1 and abs(dec.blocks[0].lambda0 - 1.0 / m) >= 1e-9) or m * k < n:
                continue
        shapes.setdefault(shape, []).append(b)
    for shape, rows in shapes.items():
        picked = [decs[b] for b in rows]
        if all(n == 1 for _, n in shape):
            tag = "single-block" if len(shape) == 1 else "scalar-fourier"
            head = np.concatenate([_junk_frames(picked, j) for j in range(len(shape))], axis=2)
            if len(shape) > 1:
                head = head @ _fourier(head.shape[2]).conj()
            cols = _completed_basis(head, da)
            if k > 1:  # np.kron(cols, F_K*) of each row
                cols = cols[:, :, None, :, None] * _fourier(k).conj()[:, None, :]
                cols = cols.reshape(len(rows), da * k, da * k)
        else:
            ((m, n),) = shape
            tag = "single-block" if m == 1 else "uniform-junk"
            frames = np.array([dec.a_block_embed(0) for dec in picked]).reshape(-1, da, m, n)
            cols = _completed_basis(_shift_injection(frames.transpose(0, 2, 3, 1), k), da * k)
        for b, c in zip(rows, cols):
            out[b] = (tag, c)
    return out


def _haar_unitary(dim: int, rng) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def _synthesize_measurement(big, g_mat, da, db, k):
    """Alternating optimization for the measurement unitary (strategy d).

    A coarse phase maximizes the summed branch fidelity; a refinement
    phase keeps iterating the same fixed-point map but is stopped by the
    exact correction residual, which resolves far below the fidelity's
    floating-point floor.  The random restarts come from a generator
    created afresh for each call, so the result depends on the state alone.
    """
    n_out = da * k
    rng = np.random.default_rng(0)

    def sweep(q_mat):
        c_cols = np.zeros((n_out, n_out), dtype=complex)
        for m in range(n_out):
            p_mat = np.einsum("rxz,x->rz", big, q_mat[:, m].conj())
            mm = (g_mat.conj().T @ p_mat).T
            uu, _, vv = np.linalg.svd(mm, full_matrices=False)
            u_m = vv.conj().T @ uu.conj().T
            c_cols[:, m] = np.einsum(
                "ry,yz,rxz->x", g_mat.conj(), u_m, big, optimize=True
            )
        v = np.einsum("xm,xm->m", q_mat.conj(), c_cols)
        f = float(np.sum(np.abs(v) ** 2))
        phases = np.where(np.abs(v) > 1e-15, v.conj() / np.abs(v), 1.0)
        uu, _, vv = np.linalg.svd(c_cols * phases[None, :])
        return f, uu @ vv

    best_q, best_f = None, -1.0
    for _ in range(8):
        q_mat = _haar_unitary(n_out, rng)
        f_prev = -1.0
        for _ in range(400):
            f, q_next = sweep(q_mat)
            if f > best_f:
                best_f, best_q = f, q_mat.copy()
            if f >= 1.0 - 1e-9 or abs(f - f_prev) < 1e-14:
                break
            f_prev = f
            q_mat = q_next
        if best_f >= 1.0 - 1e-9:
            break
    if best_f < 1.0 - 1e-7:
        raise SynthesisFailed(
            f"measurement optimization reached fidelity {best_f:.12f} only"
        )
    q_mat, best_resid = best_q, np.inf
    for it in range(6000):
        if it % 40 == 0:
            _, _, _, resid = _solve_corrections(big, g_mat, q_mat, da, db, k)
            if resid < best_resid:
                best_resid, best_q = resid, q_mat.copy()
            if best_resid <= 0.3 * VERIFY_TOL:
                break
        _, q_mat = sweep(q_mat)
    return "synthesized", best_q


def _outcome_blocks(big: np.ndarray, qcols: np.ndarray):
    """Every outcome's block ⟨q_m|Ψ as (…, n_out, dR, dB·k), and its probability.

    A stack of Ψ and of measurements is taken slice by slice.
    """
    *lead, dr, dak, dbk = big.shape
    flat = big.swapaxes(-3, -2).reshape(*lead, dak, dr * dbk)
    blocks = (_dagger(qcols) @ flat).reshape(*lead, -1, dr, dbk)
    probs = np.linalg.norm(blocks.reshape(*blocks.shape[:-2], -1), axis=-1) ** 2
    return blocks, probs


def _solve_corrections(big, g_mat, qcols, da, db, k):
    """Exact isometries from (1⊗U_m)(⟨q_m|⊗1)Ψ = √p_m G, all outcomes at once.

    The one-row call of :func:`_solve_rows`: (corrections, probabilities,
    zero mask, worst residual).
    """
    corrections, probs, zero, resid = _solve_rows(big[None], g_mat[None], qcols[None], da, db, k)
    return corrections[0], tuple(probs[0].tolist()), tuple(zero[0].tolist()), float(resid[0])


def _solve_rows(big, g_mat, qcols, da, db, k):
    """:func:`_solve_corrections` of each row of stacked Ψ, G and measurements, together.

    One batched SVD of the stacked S_m = (⟨q_m|Ψ)ᵀ of every row's live
    outcomes gives V_m with the completion of its range as trailing
    columns.  Outcomes are grouped by numerical rank r; per group one
    complete QR of the image W_m gives its completion, and
    U_m = W_m V_m† + W′_m V′_m†.  Each outcome's U_m equals the one-row
    call's, bit for bit.  Returns the corrections, probabilities and zero
    mask per (row, outcome), and each row's worst residual.
    """
    dbk = db * k
    dadb = da * db
    blocks, probs = _outcome_blocks(big, qcols)
    zero = probs < PROB_TOL
    probs[zero] = 0.0
    corrections = np.empty((*probs.shape, dadb, dbk), dtype=complex)
    corrections[zero] = np.eye(dadb, dbk)
    max_resid = np.zeros(len(probs))
    row, live = np.nonzero(~zero)
    if live.size:
        s_mats = blocks[row, live].swapaxes(1, 2)  # L × dbk × dR
        t_mats = np.sqrt(probs[row, live])[:, None, None] * g_mat[row].swapaxes(1, 2)  # L × dadb × dR
        v_full, sig, w_sh = np.linalg.svd(s_mats, full_matrices=True)
        ranks = np.sum(sig > np.maximum(sig[:, :1], 1e-300) * 1e-12, axis=1)
        for r in np.unique(ranks):
            sel = np.flatnonzero(ranks == r)
            v_s, v_comp = v_full[sel, :, :r], v_full[sel, :, r:]
            w_img = t_mats[sel] @ _dagger(w_sh[sel, :r]) / sig[sel, None, :r]
            iso_resid = np.abs(_dagger(w_img) @ w_img - np.eye(r)).max(axis=(1, 2))
            w_comp = np.linalg.qr(w_img, mode="complete")[0][:, :, r:dbk]
            u = w_img @ _dagger(v_s) + w_comp @ _dagger(v_comp)
            resid = np.linalg.norm((u @ s_mats[sel] - t_mats[sel]).reshape(len(sel), -1), axis=1)
            corrections[row[sel], live[sel]] = u
            np.maximum.at(max_resid, row[sel], np.maximum(resid, iso_resid))
    return corrections, probs, zero, max_resid


def _fallback_rows(amps, regs, roles, *, k=None, rank_rtol=RANK_RTOL, **ids):
    """The fallback merge of each row of ``amps`` (states over ``regs``), built together.

    A rank-n teleport of A through Φ⁺_K in closed form (``teleport``);
    exactly the K·n head outcomes are live.  K is ``k``, or the first row's
    n.  Every row is checked as a build on its own is: the rank cut,
    n ≤ K ≤ dA, the live count, ‖U_m S_m − √p_m G‖ ≤ VERIFY_TOL per live
    outcome and f[:, :K] orthonormal; its record keeps f alone.  S_m and the
    head's p_m come from the post rows gathered from C = f† X
    (``_teleport_posts``), the tail's p_m are ‖C[n + j]‖² / K.  Rows of one n
    are stacked, and each protocol equals the one-row call on its row, bit
    for bit.  Returns the protocols and, per n, (its rows, their live
    outcomes, and there the squared norms and post rows
    :func:`_merge_post_rows` gives).
    """
    r_ids, a_ids, b_ids = _parse_roles(PureState(regs, amps[0]), roles)
    norms = row_norms(amps)
    if not norms.all():
        raise ShapeMismatch("cannot normalize the zero vector")
    mat = _group_rows(amps, regs, a_ids)[0]  # X of each row as given, (rows, dA, rest)
    da = mat.shape[1]
    ranks, frames = _support(amps, regs, a_ids, rank_rtol)  # of ρ^A, each row as given
    for rank in ranks:
        k = _resource_dim(rank, k, da, "fallback")
    fields = _merge_fields({r.id: r for r in regs}, r_ids, a_ids, b_ids, **ids)
    protos, posts = [None] * len(amps), []
    for n in sorted(set(ranks)):
        sel = [i for i, rank in enumerate(ranks) if rank == n]
        f, x, live, rows = frames[sel], mat[sel], k * n, len(sel)
        block, c = _teleport_posts(f, n, k, x, np.arange(live))
        head = np.linalg.norm(block, axis=2) ** 2  # as _merge_post_rows gives them
        tail = np.linalg.norm(c[:, n:da], axis=2) ** 2 / k
        probs = np.concatenate([head, tail.repeat(k, axis=1)], axis=1) / norms[sel] ** 2
        zero = probs < PROB_TOL
        probs[zero] = 0.0
        w = _teleport_blocks(f, n, k, np.arange(rows)[:, None], np.arange(live))  # (rows, live, dA, K)
        # ‖U_m S_m − √p_m G‖ = √p_m ‖U_m S̃_m / √p_m − X‖ / ‖X‖, with S̃_m and X of ψ as given
        root = np.sqrt(np.where(zero[:, :live], 1.0, probs[:, :live]))
        out = w @ block.reshape(rows, live, -1, k).swapaxes(2, 3)  # on (x, rest)
        out /= root[..., None, None]
        out -= x[:, None]
        dev = out.reshape(rows, live, -1).view(float)
        resid = (np.sqrt(np.einsum("bmi,bmi->bm", dev, dev)) * root).max(axis=1) / norms[sel, 0]
        iso = np.abs(_dagger(f[:, :, :k]) @ f[:, :, :k] - np.eye(k)).max(axis=(1, 2))
        for j, i in enumerate(sel):
            if zero[j, :live].any() or not zero[j, live:].all():
                msg = f"the teleport leaves {np.sum(~zero[j])} outcomes live, not {live}"
                raise SynthesisFailed(msg)
            if max(resid[j], iso[j]) > VERIFY_TOL:
                raise SynthesisFailed(f"strategy 'fallback-teleport' correction residual "
                                      f"{max(resid[j], iso[j]):.2e} exceeds {VERIFY_TOL}")
            protos[i] = MergeProtocol(
                **fields, k=k, kmin=n, strategy="fallback-teleport", measurement=None,
                corrections=None, frame=f[j], probs=tuple(probs[j].tolist()),
                zero_mask=tuple(zero[j].tolist()),
            )
        posts.append((sel, list(range(live)), head, block))
    return protos, posts


def _merge_tensor(amps, regs, r_ids, a_ids, b_ids):
    """Rows of ``amps`` (states over ``regs``) as (rows, dR, dA, dB), and the registers by id."""
    held = {r.id: r for r in regs}
    dims = [math.prod(held[i].dim for i in part) for part in (r_ids, a_ids, b_ids)]
    psi3 = _group_rows(amps, regs, [*r_ids, *a_ids, *b_ids])[0]
    return psi3.reshape(len(amps), *dims), held


def _joint_tensor(psi3: np.ndarray, k: int) -> np.ndarray:
    """ψ ⊗ Φ⁺_K arranged as (…, dR, dA·k, dB·k); a stack of ψ slice by slice."""
    *lead, dr, da, db = psi3.shape
    if k == 1:
        return psi3
    eye = np.eye(k) / math.sqrt(k)
    return np.einsum("...rab,xy->...raxby", psi3, eye).reshape(*lead, dr, da * k, db * k)


def _resource_dim(kmin: int, k, da: int, mode: str) -> int:
    """K: ``k``, or ``kmin`` when None; below ``kmin`` or above dA it is refused."""
    k_eff = kmin if k is None else int(k)
    if k_eff < kmin:
        raise InsufficientResource(f"merging needs K ≥ {kmin} in mode {mode!r}, got K={k_eff}")
    if k_eff > da:
        raise DimensionMismatch(f"resource dimension K={k_eff} exceeds the merged share dimension "
                                f"{da}; the correction isometry requires K ≤ dim H^A")
    return k_eff


def _merge_fields(held, r_ids, a_ids, b_ids, *, a0_id, b0_id, receiver, b0_owner) -> dict:
    """The MergeProtocol fields set by the roles, the registers ``held`` (by id) and the ids."""
    recv = receiver if receiver is not None else (held[b_ids[0]].owner if b_ids else "B")
    return dict(
        r_ids=r_ids, a_ids=tuple(a_ids), b_ids=tuple(b_ids), a0_id=a0_id, b0_id=b0_id,
        a_dims=tuple(held[i].dim for i in a_ids), b_dims=tuple(held[i].dim for i in b_ids),
        sender=held[a_ids[0]].owner, receiver=recv,
        b0_owner=b0_owner if b0_owner is not None else recv,
    )


def build_merge_protocol(
    psi: PureState,
    roles,
    *,
    k: int | None = None,
    mode: str = "tight",
    rank_rtol: float = RANK_RTOL,
    a0_id: str = "merge:A0",
    b0_id: str = "merge:B0",
    receiver: str | None = None,
    b0_owner: str | None = None,
) -> MergeProtocol:
    """The merge of ψ's A share into B at K = ``k`` (the mode's minimal K by default).

    The one-row call of :func:`_fallback_rows` or :func:`_tight_rows`.
    """
    ids = dict(a0_id=a0_id, b0_id=b0_id, receiver=receiver, b0_owner=b0_owner)
    if mode == "fallback":
        amps, regs = psi.amplitudes[None], psi.registers
        return _fallback_rows(amps, regs, roles, k=k, rank_rtol=rank_rtol, **ids)[0][0]
    if mode != "tight":
        raise ValueError(f"unknown merge mode {mode!r}")
    (proto,) = _tight_rows([(psi.amplitudes, psi.registers, roles, ids)], k=k, rank_rtol=rank_rtol)
    if isinstance(proto, TreecastError):
        raise proto
    return proto


def _tight_rows(rows, *, k=None, rank_rtol=RANK_RTOL) -> list:
    """The tight merge of each row, built together.

    ``rows`` holds (amplitudes, registers, roles, ids) per row, ``ids``
    the keyword ids :func:`build_merge_protocol` takes; rows may differ in
    all four.  A row's K is ``k``, or its own minimal K when None.  Rows
    of one tensor shape (R′, A, B) are decomposed together (``ki_rows``);
    rows of one shape and K get their measurements together
    (:func:`_tight_measurements`), except that one needing synthesis is
    synthesized alone, and solve their corrections in one call
    (:func:`_solve_rows`).  Each protocol equals the one-row call's, bit
    for bit.  Returns per row its protocol, or the TreecastError that row
    raised, SynthesisFailed among them.
    """
    out: list = [None] * len(rows)
    shapes: dict[tuple, list] = {}
    for b, (amps, regs, roles, ids) in enumerate(rows):
        try:
            psi = PureState(regs, amps)
            parts = _parse_roles(psi, roles)
            (psi3,), held = _merge_tensor(psi.normalized().amplitudes[None], regs, *parts)
        except TreecastError as exc:
            out[b] = exc
            continue
        registers = tuple(tuple(held[i] for i in part) for part in parts)
        shapes.setdefault(psi3.shape, []).append((b, psi3, _merge_fields(held, *parts, **ids), registers))
    for (dr, da, db), items in shapes.items():
        psi3s = np.array([psi3 for _, psi3, _, _ in items])
        decs = ki_rows(psi3s, [regs for *_, regs in items], rank_rtol=rank_rtol)
        by_k: dict[int, list] = {}
        for (b, psi3, fields, _), dec in zip(items, decs):
            try:
                if isinstance(dec, TreecastError):
                    raise dec
                kmin = merge_cost_K(dec)
                by_k.setdefault(_resource_dim(kmin, k, da, "tight"), []).append((b, psi3, fields, kmin, dec))
            except TreecastError as exc:
                out[b] = exc
        for k_row, chosen in by_k.items():
            solvable = []
            measured = _tight_measurements([dec for *_, dec in chosen], da, k_row)
            for (b, psi3, fields, kmin, _), built in zip(chosen, measured):
                try:
                    if built is None:
                        g_mat = psi3.reshape(dr, da * db)
                        built = _synthesize_measurement(_joint_tensor(psi3, k_row), g_mat, da, db, k_row)
                except TreecastError as exc:
                    out[b] = exc
                    continue
                solvable.append((b, psi3, fields, kmin, built))
            if not solvable:
                continue
            psi3s = np.array([psi3 for _, psi3, *_ in solvable])
            qcols = np.array([cols for *_, (_, cols) in solvable])
            solved = _solve_rows(_joint_tensor(psi3s, k_row), psi3s.reshape(len(psi3s), dr, da * db),
                                 qcols, da, db, k_row)
            for (b, _, fields, kmin, (tag, cols)), corrections, probs, zero, resid in zip(solvable, *solved):
                if resid > VERIFY_TOL:
                    msg = f"strategy {tag!r} correction residual {resid:.2e} exceeds {VERIFY_TOL}"
                    out[b] = SynthesisFailed(msg)
                    continue
                out[b] = MergeProtocol(
                    **fields, k=k_row, kmin=kmin, strategy=tag, measurement=cols,
                    corrections=corrections, probs=tuple(probs.tolist()), zero_mask=tuple(zero.tolist()),
                )
    return out


def verify_merge(protocol: MergeProtocol, psi: PureState, tol: float = VERIFY_TOL) -> MergeReport:
    """Exhaustively check every outcome against the merge identity.

    An outcome :func:`correction_matrices` does not cover has no correction,
    so it fails unless it is dead.
    """
    ids = (protocol.r_ids, protocol.a_ids, protocol.b_ids)
    psi3 = _merge_tensor(psi.normalized().amplitudes[None], psi.registers, *ids)[0][0]
    g_vec = psi3.reshape(-1)
    q = measurement_matrix(protocol)
    comp = max(
        float(np.abs(q @ q.conj().T - np.eye(q.shape[0])).max()),
        float(np.abs(q.conj().T @ q - np.eye(q.shape[1])).max()),
    )
    blocks, probs = _outcome_blocks(_joint_tensor(psi3, protocol.k), q)
    u = correction_matrices(protocol)
    corr_resid = float(np.abs(_dagger(u) @ u - np.eye(u.shape[2])).max())
    # (U_m S_m)ᵀ flattened: the corrected branch on (R, A-copy, B)
    out = (u @ blocks[: len(u)].swapaxes(1, 2)).swapaxes(1, 2).reshape(len(u), -1)
    targets = np.sqrt(probs[: len(u)])[:, None] * g_vec
    inner = out @ g_vec.conj() * np.sqrt(probs[: len(u)])
    phases = np.ones_like(inner)
    resolved = np.abs(inner) > 1e-300
    phases[resolved] = inner[resolved] / np.abs(inner[resolved])
    deviations = np.linalg.norm(out - phases[:, None] * targets, axis=1)
    deviations = np.append(deviations, np.full(len(probs) - len(u), np.inf))
    deviations[probs < PROB_TOL] = 0.0
    max_dev = float(deviations.max()) if deviations.size else 0.0
    prob_sum = float(probs.sum())
    passed = max_dev <= tol and comp <= 100 * tol and corr_resid <= 100 * tol
    passed = passed and abs(prob_sum - 1.0) <= 1e-9
    return MergeReport(passed, max_dev, comp, prob_sum, corr_resid, tuple(deviations.tolist()))


def merge_post_states(
    protocol: MergeProtocol, psi: PureState, outcomes=None
) -> list[tuple[float, PureState]]:
    """``(probability, post-state)`` of every outcome in ``outcomes`` (all by default).

    The post-state is unnormalized and uncorrected, on (rest…, B…, B₀), B₀
    only when k > 1, with ψ grouped as X = (A…, rest): a fallback's is
    gathered from f† X, a tight one's is one contraction Q† (X ⊗ Φ⁺_K)
    (:func:`_merge_post_rows`).
    """
    probs, posts, rest = _merge_post_rows([protocol], psi.amplitudes[None], psi.registers, outcomes)
    return [(float(p), PureState(rest, post)) for p, post in zip(probs[0], posts[0])]


def _merge_post_rows(protos, amps, regs, outcomes=None):
    """Row b of ``amps`` (over ``regs``) through the measurement of ``protos[b]``.

    The protocols share K, their merged share and their kind: fallback
    rows of one rank are gathered from f† X (``_teleport_posts``), tight
    rows take one ``_bell_folded`` contraction with their columns.  Returns
    (probabilities, post rows, registers), indexed [row, outcome] for each
    outcome in ``outcomes`` (all by default), as :func:`merge_post_states`
    gives them.
    """
    k = protos[0].k
    mat = _group_rows(amps, regs, protos[0].a_ids)[0]
    if mat.shape[1] != math.prod(protos[0].a_dims):
        raise ShapeMismatch("measurement columns do not match the merged share")
    wanted = _outcome_indices(outcomes, len(protos[0].probs))
    if protos[0].frame is not None:
        posts = _teleport_posts(np.array([p.frame for p in protos]), protos[0].kmin, k, mat, wanted)[0]
    else:
        posts = _bell_folded(np.array([measurement_matrix(p)[:, wanted] for p in protos]), mat, k)
        posts = posts.reshape(len(protos), len(wanted), -1)
    return np.linalg.norm(posts, axis=-1) ** 2, posts, _post_registers(protos[0], regs)


def _post_registers(protocol: MergeProtocol, regs) -> tuple[Register, ...]:
    """The registers of ``protocol``'s post rows on states over ``regs``: (rest…, B₀), B₀ when K > 1."""
    return (*(r for r in regs if r.id not in protocol.a_ids), *_b0(protocol))


def merge_post_state(
    protocol: MergeProtocol, psi: PureState, outcome: int
) -> tuple[float, PureState]:
    """One outcome of :func:`merge_post_states`."""
    return merge_post_states(protocol, psi, [outcome])[0]


def merge_events(protocol: MergeProtocol, outcome: int) -> list[dict]:
    """The merge's events for one outcome: resource, measurement, broadcast.

    Φ⁺_K sits on the edge with A₀ at the sender and B₀ at ``b0_owner``
    (no pair when K = 1); the sender measures its share and A₀ in the
    protocol's basis and broadcasts the outcome.
    """
    sender, k = protocol.sender, protocol.k
    targets = [Register(i, d, sender) for i, d in zip(protocol.a_ids, protocol.a_dims)]
    pair = ()
    if k > 1:
        a0 = Register(protocol.a0_id, k, sender)
        pair = (a0, Register(protocol.b0_id, k, protocol.b0_owner))
        targets.append(a0)
    resource = _resource_event((protocol.b0_owner, sender), k, *pair)
    return [resource] + _measured_events(sender, measurement_matrix(protocol), targets, outcome)


def correction_event(protocol: MergeProtocol, outcome: int, matrix=None) -> dict:
    """U_m at the receiver: (B…, B₀) → (B′ = A-copy…, B…), all held by the receiver.

    A dead outcome has no correction: it raises ZeroProbabilityBranch.
    ``matrix`` stands in for U_m when given (a per-row stack).
    """
    if protocol.zero_mask[outcome]:
        msg = f"outcome {outcome} at {protocol.sender!r} has zero probability"
        raise ZeroProbabilityBranch(msg)
    recv = protocol.receiver
    b_regs = [Register(i, d, recv) for i, d in zip(protocol.b_ids, protocol.b_dims)]
    a_copy = [Register(i, d, recv) for i, d in zip(protocol.a_ids, protocol.a_dims)]
    if matrix is None:
        matrix = correction_matrices(protocol, [outcome])[0]
    return isometry_event(recv, matrix, b_regs + _b0(protocol), a_copy + b_regs)


def correction_rows_event(runs) -> dict:
    """One event applying each row's U_m: ``runs`` holds (protocol, outcomes) per run of rows.

    The rows' maps are stacked, or one map when every row walks the same
    (record, outcome).  A run of fallback records only acts on B₀:
    U_m = w_m ⊗ 1_B, so the event maps B₀ to the A-copy registers by
    w_m (:func:`_teleport_rows`), and nothing dense is built.  Otherwise
    it carries the dense U_m (:func:`correction_event`).  Every outcome
    must be live: the replay only walks live branches.
    """
    proto, outcomes = runs[0][0], np.asarray(runs[0][1])
    if any(p.frame is None for p, _ in runs):
        one = len(runs) == 1 and (outcomes == outcomes[0]).all()
        return correction_event(proto, int(outcomes[0]), None if one else correction_matrices(*runs[0], *runs[1:]))
    w, gather = _teleport_rows(runs)
    a_copy = [Register(i, d, proto.receiver) for i, d in zip(proto.a_ids, proto.a_dims)]
    return isometry_event(proto.receiver, w[0] if len(w) == 1 else w[gather], _b0(proto), a_copy)


def _b0(protocol: MergeProtocol) -> list[Register]:
    """The receiver's resource half B₀, when K > 1."""
    return [Register(protocol.b0_id, protocol.k, protocol.b0_owner)] if protocol.k > 1 else []


def measurement_matrix(protocol: MergeProtocol) -> np.ndarray:
    """The measurement columns of ``protocol``: a fallback's from its frame (:func:`_teleport_columns`)."""
    if protocol.frame is None:
        return protocol.measurement
    return _teleport_columns(protocol.frame[None], protocol.kmin, protocol.k)[0]


def _teleport_rows(runs) -> tuple[np.ndarray, np.ndarray]:
    """w_m (dA × K) of fallback ``runs``, (protocol, outcomes) each: (distinct blocks, gather).

    Each distinct (record, outcome) is derived once, in (record, outcome)
    order; ``blocks[gather]`` lists every run's outcomes in turn.
    """
    covered = [np.arange(p.k * p.kmin)[m] for p, m in runs]
    width = max(p.k * p.kmin for p, _ in runs)
    record = np.repeat(np.arange(len(runs)), [len(c) for c in covered])
    keys, gather = np.unique(record * width + np.concatenate(covered), return_inverse=True)
    record, outs = np.divmod(keys, width)
    frames, k = np.array([p.frame for p, _ in runs]), runs[0][0].k
    ranks = np.array([p.kmin for p, _ in runs])[record]
    w = np.empty((len(keys), frames.shape[1], k), dtype=complex)
    for n in set(ranks.tolist()):  # one rank, unless the rows of a stage differ
        w[ranks == n] = _teleport_blocks(frames, n, k, record[ranks == n], outs[ranks == n])
    return w, gather


def correction_matrices(protocol: MergeProtocol, outcomes=slice(None), *runs) -> np.ndarray:
    """U_m of ``protocol`` at the ``outcomes`` it covers (all by default), stacked.

    Each further (protocol, outcomes) pair in ``runs`` appends its own.  A
    fallback's U_m[(x, y), (y′, t)] = δ_{yy′} w_m[x, t] come from its frame:
    each run of consecutive fallback parts derives and expands every distinct
    (record, outcome) once (:func:`_teleport_rows`), then gathers the rows.
    """
    db, mats = math.prod(protocol.b_dims), []
    for teleport, part in groupby(((protocol, outcomes), *runs), lambda run: run[0].frame is not None):
        if not teleport:
            mats.append(np.concatenate([np.asarray(p.corrections)[m] for p, m in part]))
            continue
        w, gather = _teleport_rows(list(part))
        dense = np.zeros((len(w), w.shape[1], db * db, w.shape[2]), dtype=complex)
        dense[:, :, :: db + 1] = w[:, :, None]  # the diagonal y = y′
        dense = dense.reshape(len(w), -1, db * w.shape[2])
        mats.append(dense if np.array_equal(gather, np.arange(len(gather))) else dense[gather])
    return mats[0] if len(mats) == 1 else np.concatenate(mats)


def apply_merge_correction(protocol: MergeProtocol, outcome: int, post: PureState) -> PureState:
    """Apply U_m to a post-measurement state of :func:`merge_post_states` (one row)."""
    event = correction_event(protocol, outcome)
    amps, regs, _ = apply_event(post.amplitudes[None], post.registers, event)
    return PureState(regs, amps[0])

