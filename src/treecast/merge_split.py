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
  * fallback-teleport — rank-of-A teleport, always available.

Corrections for every strategy are solved exactly per outcome from the
linear constraint (1⊗U_m)(⟨q_m|⊗1)(ψ⊗Φ⁺_K) = √p_m ψ^{R′B′B} and
extended to isometries; a residual above tolerance raises
SynthesisFailed rather than shipping a broken protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PROB_TOL, RANK_RTOL, VERIFY_TOL
from .errors import (
    DimensionMismatch,
    InputError,
    InsufficientResource,
    SchemaError,
    ShapeMismatch,
    SynthesisFailed,
    ZeroProbabilityBranch,
)
from .koashi_imoto import (
    KiDecomposition,
    _parse_roles,
    ki_decompose,
    merge_cost_K,
)
from .tensors import (
    LinearMap,
    PureState,
    Register,
    _group_first,
    apply_map,
    check_rank_cut,
    marginal_matrix,
    max_entangled_pair,
    orthonormal_completion,
    permute_registers,
    phase_fixed,
    project_onto,
    tensor_product,
)

# -- the event interpreter ----------------------------------------------------


def apply_event(state: PureState, event: dict) -> tuple[PureState, float | None]:
    """Advance ``state`` by one protocol event; a measurement also returns its probability.

    Events are dicts keyed by ``type``, holding arrays and registers:

    * ``resource-consumed`` — attach Φ⁺_K on (``a0``, ``b0``) when given
      (a K = 1 resource attaches nothing);
    * ``local-isometry`` / ``root-correction`` — apply ``matrix`` from the
      ``in`` registers to the ``out`` registers;
    * ``measurement`` — project ``targets`` onto column ``outcome`` of
      ``basis``.  The projected state is left unnormalized and its squared
      norm is returned: the outcome's probability for a normalized input.
      Callers renormalize where they need to;
    * ``broadcast`` — classical communication, no change to the state.
    """
    kind = event.get("type")
    if kind == "resource-consumed":
        if "a0" in event:
            state = tensor_product(state, max_entangled_pair(event["a0"], event["b0"]))
        return state, None
    if kind in ("local-isometry", "root-correction"):
        op = LinearMap(tuple(event["in"]), tuple(event["out"]), event["matrix"])
        return apply_map(state, op), None
    if kind == "measurement":
        basis, outcome = event["basis"], int(event["outcome"])
        if not 0 <= outcome < basis.shape[1]:
            raise SchemaError(f"measurement outcome {outcome} outside basis")
        post = project_onto(state, [r.id for r in event["targets"]], basis[:, outcome])
        prob = float(post.norm() ** 2)
        if prob < PROB_TOL:
            raise ZeroProbabilityBranch(
                f"outcome {outcome} at {event.get('party')!r} has zero probability"
            )
        return post, prob
    if kind == "broadcast":
        return state, None
    raise SchemaError(f"unknown event type {kind!r}")


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


def _bell_folded(columns: np.ndarray, mat: np.ndarray, k: int) -> np.ndarray:
    """columns†[(a, l), m] X[a, rest] Φ⁺_K[l, l′]  →  post[m, rest, l′].

    ``columns`` are measurement columns on (a, l), l fastest, and X is
    ``mat``; Φ⁺_K = Σ_l |l⟩|l⟩/√K is folded into one matmul, so the
    resource pair is never attached.
    """
    n = columns.shape[1]
    ch = columns.conj().reshape(-1, k * n)
    return (ch.T @ mat).reshape(k, n, -1).transpose(1, 2, 0) / math.sqrt(k)


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
    """Move the ``moved_ids`` block to ``receiver`` through Φ⁺_K."""

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


def _support(psi: PureState, ids, rank_rtol: float) -> tuple[int, np.ndarray]:
    """Numerical rank and phase-fixed eigenframe (largest first) of the ``ids`` marginal.

    InputError when the rank cut drops real weight (:func:`check_rank_cut`).
    """
    vals, vecs = np.linalg.eigh(marginal_matrix(psi, list(ids)))
    top = float(vals[-1])
    rank = 0
    if top > 0.0:
        check_rank_cut(vals, rank_rtol * top)
        rank = int(np.sum(vals > rank_rtol * top))
    return rank, phase_fixed(vecs[:, ::-1])


def split_cost(psi: PureState, moved_ids, rank_rtol: float = RANK_RTOL) -> int:
    """Exact resource dimension for splitting: rank of the moved marginal."""
    return _support(psi, moved_ids, rank_rtol)[0]


def _pauli_shifts(k: int) -> np.ndarray:
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
    rank, basis = _support(psi, moved_ids, rank_rtol)
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
    shifts = _pauli_shifts(k_eff)
    return SplitProtocol(
        moved_ids=moved_ids,
        moved_dims=tuple(r.dim for r in regs),
        sender=regs[0].owner,
        receiver=receiver,
        k=k_eff,
        rank=rank,
        compress=compress,
        decompress=compress.conj().T,
        bell=_bell_columns(shifts),
        corrections=shifts,
    )


def split_events(
    protocol: SplitProtocol, psi: PureState, outcome: int
) -> tuple[list[dict], list[dict]]:
    """The split's events for one outcome, as (prefix, tail).

    The prefix does not depend on the outcome: the sender compresses the
    moved block into a K-dimensional buffer, and Φ⁺_K is consumed on
    (A₀, B₀).  The tail is the Bell measurement of (buffer, A₀), its
    broadcast, the receiver's shift correction on B₀ and the
    decompression of B₀ into the moved registers.  A block of trivial
    registers needs no teleport: the prefix is the resource and a
    relabel, and the tail is empty.
    """
    k, sender, receiver = protocol.k, protocol.sender, protocol.receiver
    moved = [psi.register(i) for i in protocol.moved_ids]
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


def split_post_states(
    protocol: SplitProtocol, psi: PureState, outcomes=None
) -> list[tuple[int, float, PureState]]:
    """Every requested split outcome at once, corrections applied.

    Returns ``(outcome, probability, state)`` per outcome in ``outcomes``
    (all K² by default), each state normalized and in the register
    layout that :func:`split_events` leaves under :func:`apply_event`.
    The compression runs through the interpreter; with its state grouped
    as X = (buf, rest…), one contraction bell† (X ⊗ Φ⁺_K)
    (``_bell_folded``), one batched shift matmul along B₀ and one
    decompression give every outcome.  A block of
    trivial registers has one branch, outcome 0, whatever ``outcomes``
    asks.
    """
    wanted = _outcome_indices(outcomes, protocol.k**2)
    prefix, tail = split_events(protocol, psi, 0)
    if not tail:  # the resource and a relabel
        for event in prefix:
            psi = apply_event(psi, event)[0]
        return [(0, 1.0, psi)]
    k, n = protocol.k, len(wanted)
    compressed = apply_event(psi, prefix[0])[0]
    mat, _, rest = _group_first(compressed, [prefix[0]["out"][0].id])
    posts = _bell_folded(protocol.bell[:, wanted], mat, k)
    probs = np.linalg.norm(posts.reshape(n, -1), axis=1) ** 2
    dead = probs < PROB_TOL
    if dead.any():
        raise ZeroProbabilityBranch(
            f"outcome {wanted[dead][0]} at {protocol.sender!r} has zero probability"
        )
    fixed = posts @ protocol.corrections[wanted].swapaxes(1, 2)
    out = (fixed @ protocol.decompress.T).reshape(n, -1)
    out /= np.linalg.norm(out, axis=1)[:, None]
    regs = tuple(rest) + tuple(tail[-1]["out"])
    return [(m, float(p), PureState(regs, amps)) for m, p, amps in zip(wanted.tolist(), probs, out)]


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

    ``measurement`` columns live on (a registers…, A₀) with A₀ omitted
    when k == 1; ``corrections[m]`` maps (b registers…, B₀) to
    (a-copy registers…, b registers…).
    """

    r_ids: tuple[str, ...]
    a_ids: tuple[str, ...]
    b_ids: tuple[str, ...]
    a_dims: tuple[int, ...]
    b_dims: tuple[int, ...]
    k: int
    kmin: int
    strategy: str
    measurement: np.ndarray
    corrections: np.ndarray  # one isometry per outcome, stacked
    probs: tuple[float, ...]
    zero_mask: tuple[bool, ...]
    a0_id: str
    b0_id: str
    sender: str
    receiver: str
    b0_owner: str


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
    """Minimal resource dimension K for merging A's share into B."""
    return _min_resource(psi, _parse_roles(psi, roles), mode, rank_rtol)[0]


def _min_resource(psi: PureState, ids, mode: str, rank_rtol: float):
    """(K, structure): K and what the merge measurement is built from.

    Tight mode gives the KI decomposition, fallback mode the phase-fixed
    eigenframe of supp(ρ^A), whose rank is K.
    """
    if mode == "tight":
        dec = ki_decompose(psi, ids, rank_rtol=rank_rtol)
        return merge_cost_K(dec), dec
    if mode == "fallback":
        rank, frame = _support(psi, ids[1], rank_rtol)
        return rank, frame[:, :rank]
    raise ValueError(f"unknown merge mode {mode!r}")


def _block_frames(dec: KiDecomposition):
    """Per block: embedded junk eigenframe columns (only valid when n = 1)."""
    frames = []
    for j, blk in enumerate(dec.blocks):
        emb = dec.a_block_embed(j)
        omega = blk.omega.amplitudes.reshape(blk.dimL_A, blk.dimL_B)
        mu = np.linalg.norm(omega, axis=0) ** 2
        lvecs = omega / np.sqrt(mu)[None, :]
        cols = emb.reshape(emb.shape[0], blk.dimL_A)[:, :] @ lvecs
        frames.append(phase_fixed(cols))
    return frames


def _fourier(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / math.sqrt(n)


def _completed_basis(head: np.ndarray, dim: int) -> np.ndarray:
    """Phase-fixed ``head`` columns followed by a completion to a basis of C^dim."""
    head = phase_fixed(head)
    return np.hstack([head, orthonormal_completion(head, dim)])


def _shift_injection(frames: np.ndarray, k: int) -> np.ndarray:
    """Shift-injection measurement columns on (share, A₀).

    ``frames[j, a]`` holds orthonormal share vectors (j < m, a < n).  With
    y[c, a] = frames[c // k, a] ⊗ |c mod k⟩ and kj = m·k, the head columns
    are v_{p,q} = n^{-1/2} Σ_a ω^{qa} y[(p+a) mod kj, a] at p·n + q: a
    teleport whose resource index is offset by the content index a.
    """
    m, n, da = frames.shape
    kj = m * k
    y = np.einsum("jax,st->jsaxt", frames, np.eye(k)).reshape(kj, n, da * k)
    shifted = y[(np.arange(kj)[:, None] + np.arange(n)) % kj, np.arange(n)]
    return np.einsum("qa,pad->dpq", _fourier(n), shifted).reshape(da * k, kj * n)


def _tight_measurement(dec: KiDecomposition, da: int, k: int):
    """Measurement columns (dA·k × dA·k) and the strategy tag, or None."""
    ns = [blk.dimR_A for blk in dec.blocks]
    j_count = len(dec.blocks)
    if all(n == 1 for n in ns):
        frames = _block_frames(dec)
        support = np.hstack(frames)
        if j_count == 1:
            tag = "single-block"
            head = support
        else:
            tag = "scalar-fourier"
            head = support @ _fourier(support.shape[1]).conj()
        a_cols = _completed_basis(head, da)
        cols = np.kron(a_cols, _fourier(k).conj()) if k > 1 else a_cols
        return tag, cols
    if j_count == 1:
        blk = dec.blocks[0]
        m, n = blk.dimL_A, blk.dimR_A
        if m == 1:
            tag = "single-block"
        elif abs(blk.lambda0 - 1.0 / m) < 1e-9:
            # the junk pair and Φ⁺_K act as one m·k-dimensional resource
            tag = "uniform-junk"
        else:
            return None
        if m * k < n:
            return None
        frames = dec.a_block_embed(0).reshape(da, m, n).transpose(1, 2, 0)
        return tag, _completed_basis(_shift_injection(frames, k), da * k)
    return None


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
    """Every outcome's block ⟨q_m|Ψ as (n_out, dR, dB·k), and its probability."""
    dr, dak, dbk = big.shape
    flat = big.transpose(1, 0, 2).reshape(dak, dr * dbk)
    blocks = (qcols.conj().T @ flat).reshape(-1, dr, dbk)
    probs = np.linalg.norm(blocks.reshape(len(blocks), -1), axis=1) ** 2
    return blocks, probs


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _solve_corrections(big, g_mat, qcols, da, db, k):
    """Exact isometries from (1⊗U_m)(⟨q_m|⊗1)Ψ = √p_m G, all outcomes at once.

    One batched SVD of the stacked S_m = (⟨q_m|Ψ)ᵀ gives V_m with the
    completion of its range as trailing columns.  Outcomes are grouped by
    numerical rank r; per group one complete QR of the image W_m gives
    its completion, and U_m = W_m V_m† + W′_m V′_m†.
    """
    dbk = db * k
    dadb = da * db
    blocks, probs = _outcome_blocks(big, qcols)
    zero = probs < PROB_TOL
    probs[zero] = 0.0
    corrections = np.empty((len(probs), dadb, dbk), dtype=complex)
    corrections[zero] = np.eye(dadb, dbk)
    max_resid = 0.0
    live = np.flatnonzero(~zero)
    if live.size:
        s_mats = blocks[live].swapaxes(1, 2)  # L × dbk × dR
        t_mats = np.sqrt(probs[live])[:, None, None] * g_mat.T  # L × dadb × dR
        v_full, sig, w_sh = np.linalg.svd(s_mats, full_matrices=True)
        ranks = np.sum(sig > np.maximum(sig[:, :1], 1e-300) * 1e-12, axis=1)
        for r in np.unique(ranks):
            sel = np.flatnonzero(ranks == r)
            v_s, v_comp = v_full[sel, :, :r], v_full[sel, :, r:]
            w_img = t_mats[sel] @ _dagger(w_sh[sel, :r]) / sig[sel, None, :r]
            iso_resid = np.abs(_dagger(w_img) @ w_img - np.eye(r)).max()
            w_comp = np.linalg.qr(w_img, mode="complete")[0][:, :, r:dbk]
            u = w_img @ _dagger(v_s) + w_comp @ _dagger(v_comp)
            resid = np.linalg.norm(
                (u @ s_mats[sel] - t_mats[sel]).reshape(len(sel), -1), axis=1
            ).max()
            corrections[live[sel]] = u
            max_resid = max(max_resid, float(resid), float(iso_resid))
    return corrections, tuple(probs.tolist()), tuple(zero.tolist()), max_resid


def _joint_tensor(psi3: np.ndarray, k: int) -> np.ndarray:
    """ψ ⊗ Φ⁺_K arranged as (dR, dA·k, dB·k)."""
    dr, da, db = psi3.shape
    if k == 1:
        return psi3
    eye = np.eye(k) / math.sqrt(k)
    return np.einsum("rab,xy->raxby", psi3, eye).reshape(dr, da * k, db * k)


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
    r_ids, a_ids, b_ids = _parse_roles(psi, roles)
    perm = permute_registers(psi.normalized(), list(r_ids) + list(a_ids) + list(b_ids))
    a_regs = [perm.register(i) for i in a_ids]
    b_regs = [perm.register(i) for i in b_ids]
    dr = math.prod(perm.register(i).dim for i in r_ids)
    da = math.prod(r.dim for r in a_regs)
    db = math.prod(r.dim for r in b_regs)
    psi3 = perm.amplitudes.reshape(dr, da, db)
    g_mat = psi3.reshape(dr, da * db)

    kmin, structure = _min_resource(psi, (r_ids, a_ids, b_ids), mode, rank_rtol)
    k_eff = kmin if k is None else int(k)
    if k_eff < kmin:
        raise InsufficientResource(
            f"merging needs K ≥ {kmin} in mode {mode!r}, got K={k_eff}"
        )
    if k_eff > da:
        raise DimensionMismatch(
            f"resource dimension K={k_eff} exceeds the merged share dimension "
            f"{da}; the correction isometry requires K ≤ dim H^A"
        )

    big = _joint_tensor(psi3, k_eff)
    if mode == "fallback":
        qcols = _completed_basis(_shift_injection(structure.T[None], k_eff), da * k_eff)
        tag = "fallback-teleport"
    else:
        built = _tight_measurement(structure, da, k_eff)
        if built is None:
            tag, qcols = _synthesize_measurement(big, g_mat, da, db, k_eff)
        else:
            tag, qcols = built

    corrections, probs, zero_mask, resid = _solve_corrections(big, g_mat, qcols, da, db, k_eff)
    if resid > VERIFY_TOL:
        raise SynthesisFailed(
            f"strategy {tag!r} correction residual {resid:.2e} exceeds {VERIFY_TOL}"
        )
    recv = receiver if receiver is not None else (b_regs[0].owner if b_regs else "B")
    return MergeProtocol(
        r_ids=r_ids,
        a_ids=tuple(a_ids),
        b_ids=tuple(b_ids),
        a_dims=tuple(r.dim for r in a_regs),
        b_dims=tuple(r.dim for r in b_regs),
        k=k_eff,
        kmin=kmin,
        strategy=tag,
        measurement=qcols,
        corrections=corrections,
        probs=probs,
        zero_mask=zero_mask,
        a0_id=a0_id,
        b0_id=b0_id,
        sender=a_regs[0].owner,
        receiver=recv,
        b0_owner=b0_owner if b0_owner is not None else recv,
    )


def verify_merge(protocol: MergeProtocol, psi: PureState, tol: float = VERIFY_TOL) -> MergeReport:
    """Exhaustively check every outcome against the merge identity."""
    perm = permute_registers(
        psi.normalized(),
        list(protocol.r_ids) + list(protocol.a_ids) + list(protocol.b_ids),
    )
    da = math.prod(protocol.a_dims)
    db = math.prod(protocol.b_dims)
    dr = perm.dim // (da * db)
    psi3 = perm.amplitudes.reshape(dr, da, db)
    g_vec = psi3.reshape(-1)
    q = protocol.measurement
    comp = max(
        float(np.abs(q @ q.conj().T - np.eye(q.shape[0])).max()),
        float(np.abs(q.conj().T @ q - np.eye(q.shape[1])).max()),
    )
    blocks, probs = _outcome_blocks(_joint_tensor(psi3, protocol.k), q)
    u = np.asarray(protocol.corrections)
    corr_resid = float(np.abs(_dagger(u) @ u - np.eye(u.shape[2])).max())
    # (U_m S_m)ᵀ flattened: the corrected branch on (R, A-copy, B)
    out = (u @ blocks.swapaxes(1, 2)).swapaxes(1, 2).reshape(len(probs), -1)
    targets = np.sqrt(probs)[:, None] * g_vec
    inner = out @ g_vec.conj() * np.sqrt(probs)
    phases = np.ones_like(inner)
    resolved = np.abs(inner) > 1e-300
    phases[resolved] = inner[resolved] / np.abs(inner[resolved])
    deviations = np.linalg.norm(out - phases[:, None] * targets, axis=1)
    deviations[probs < PROB_TOL] = 0.0
    max_dev = float(deviations.max()) if deviations.size else 0.0
    prob_sum = float(probs.sum())
    passed = (
        max_dev <= tol
        and comp <= 100 * tol
        and corr_resid <= 100 * tol
        and abs(prob_sum - 1.0) <= 1e-9
    )
    return MergeReport(
        passed=passed,
        max_deviation=max_dev,
        completeness=comp,
        prob_sum=prob_sum,
        correction_residual=corr_resid,
        deviations=tuple(deviations.tolist()),
    )


def merge_post_states(
    protocol: MergeProtocol, psi: PureState, outcomes=None
) -> list[tuple[float, PureState]]:
    """Measure (A…, A₀) for every outcome at once; corrections NOT applied.

    Returns ``(probability, post-state)`` per outcome in ``outcomes``
    (all of them by default): the exact branch probability and the
    unnormalized post-measurement state on (rest…, B…, B₀) — B₀ only when
    k > 1.  With ψ grouped as X = (A…, rest), every outcome comes from one
    contraction Q† (X ⊗ Φ⁺_K) (``_bell_folded``).
    """
    probs, posts, rest = _merge_post_rows(protocol, psi, outcomes)
    return [(float(p), PureState(rest, post)) for p, post in zip(probs, posts)]


def _merge_post_rows(protocol: MergeProtocol, psi: PureState, outcomes=None):
    """:func:`merge_post_states` as arrays: (probabilities, post rows, registers)."""
    k = protocol.k
    mat, _, rest = _group_first(psi, protocol.a_ids)
    q = protocol.measurement
    if mat.shape[0] * k != q.shape[0]:
        raise ShapeMismatch("measurement columns do not match the merged share")
    wanted = _outcome_indices(outcomes, q.shape[1])
    posts = _bell_folded(q[:, wanted], mat, k).reshape(len(wanted), -1)
    if k > 1:
        rest.append(Register(protocol.b0_id, k, protocol.b0_owner))
    probs = np.linalg.norm(posts, axis=1) ** 2
    return probs, posts, tuple(rest)


def merge_post_state(
    protocol: MergeProtocol, psi: PureState, outcome: int
) -> tuple[float, PureState]:
    """One outcome of :func:`merge_post_states`."""
    ((prob, post),) = merge_post_states(protocol, psi, [outcome])
    return prob, post


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
    return [resource] + _measured_events(sender, protocol.measurement, targets, outcome)


def correction_event(protocol: MergeProtocol, outcome: int) -> dict:
    """U_m at the receiver: (B…, B₀) → (B′ = A-copy…, B…), all held by the receiver."""
    recv = protocol.receiver
    b_regs = [Register(i, d, recv) for i, d in zip(protocol.b_ids, protocol.b_dims)]
    b0 = [Register(protocol.b0_id, protocol.k, protocol.b0_owner)] if protocol.k > 1 else []
    a_copy = [Register(i, d, recv) for i, d in zip(protocol.a_ids, protocol.a_dims)]
    return isometry_event(recv, protocol.corrections[outcome], b_regs + b0, a_copy + b_regs)


def apply_merge_correction(
    protocol: MergeProtocol, outcome: int, post: PureState
) -> PureState:
    """Apply U_m to a post-measurement state of :func:`merge_post_states`."""
    return apply_event(post, correction_event(protocol, outcome))[0]

