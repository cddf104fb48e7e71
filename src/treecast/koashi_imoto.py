"""Block decomposition of a tripartite pure state and the merging cost.

For a pure state on R′ ⊗ A ⊗ B this module computes the decomposition

    H^A = ⊕_j a_j^L ⊗ a_j^R,    H^B ⊇ ⊕_j b_j^L ⊗ b_j^R,
    |ψ⟩ = ⊕_j √p_j |ω_j⟩^{a_j^L b_j^L} ⊗ |φ_j⟩^{R′ a_j^R b_j^R},

separating the part of A that is redundant with B (the junk ω_j) from
the part genuinely correlated with the reference R′.  The cost of
handing A's share to B is K = max_j ⌈λ₀(j)·dim a_j^R⌉ with λ₀ the top
junk eigenvalue.

Algorithm: restrict to the marginal supports, form the B-contracted
transfer operators T_{rr′}, and compute their joint commutant by one
null-space solve.  The commutant is ⊕_c M_m ⊗ 1_n in some frame, and
one pass over two generic elements of it reads off every block: the
eigenspaces of a Hermitian one are the (c, l) slots, another links the
slots of one c and aligns their n-side frames.  These blocks can cut
finer than the redundancy structure (they also separate distinct junk
eigenvalues), so a greedy merge pass follows.  Each block's content
transfer operators φ_r φ_{r′}† act irreducibly on a^R, so by Schur's
lemma the commutant of diag(T^i, T^j) has dimension 4 exactly when φ_i
and φ_j agree up to local unitaries; its off-diagonal corner then gives
the unitary that aligns the two frames, and the pair is re-united, gated
by a certificate that the united block still factors as ω ⊗ φ.  A pair
whose R′ marginals differ cannot agree so, and is rejected before the
commutant is solved.  Every emitted decomposition is re-verified
against the input state.  ``ki_rows`` runs all of this on a stack of
states at once, and ``ki_decompose`` is its one-row call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DISCARD_TOL, RANK_RTOL, VERIFY_TOL
from .errors import BadPermutation, NumericalDegeneracy, ShapeMismatch, TreecastError
from .tensors import PureState, Register, _dagger, check_rank_cut, permute_registers, phase_fixed, row_norms

_CLUSTER_COARSE = 1e-7
_CLUSTER_FINE = 1e-10
_RESAMPLE_BUDGET = 5


@dataclass(frozen=True)
class KiBlock:
    """One direct summand: junk ω_j on (a^L, b^L), content φ_j on (R′, a^R, b^R)."""

    j: int
    p: float
    dimL_A: int
    dimR_A: int
    dimL_B: int
    dimR_B: int
    omega: PureState
    phi: PureState
    lambda0: float


@dataclass(frozen=True)
class KiDecomposition:
    """All blocks plus the isometries locating them inside H^A and H^B.

    ``embed_A`` has one column per (block, l, ρ) with l slowest within a
    block; ``embed_B`` one column per (block, s, t).
    """

    blocks: tuple[KiBlock, ...]
    embed_A: np.ndarray
    embed_B: np.ndarray
    r_registers: tuple[Register, ...]
    a_registers: tuple[Register, ...]
    b_registers: tuple[Register, ...]

    def a_offset(self, j: int) -> int:
        return sum(b.dimL_A * b.dimR_A for b in self.blocks[:j])

    def b_offset(self, j: int) -> int:
        return sum(b.dimL_B * b.dimR_B for b in self.blocks[:j])

    def a_block_embed(self, j: int) -> np.ndarray:
        blk = self.blocks[j]
        off = self.a_offset(j)
        return self.embed_A[:, off : off + blk.dimL_A * blk.dimR_A]


def merge_cost_K(dec: KiDecomposition) -> int:
    """K = max_j ⌈λ₀(j) · dim a_j^R⌉ (at least 1)."""
    k = 1
    for blk in dec.blocks:
        k = max(k, math.ceil(blk.lambda0 * blk.dimR_A - 1e-9))
    return k


def spread_rank_bound(dec: KiDecomposition) -> int:
    """rank ρ^A = Σ_j dimL_A · dimR_A; always ≥ merge_cost_K."""
    bound = sum(blk.dimL_A * blk.dimR_A for blk in dec.blocks)
    if merge_cost_K(dec) > bound:
        raise NumericalDegeneracy("block data violates K ≤ rank(ρ^A)")
    return bound


def rebuild(dec: KiDecomposition) -> PureState:
    """Reassemble ⊕_j √p_j ω_j ⊗ φ_j on the original registers (R′, A, B).

    Per reference index r the state is embed_A · (⊕_j √p_j ω_j ⊗ φ_j[r]) ·
    embed_Bᵀ, so the whole sum is two matmuls over one block-diagonal core.
    """
    dR = math.prod(r.dim for r in dec.r_registers)
    core = np.zeros((dR, dec.embed_A.shape[1], dec.embed_B.shape[1]), dtype=complex)
    for j, blk in enumerate(dec.blocks):
        m, n = blk.dimL_A, blk.dimR_A
        nL, nR = blk.dimL_B, blk.dimR_B
        omega = blk.omega.amplitudes.reshape(1, m, 1, nL, 1)
        phi = blk.phi.amplitudes.reshape(dR, 1, n, 1, nR)
        a0, b0 = dec.a_offset(j), dec.b_offset(j)
        core[:, a0 : a0 + m * n, b0 : b0 + nL * nR] = (
            math.sqrt(blk.p) * (omega * phi).reshape(dR, m * n, nL * nR)
        )
    out = dec.embed_A @ core @ dec.embed_B.T
    regs = dec.r_registers + dec.a_registers + dec.b_registers
    return PureState(regs, out.reshape(-1))


# -- internals ---------------------------------------------------------------


def _marginal(x: np.ndarray, axis: int) -> np.ndarray:
    """Reduced matrix of one axis of a pure-state tensor: Σ_rest x x*."""
    return _marginals(x[None], axis + 1)[0]


def _marginals(x: np.ndarray, axis: int) -> np.ndarray:
    """:func:`_marginal` of each row of a stack (rows, …); ``axis`` counts the rows axis."""
    rows = x.swapaxes(1, axis).reshape(len(x), x.shape[axis], -1)
    return rows @ _dagger(rows)


def _frame_position(emb3: np.ndarray, axis: int) -> np.ndarray:
    """The A position operator as one factor of a block frame sees it.

    ``emb3`` is shaped (A, a^L, a^R), or a stack of such.  Axis 1 gives
    Σ_{a,q} emb3[a,l,q]* a emb3[a,k,q]; axis 2 gives
    Σ_{a,l} emb3[a,l,p]* a emb3[a,l,q].  Either is one weighted Gram
    matmul on the rows (a, other factor).
    """
    *lead, d_a, _, _ = emb3.shape
    rows = emb3.swapaxes(axis - 3, -1).reshape(*lead, -1, emb3.shape[axis - 3])
    pos = np.repeat(np.arange(d_a, dtype=float), rows.shape[-2] // d_a)
    return (_dagger(rows) * pos) @ rows


def _a_coords(psi3: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """ψ's A index in the columns of ``frame``: shape (R′, cols, B); stacks slice by slice."""
    return _dagger(frame)[..., None, :, :] @ psi3


def _b_frame(flat: np.ndarray, lvecs: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """w[s, t, b] = Σ_{r,l,q} χ[r,l,q,b] lvecs[l,s]* evecs[(r,q),t]*; stacks slice by slice.

    ``flat`` holds χ with rows (r, q) and columns (l, b); contracting
    (r, q) and then l is two matmuls.
    """
    *lead, m, _ = lvecs.shape
    per_t = (_dagger(evecs) @ flat).reshape(*lead, evecs.shape[-1], m, -1)
    return (_dagger(lvecs)[..., None, :, :] @ per_t).swapaxes(-3, -2)


def _rank_cut(vals: np.ndarray, rank_rtol: float) -> float:
    """The rank cutoff of a descending marginal spectrum.

    Raises InputError when the cut drops real weight
    (:func:`~treecast.tensors.check_rank_cut`), as every rank decision
    does, and otherwise NumericalDegeneracy when an eigenvalue sits
    inside the ambiguity band around the cutoff.
    """
    top = max(float(vals[0]), 0.0)
    if top <= 0.0:
        raise ShapeMismatch("zero marginal has no support")
    cut = rank_rtol * top
    check_rank_cut(vals, cut)
    band = (vals > cut / 16) & (vals < cut * 16)
    if band.any():
        raise NumericalDegeneracy(
            "marginal eigenvalue falls inside the rank tolerance band"
        )
    return cut


def _commutant_basis(ops, dim: int) -> np.ndarray:
    """Basis of {X : [X, T] = 0 for all T} via one stacked null space, as a stack.

    Singular values are thresholded against the scale of the generating
    operators themselves, not of the stacked commutator matrix — when
    every T is (near) proportional to the identity, the stacked matrix
    is pure floating-point noise and a relative cutoff would mistake
    that noise for genuine constraints.
    """
    return _commutant_bases(np.asarray(ops)[None], dim)[0][1][0]


def _commutant_bases(ops: np.ndarray, dim: int) -> list[tuple[list[int], np.ndarray]]:
    """:func:`_commutant_basis` of each row's operators (rows, T, dim, dim), by one stacked SVD.

    Returns (rows, their bases stacked) per commutant dimension.
    """
    scale = np.linalg.norm(ops, axis=(-2, -1)).max(axis=-1)
    stack = _commutator_stack(ops, dim)
    # only vh is read: a tall stack's reduced SVD already holds all of it
    _, sv, vh = np.linalg.svd(stack, full_matrices=stack.shape[-2] < stack.shape[-1])
    ranks = np.sum(sv > 1e-10 * scale[:, None], axis=1)
    ranks[scale <= 0.0] = 0
    vh[scale <= 0.0] = np.eye(dim * dim)
    out = []
    for rank in sorted(set(ranks.tolist())):
        sel = np.flatnonzero(ranks == rank)
        out.append((sel.tolist(), vh[sel, rank:].conj().reshape(len(sel), -1, dim, dim)))
    return out


def _commutator_stack(ops, dim: int) -> np.ndarray:
    """Rows of kron(1, Tᵀ) − kron(T, 1) for every T, from one broadcast; stacks slice by slice.

    Row (T, i, j), column (k, l) holds δ_ik T_lj − T_ik δ_jl, each entry
    the same product and difference ``np.kron`` forms.
    """
    t = np.asarray(ops)
    eye = np.eye(dim)
    stacked = (
        eye[:, None, :, None] * t.swapaxes(-1, -2)[..., :, None, :, None, :]
        - t[..., :, :, None, :, None] * eye[None, :, None, :]
    )
    return stacked.reshape(*t.shape[:-3], -1, dim * dim)


def _generic_element(basis, rng) -> np.ndarray:
    """Σ_x (a_x + i b_x) x, with every a_x, b_x from one draw; a stack of bases takes one draw for all."""
    a, b = rng.standard_normal((2, basis.shape[-3]))
    flat = basis.reshape(*basis.shape[:-2], -1)
    return ((a + 1j * b) @ flat).reshape(basis.shape[:-3] + basis.shape[-2:])


def _cluster(vals: np.ndarray):
    """Group sorted eigenvalues by gaps; None when a gap is ambiguous."""
    scale = max(float(vals[-1] - vals[0]), float(np.abs(vals).max()), 1e-300)
    gaps = np.diff(vals)
    if ((gaps > _CLUSTER_FINE * scale) & (gaps <= _CLUSTER_COARSE * scale)).any():
        return None
    return _degenerate_groups(vals, _CLUSTER_COARSE * scale)


def _block_frames(comm, rng) -> list[tuple[np.ndarray, int, int]]:
    """Tensor frame V, m and n of each block of the commutant ⊕_c M_m ⊗ 1_n.

    V's columns run over (l, ρ), l slowest.  A generic Hermitian element
    is ⊕_c h_c ⊗ 1_n with simple spectra, so its eigenspaces are one slot
    per (c, l), each of dimension n.  A generic element G links slots a
    and b (V_a† G V_b ≠ 0) exactly when they lie in one c, and P_a G w₀,
    normalized, carries the first slot's frame w₀ onto slot a.
    """
    for _ in range(_RESAMPLE_BUDGET):
        y = _generic_element(comm, rng)
        vals, vecs = np.linalg.eigh(y + y.conj().T)
        groups = _cluster(vals)
        if groups is not None:
            frames = _linked_frames(vecs, groups, _generic_element(comm, rng))
            if frames is not None:
                return frames
    raise NumericalDegeneracy("commutant block structure could not be resolved")


def _linked_frames(vecs, groups, g):
    """Group the eigenspace slots ``groups`` of ``vecs`` into blocks through ``g``.

    None when the links do not describe a block structure: slots of
    unequal size in one block, a link between two blocks, or a frame
    that is not orthonormal.
    """
    tol = 1e-8 * max(1.0, float(np.linalg.norm(g)))
    starts = [a for a, _ in groups]
    links = vecs.conj().T @ g @ vecs
    sq = np.add.reduceat(np.add.reduceat(np.abs(links) ** 2, starts, axis=0), starts, axis=1)
    linked = sq > tol * tol
    label = np.full(len(groups), -1)
    frames = []
    for first, (a0, b0) in enumerate(groups):
        if label[first] >= 0:
            continue
        later = range(first + 1, len(groups))
        members = [first] + [a for a in later if label[a] < 0 and linked[a, first]]
        label[members] = len(frames)
        n = b0 - a0
        cols = [vecs[:, a0:b0]]
        for a in members[1:]:
            lo, hi = groups[a]
            if hi - lo != n:
                return None
            t = vecs[:, lo:hi] @ links[lo:hi, a0:b0]
            z = float(np.linalg.norm(t[:, 0]))
            if z <= tol:
                return None
            cols.append(t / z)
        v = np.hstack(cols)
        if not np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() < 1e-8:
            return None
        frames.append((v, len(members), n))
    if (linked & (label[:, None] != label[None, :])).any():
        return None
    return frames


@dataclass
class _BlockData:
    """Working record for one (candidate) block during refinement."""

    emb: np.ndarray  # dA × (m·n), columns (l, ρ) with l slowest
    m: int
    n: int
    p: float
    mu: np.ndarray  # junk spectrum, descending (length m)
    lvecs: np.ndarray  # m × m junk eigenframe
    nu: np.ndarray  # content spectrum, descending (length nR)
    evecs: np.ndarray  # (dR·n) × nR content eigenframe
    w: np.ndarray  # dB × (m·nR) B-side frame, (s, t) with s slowest

    @property
    def fingerprint(self):
        proj = self.emb @ self.emb.conj().T
        return tuple(np.round(proj, 6).reshape(-1).view(float))


def _degenerate_groups(vals: np.ndarray, atol: float):
    groups, start = [], 0
    for k in range(1, len(vals)):
        if abs(float(vals[k] - vals[k - 1])) > atol:
            groups.append((start, k))
            start = k
    groups.append((start, len(vals)))
    return groups


def _extract_block(psi3: np.ndarray, emb: np.ndarray, m: int, n: int, rank_rtol: float):
    """Factor ψ's component in the block as ω ⊗ φ; None if it does not factor.

    The one-row call of :func:`_extract_rows`.
    """
    return _extract_rows(psi3[None], emb[None], m, n, rank_rtol)[0]


def _extract_rows(psi3, emb, m: int, n: int, rank_rtol: float) -> list:
    """:func:`_extract_block` of each (ψ, frame) pair, stacked as (pairs, R′, A, B) and (pairs, A, m·n).

    Frame gauges left open by degenerate spectra are pinned against the
    computational position operator so repeated runs (and the worked
    branch displays built on top) come out in a fixed basis.  A 1×1
    junk factor (m = 1) has no gauge: its eigenframe is 1 and its
    spectrum the marginal itself, as ``eigh`` gives them.  Each pair's
    data equals the one-pair call's, bit for bit.
    """
    pairs, dR, dA, dB = psi3.shape
    if n > 1:
        _, gauge = np.linalg.eigh(_frame_position(emb.reshape(pairs, dA, m, n), 2))
        emb = (emb.reshape(pairs, dA, m, n) @ gauge[:, None]).reshape(pairs, dA, m * n)
    emb3 = emb.reshape(pairs, dA, m, n)

    chi = _a_coords(psi3, emb)
    probs = [float(x**2) for x in row_norms(chi.reshape(pairs, -1))[:, 0]]
    out: list = [None] * pairs
    live = [i for i, p in enumerate(probs) if p >= 1e-24]
    if not live:
        return out
    p = np.array(probs)[live]
    emb, emb3 = emb[live], emb3[live]
    chi = (chi[live] / np.sqrt(p)[:, None, None, None]).reshape(len(live), dR, m, n, dB)

    marg = _marginals(chi, 2)
    if m == 1:
        mu, lvecs = marg.real[:, 0], np.ones((len(live), 1, 1), dtype=complex)
    else:
        mu, lvecs = np.linalg.eigh(marg)
        mu, lvecs = mu[:, ::-1].copy(), lvecs[:, :, ::-1].copy()
        for i in range(len(live)):
            for a, b in _degenerate_groups(mu[i], 1e-9 * float(mu[i, 0])):
                if b - a < 2:
                    continue
                sub = lvecs[i, :, a:b]
                _, u = np.linalg.eigh(sub.conj().T @ _frame_position(emb3[i], 1) @ sub)
                lvecs[i, :, a:b] = sub @ u
        lvecs = np.ascontiguousarray(phase_fixed(lvecs))

    flat = chi.transpose(0, 1, 3, 2, 4).reshape(len(live), dR * n, m * dB)
    nu, evecs = np.linalg.eigh(flat @ _dagger(flat))
    nu, evecs = nu[:, ::-1].copy(), evecs[:, :, ::-1].copy()
    ranks = [int(np.sum(row > rank_rtol * row[0])) for row in nu]
    fills = mu[:, -1] >= rank_rtol * mu[:, 0]  # a junk marginal must fill the block
    for n_r in sorted(set(ranks)):
        sel = [i for i, r in enumerate(ranks) if r == n_r and fills[i]]
        if not sel:
            continue
        nu_s, vecs = nu[sel, :n_r].copy(), evecs[sel, :, :n_r].copy()
        for i, row in enumerate(sel):
            for a, b in _degenerate_groups(nu_s[i], 1e-9 * float(nu_s[i, 0])):
                if b - a < 2:
                    continue
                big = np.kron(np.diag(np.arange(dR, dtype=float)) * (dA + 1.0), np.eye(n)) + np.kron(
                    np.eye(dR), _frame_position(emb3[row], 2)
                )
                sub = vecs[i, :, a:b]
                _, u = np.linalg.eigh(sub.conj().T @ big @ sub)
                vecs[i, :, a:b] = sub @ u
        vecs = np.ascontiguousarray(phase_fixed(vecs))
        norms = np.sqrt(mu[sel][:, :, None] * nu_s[:, None, :])[..., None]
        w = (_b_frame(flat[sel], lvecs[sel], vecs) / norms).reshape(len(sel), m * n_r, dB).swapaxes(1, 2)
        bad = np.abs(_dagger(w) @ w - np.eye(m * n_r)).max(axis=(1, 2)) > 1e-8
        for i, row in enumerate(sel):
            if not bad[i]:
                out[live[row]] = _BlockData(emb=emb[row], m=m, n=n, p=float(p[row]), mu=mu[row],
                                            lvecs=lvecs[row], nu=nu_s[i], evecs=vecs[i], w=w[i])
    return out


def _transfer_ops(slices: np.ndarray) -> np.ndarray:
    """Hermitian and anti-Hermitian parts of every T_{rr′} = X_r X_{r′}†; stacks slice by slice.

    One broadcast matmul; the (2R², d, d) stack runs over (r, r′, part)
    with the Hermitian part first.
    """
    t = slices[..., :, None, :, :] @ _dagger(slices)[..., None, :, :, :]
    t_h = _dagger(t)
    parts = np.stack([t + t_h, 1j * (t - t_h)], axis=-3)
    return parts.reshape(*slices.shape[:-3], -1, *t.shape[-2:])


def _intertwiner(fi: np.ndarray, fj: np.ndarray) -> np.ndarray | None:
    """Unitary u with T^i u = u T^j for every transfer operator of two contents.

    ``fi`` and ``fj`` are shaped (R′, a^R, b^R), and each one's T act
    irreducibly on a^R.  By Schur's lemma the commutant of diag(T^i, T^j)
    then has dimension 4 if the contents agree up to local unitaries (the
    upper-right corner of each element is a multiple of u) and 2 if not.
    """
    d_r, n, n_r = fi.shape
    both = np.zeros((d_r, 2 * n, 2 * n_r), dtype=complex)
    both[:, :n, :n_r] = fi
    both[:, n:, n_r:] = fj
    comm = _commutant_basis(_transfer_ops(both), 2 * n)
    if len(comm) != 4:
        return None
    corner = max((x[:n, n:] for x in comm), key=np.linalg.norm)
    uu, _, vh = np.linalg.svd(corner)
    return uu @ vh


def _try_merge(psi3, bi: _BlockData, bj: _BlockData, dR: int, rank_rtol: float):
    """Candidate union of two blocks; None unless the union re-certifies.

    With T^i u = u T^j, block j's content in the frame bj.emb·(1 ⊗ u†)
    equals φ_i up to a unitary on b^R, which ``_extract_block`` absorbs.
    """
    if bi.n != bj.n or bi.nu.size != bj.nu.size or not np.allclose(bi.nu, bj.nu, atol=1e-7):
        return None
    fi, fj = ((b.evecs * np.sqrt(b.nu)).reshape(dR, b.n, -1) for b in (bi, bj))
    if np.abs(_marginal(fi, 0) - _marginal(fj, 0)).max() > 1e-7:
        return None  # the R′ marginals Tr T_{rr′} differ, so no intertwiner exists
    u = _intertwiner(fi, fj)
    if u is None:
        return None
    emb = np.hstack([bi.emb, bj.emb @ np.kron(np.eye(bj.m), u.conj().T)])
    return _extract_block(psi3, emb, bi.m + bj.m, bi.n, rank_rtol)


def _canonical_order(blocks: list[_BlockData]) -> list[_BlockData]:
    """Blocks by descending p, then n, then m; the frame's fingerprint breaks only ties of those."""
    keys = [(-round(b.p, 9), b.n, b.m) for b in blocks]
    tied = {key for key in keys if keys.count(key) > 1}
    fingerprints = [b.fingerprint if key in tied else () for b, key in zip(blocks, keys)]
    order = sorted(range(len(blocks)), key=lambda i: (keys[i], fingerprints[i]))
    return [blocks[i] for i in order]


def _parse_roles(psi: PureState, roles):
    if isinstance(roles, dict):
        r_ids = tuple(roles.get("R", ()))
        a_ids = tuple(roles["A"])
        b_ids = tuple(roles.get("B", ()))
    else:
        r_ids, a_ids, b_ids = (tuple(x) for x in roles)
    if not a_ids:
        raise BadPermutation("A-side of the role partition is empty")
    claimed = list(r_ids) + list(a_ids) + list(b_ids)
    if sorted(claimed) != sorted(psi.ids):
        raise BadPermutation("roles must partition the state's registers")
    return r_ids, a_ids, b_ids


def ki_decompose(
    psi: PureState,
    roles,
    *,
    rank_rtol: float = RANK_RTOL,
) -> KiDecomposition:
    """Decompose ψ^{R′AB}; ``roles`` maps "R"/"A"/"B" to register id sets.

    The one-row call of :func:`ki_rows`.
    """
    ids = _parse_roles(psi, roles)
    perm = permute_registers(psi.normalized(), [i for part in ids for i in part])
    regs = tuple(tuple(perm.register(i) for i in part) for part in ids)
    dims = [math.prod(r.dim for r in part) for part in regs]
    (dec,) = ki_rows(perm.amplitudes.reshape(1, *dims), [regs], rank_rtol=rank_rtol)
    if isinstance(dec, TreecastError):
        raise dec
    return dec


def ki_rows(psi3: np.ndarray, registers, *, rank_rtol: float = RANK_RTOL) -> list:
    """Decompose each row of ψ^{R′AB}, stacked as (rows, R′, A, B), all rows together.

    ``registers`` holds each row's (R′, A, B) register tuples, and each
    row is normalized.  The block structure comes from generic commutant
    elements (Murota, Kanno, Kojima and Kojima, JJIAM 27, 125, 2010)
    drawn from a generator created afresh for each row, so a row's
    decomposition is a function of that row alone.  Rows of one support
    rank s_a share the marginals, the support and B-side spectra, the
    transfer operators and the commutant SVD as stacks; rows of one
    commutant dimension draw the same numbers, so one draw serves them
    all, and a row whose draw leaves its blocks unresolved resamples on
    its own.  Every (row, block) of one shape (m, n) is factored in one
    stacked pass.  The merge pass and the checks of :func:`_assemble`
    run per row.  Each row's decomposition equals the one-row call's,
    bit for bit.  Returns per row its decomposition, or the
    TreecastError it raised alone.
    """
    rows = len(psi3)
    out: list = [None] * rows
    vals, vecs = np.linalg.eigh(_marginals(psi3, 2))
    b_vals = np.linalg.eigvalsh(_marginals(psi3, 3))
    by_rank: dict[int, list[int]] = {}
    for b in range(rows):
        try:
            s_a = int(np.sum(vals[b, ::-1] > _rank_cut(vals[b, ::-1], rank_rtol)))
            _rank_cut(b_vals[b, ::-1], rank_rtol)  # B-side guard
        except TreecastError as exc:
            out[b] = exc
        else:
            by_rank.setdefault(s_a, []).append(b)

    support, frames = {}, {}
    for s_a, sel in by_rank.items():
        e_a = np.ascontiguousarray(phase_fixed(vecs[sel, :, ::-1][:, :, :s_a]))
        support.update(zip(sel, e_a))
        for picked, comm in _commutant_bases(_transfer_ops(_a_coords(psi3[sel], e_a)), s_a):
            rng = np.random.default_rng(0)
            y = _generic_element(comm, rng)
            g = _generic_element(comm, rng)
            y_vals, y_vecs = np.linalg.eigh(y + _dagger(y))
            for i, b in enumerate(sel[c] for c in picked):
                groups = _cluster(y_vals[i])
                found = None if groups is None else _linked_frames(y_vecs[i], groups, g[i])
                try:  # an unresolved row resamples alone, from its own fresh generator
                    frames[b] = found or _block_frames(comm[i], np.random.default_rng(0))
                except TreecastError as exc:
                    out[b] = exc

    shapes: dict[tuple[int, int], list[tuple[int, int, np.ndarray]]] = {}
    for b, found in frames.items():
        for j, (v, m, n) in enumerate(found):
            shapes.setdefault((m, n), []).append((b, j, support[b] @ v))
    blocks = {b: [None] * len(found) for b, found in frames.items()}
    for (m, n), items in shapes.items():
        picked = [b for b, _, _ in items]
        data = _extract_rows(psi3[picked], np.array([emb for _, _, emb in items]), m, n, rank_rtol)
        for (b, j, _), block in zip(items, data):
            blocks[b][j] = block

    for b, row_blocks in blocks.items():
        try:
            if any(block is None for block in row_blocks):
                raise NumericalDegeneracy("a central block failed to factor as ω ⊗ φ")
            merged = _merge_pass(psi3[b], row_blocks, rank_rtol)
            out[b] = _assemble(psi3[b], merged, registers[b], support[b].shape[1])
        except TreecastError as exc:
            out[b] = exc
    return out


def _merge_pass(psi3, blocks: list[_BlockData], rank_rtol: float) -> list[_BlockData]:
    """Re-unite the blocks that the block pass cut apart, in canonical order."""
    blocks = _canonical_order(blocks)
    merged = True
    while merged:
        merged = False
        for i, j in itertools.combinations(range(len(blocks)), 2):
            union = _try_merge(psi3, blocks[i], blocks[j], psi3.shape[0], rank_rtol)
            if union is not None:
                rest = [b for k, b in enumerate(blocks) if k not in (i, j)]
                blocks, merged = _canonical_order(rest + [union]), True
                break
    return blocks


def _assemble(psi3, blocks, registers, s_a):
    r_regs, a_regs, b_regs = registers
    embed_a = np.hstack([b.emb for b in blocks])
    embed_b = np.hstack([b.w for b in blocks])
    if np.abs(embed_a.conj().T @ embed_a - np.eye(embed_a.shape[1])).max() > 1e-7:
        raise NumericalDegeneracy("A-side block images are not orthonormal")
    if np.abs(embed_b.conj().T @ embed_b - np.eye(embed_b.shape[1])).max() > 1e-7:
        raise NumericalDegeneracy("B-side block images are not orthonormal")
    if embed_a.shape[1] != s_a:
        raise NumericalDegeneracy("blocks do not span supp(ρ^A)")

    ki_blocks = []
    p_total = 0.0
    for j, b in enumerate(blocks):
        n_r = b.nu.size
        omega_regs = (
            Register(f"aL{j}", b.m, "A"),
            Register(f"bL{j}", b.m, "B"),
        )
        omega = PureState(omega_regs, (b.lvecs * np.sqrt(b.mu)).reshape(-1))
        phi_regs = r_regs + (
            Register(f"aR{j}", b.n, "A"),
            Register(f"bR{j}", n_r, "B"),
        )
        phi = PureState(phi_regs, (b.evecs * np.sqrt(b.nu)).reshape(-1))
        ki_blocks.append(
            KiBlock(
                j=j,
                p=b.p,
                dimL_A=b.m,
                dimR_A=b.n,
                dimL_B=b.m,
                dimR_B=n_r,
                omega=omega,
                phi=phi,
                lambda0=float(b.mu[0]),
            )
        )
        p_total += b.p
    if abs(p_total - 1.0) > DISCARD_TOL:
        raise NumericalDegeneracy(f"block probabilities sum to {p_total}, not 1")

    dec = KiDecomposition(
        blocks=tuple(ki_blocks),
        embed_A=embed_a,
        embed_B=embed_b,
        r_registers=r_regs,
        a_registers=a_regs,
        b_registers=b_regs,
    )
    residual = float(np.linalg.norm(rebuild(dec).amplitudes - psi3.reshape(-1)))
    if residual > VERIFY_TOL:
        raise NumericalDegeneracy(
            f"reconstruction residual {residual:.2e} exceeds {VERIFY_TOL}"
        )
    return dec
