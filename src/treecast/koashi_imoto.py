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
against the input state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DISCARD_TOL, RANK_RTOL, VERIFY_TOL
from .errors import BadPermutation, NumericalDegeneracy, ShapeMismatch
from .tensors import PureState, Register, check_rank_cut, permute_registers, phase_fixed

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
    rows = x.swapaxes(0, axis).reshape(x.shape[axis], -1)
    return rows @ rows.conj().T


def _frame_position(emb3: np.ndarray, axis: int) -> np.ndarray:
    """The A position operator as one factor of a block frame sees it.

    ``emb3`` is shaped (A, a^L, a^R).  Axis 1 gives
    Σ_{a,q} emb3[a,l,q]* a emb3[a,k,q]; axis 2 gives
    Σ_{a,l} emb3[a,l,p]* a emb3[a,l,q].  Either is one weighted Gram
    matmul on the rows (a, other factor).
    """
    rows = emb3.swapaxes(axis, 2).reshape(-1, emb3.shape[axis])
    pos = np.repeat(np.arange(emb3.shape[0], dtype=float), rows.shape[0] // emb3.shape[0])
    return (rows.conj().T * pos) @ rows


def _a_coords(psi3: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """ψ's A index in the columns of ``frame``: shape (R′, cols, B)."""
    return frame.conj().T @ psi3


def _b_frame(flat: np.ndarray, lvecs: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """w[s, t, b] = Σ_{r,l,q} χ[r,l,q,b] lvecs[l,s]* evecs[(r,q),t]*.

    ``flat`` holds χ with rows (r, q) and columns (l, b); contracting
    (r, q) and then l is two matmuls.
    """
    m = lvecs.shape[0]
    per_t = (evecs.conj().T @ flat).reshape(evecs.shape[1], m, -1)
    return (lvecs.conj().T @ per_t).transpose(1, 0, 2)


def _support_basis(rho: np.ndarray, rank_rtol: float) -> np.ndarray:
    """Orthonormal eigenbasis of supp(rho), descending eigenvalues, cut by :func:`_rank_cut`."""
    vals, vecs = np.linalg.eigh(rho)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    return phase_fixed(vecs[:, vals > _rank_cut(vals, rank_rtol)])


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
    t = np.asarray(ops)
    scale = float(np.linalg.norm(t, axis=(1, 2)).max())
    if scale <= 0.0:
        return np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim)
    stack = _commutator_stack(t, dim)
    # only vh is read: a tall stack's reduced SVD already holds all of it
    _, sv, vh = np.linalg.svd(stack, full_matrices=stack.shape[0] < stack.shape[1])
    rank = int(np.sum(sv > 1e-10 * scale))
    return vh[rank:].conj().reshape(-1, dim, dim)


def _commutator_stack(ops, dim: int) -> np.ndarray:
    """Rows of kron(1, Tᵀ) − kron(T, 1) for every T, from one broadcast.

    Row (T, i, j), column (k, l) holds δ_ik T_lj − T_ik δ_jl, each entry
    the same product and difference ``np.kron`` forms.
    """
    t = np.asarray(ops)
    eye = np.eye(dim)
    stacked = (
        eye[None, :, None, :, None] * t.transpose(0, 2, 1)[:, None, :, None, :]
        - t[:, :, None, :, None] * eye[None, None, :, None, :]
    )
    return stacked.reshape(-1, dim * dim)


def _generic_element(basis, rng) -> np.ndarray:
    """Σ_x (a_x + i b_x) x, with every a_x, b_x from one draw."""
    a, b = rng.standard_normal((2, len(basis)))
    return ((a + 1j * b) @ basis.reshape(len(basis), -1)).reshape(basis.shape[1:])


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

    Frame gauges left open by degenerate spectra are pinned against the
    computational position operator so repeated runs (and the worked
    branch displays built on top) come out in a fixed basis.
    """
    dR, dA, dB = psi3.shape
    if n > 1:
        emb3 = emb.reshape(dA, m, n)
        _, gauge = np.linalg.eigh(_frame_position(emb3, 2))
        emb = (emb3 @ gauge).reshape(dA, m * n)
    emb3 = emb.reshape(dA, m, n)

    chi = _a_coords(psi3, emb)
    p = float(np.linalg.norm(chi) ** 2)
    if p < 1e-24:
        return None
    chi = (chi / math.sqrt(p)).reshape(dR, m, n, dB)

    mu, lvecs = np.linalg.eigh(_marginal(chi, 1))
    mu, lvecs = mu[::-1].copy(), lvecs[:, ::-1].copy()
    if mu[-1] < rank_rtol * mu[0]:
        return None  # junk marginal must fill the block
    for a, b in _degenerate_groups(mu, 1e-9 * float(mu[0])):
        if b - a < 2:
            continue
        sub = lvecs[:, a:b]
        _, u = np.linalg.eigh(sub.conj().T @ _frame_position(emb3, 1) @ sub)
        lvecs[:, a:b] = sub @ u
    lvecs = phase_fixed(lvecs)

    flat = chi.transpose(0, 2, 1, 3).reshape(dR * n, m * dB)
    rho_c = flat @ flat.conj().T
    nu, evecs = np.linalg.eigh(rho_c)
    nu, evecs = nu[::-1].copy(), evecs[:, ::-1].copy()
    n_r = int(np.sum(nu > rank_rtol * nu[0]))
    nu, evecs = nu[:n_r].copy(), evecs[:, :n_r].copy()
    for a, b in _degenerate_groups(nu, 1e-9 * float(nu[0])):
        if b - a < 2:
            continue
        big = np.kron(np.diag(np.arange(dR, dtype=float)) * (dA + 1.0), np.eye(n)) + np.kron(
            np.eye(dR), _frame_position(emb3, 2)
        )
        sub = evecs[:, a:b]
        _, u = np.linalg.eigh(sub.conj().T @ big @ sub)
        evecs[:, a:b] = sub @ u
    evecs = phase_fixed(evecs)

    norms = np.sqrt(np.outer(mu, nu))[:, :, None]
    w_mat = (_b_frame(flat, lvecs, evecs) / norms).reshape(m * n_r, dB).T
    if np.abs(w_mat.conj().T @ w_mat - np.eye(m * n_r)).max() > 1e-8:
        return None
    return _BlockData(emb=emb, m=m, n=n, p=p, mu=mu, lvecs=lvecs, nu=nu, evecs=evecs, w=w_mat)


def _transfer_ops(slices: np.ndarray) -> np.ndarray:
    """Hermitian and anti-Hermitian parts of every T_{rr′} = X_r X_{r′}†.

    One broadcast matmul; the (2R², d, d) stack runs over (r, r′, part)
    with the Hermitian part first.
    """
    t = slices[:, None] @ slices.conj().transpose(0, 2, 1)[None]
    t_h = t.conj().swapaxes(-1, -2)
    return np.stack([t + t_h, 1j * (t - t_h)], axis=2).reshape(-1, *t.shape[-2:])


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
    return sorted(
        blocks, key=lambda b: (-round(b.p, 9), b.n, b.m, b.fingerprint)
    )


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

    The block structure comes from generic commutant elements (Murota,
    Kanno, Kojima and Kojima, JJIAM 27, 125, 2010) drawn from a generator
    created afresh for each call, so the decomposition is a function of
    the state alone.
    """
    rng = np.random.default_rng(0)
    r_ids, a_ids, b_ids = _parse_roles(psi, roles)
    perm = permute_registers(psi.normalized(), list(r_ids) + list(a_ids) + list(b_ids))
    r_regs = tuple(perm.register(i) for i in r_ids)
    a_regs = tuple(perm.register(i) for i in a_ids)
    b_regs = tuple(perm.register(i) for i in b_ids)
    dR = math.prod(r.dim for r in r_regs)
    dA = math.prod(r.dim for r in a_regs)
    dB = math.prod(r.dim for r in b_regs)
    psi3 = perm.amplitudes.reshape(dR, dA, dB)

    e_a = _support_basis(_marginal(psi3, 1), rank_rtol)
    s_a = e_a.shape[1]
    _rank_cut(np.linalg.eigvalsh(_marginal(psi3, 2))[::-1], rank_rtol)  # B-side guard

    comm = _commutant_basis(_transfer_ops(_a_coords(psi3, e_a)), s_a)
    blocks: list[_BlockData] = []
    for v, m, n in _block_frames(comm, rng):
        data = _extract_block(psi3, e_a @ v, m, n, rank_rtol)
        if data is None:
            raise NumericalDegeneracy("a central block failed to factor as ω ⊗ φ")
        blocks.append(data)

    # merge pass: re-unite blocks that the block pass cut apart
    blocks = _canonical_order(blocks)
    merged = True
    while merged:
        merged = False
        for i, j in itertools.combinations(range(len(blocks)), 2):
            union = _try_merge(psi3, blocks[i], blocks[j], dR, rank_rtol)
            if union is not None:
                rest = [b for k, b in enumerate(blocks) if k not in (i, j)]
                blocks, merged = _canonical_order(rest + [union]), True
                break

    return _assemble(perm, blocks, r_regs, a_regs, b_regs, s_a)


def _assemble(perm, blocks, r_regs, a_regs, b_regs, s_a):
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
    residual = float(np.linalg.norm(rebuild(dec).amplitudes - perm.amplitudes))
    if residual > VERIFY_TOL:
        raise NumericalDegeneracy(
            f"reconstruction residual {residual:.2e} exceeds {VERIFY_TOL}"
        )
    return dec
