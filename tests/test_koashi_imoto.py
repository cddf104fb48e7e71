"""Tests for the tripartite block decomposition and merge-cost formula."""

import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from oracles import canonical_phase, random_state, states_equal_up_to_phase, tensor_product

from treecast import koashi_imoto
from treecast.codes import encoded_pair, five_qubit_code, random_code, star4_code
from treecast.errors import BadPermutation
from treecast.koashi_imoto import (
    KiDecomposition,
    ki_decompose,
    merge_cost_K,
    rebuild,
    spread_rank_bound,
)
from treecast.merge_split import split_cost
from treecast.network import line_tree, star_tree
from treecast.protocols import run_concentrating
from treecast.tensors import (
    PureState,
    Register,
    permute_registers,
    phase_fixed,
)

SQ2 = 1.0 / math.sqrt(2.0)


def regs(*spec):
    return tuple(Register(i, d, i) for i, d in spec)


def check_invariants(psi: PureState, dec: KiDecomposition):
    assert abs(sum(b.p for b in dec.blocks) - 1.0) < 1e-10
    ea, eb = dec.embed_A, dec.embed_B
    assert np.abs(ea.conj().T @ ea - np.eye(ea.shape[1])).max() < 1e-8
    assert np.abs(eb.conj().T @ eb - np.eye(eb.shape[1])).max() < 1e-8
    for blk in dec.blocks:
        assert abs(blk.omega.norm() - 1.0) < 1e-9
        assert abs(blk.phi.norm() - 1.0) < 1e-9
        assert 0.0 < blk.lambda0 <= 1.0 + 1e-12
        assert blk.lambda0 >= 1.0 / blk.dimL_A - 1e-9
        assert blk.dimL_B == blk.dimL_A
    order = [round(b.p, 9) for b in dec.blocks]
    assert order == sorted(order, reverse=True)
    rank_a = split_cost(psi, [r.id for r in dec.a_registers])
    assert spread_rank_bound(dec) == rank_a
    assert 1 <= merge_cost_K(dec) <= rank_a
    rebuilt = rebuild(dec)
    target = permute_registers(psi.normalized(), list(rebuilt.ids))
    assert np.linalg.norm(rebuilt.amplitudes - target.amplitudes) < 1e-9


def star_phi2():
    # (|0,0,0> + |1,1,+>)/sqrt(2) on (R, v2, v1)
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = SQ2
    amps[0b110] = 0.5
    amps[0b111] = 0.5
    return PureState(regs(("R", 2), ("v2", 2), ("v1", 2)), amps)


def five_qubit_phi2():
    # (|0>(|00>+|11>) - |1>(|01>+|10>))/2 on (R, v2, v1)
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = 0.5
    amps[0b011] = 0.5
    amps[0b101] = -0.5
    amps[0b110] = -0.5
    return PureState(regs(("R", 2), ("v2", 2), ("v1", 2)), amps)


class TestGoldenStructures:
    def test_star_step_two_single_block_needs_two_dits(self):
        psi = star_phi2()
        dec = ki_decompose(psi, {"R": ["R"], "A": ["v2"], "B": ["v1"]})
        check_invariants(psi, dec)
        assert len(dec.blocks) == 1
        blk = dec.blocks[0]
        assert (blk.dimL_A, blk.dimR_A) == (1, 2)
        assert abs(blk.p - 1.0) < 1e-10
        assert abs(blk.lambda0 - 1.0) < 1e-9
        assert merge_cost_K(dec) == 2

    def test_five_qubit_step_two_splits_into_two_scalar_blocks(self, monkeypatch):
        psi = five_qubit_phi2()
        solved = []
        real = koashi_imoto._intertwiner
        monkeypatch.setattr(koashi_imoto, "_intertwiner", lambda *a: solved.append(a) or real(*a))
        dec = ki_decompose(psi, {"R": ["R"], "A": ["v2"], "B": ["v1"]})
        # the blocks' R′ marginals differ, so the merge pass solves no commutant
        assert solved == []
        check_invariants(psi, dec)
        assert len(dec.blocks) == 2
        for blk in dec.blocks:
            assert abs(blk.p - 0.5) < 1e-9
            assert (blk.dimL_A, blk.dimR_A, blk.dimL_B, blk.dimR_B) == (1, 1, 1, 1)
            assert abs(blk.lambda0 - 1.0) < 1e-9
        assert merge_cost_K(dec) == 1
        # the two A-side frames are |+> and |-> up to phase
        plus = np.array([SQ2, SQ2])
        minus = np.array([SQ2, -SQ2])
        cols = [dec.a_block_embed(j)[:, 0] for j in range(2)]
        hits = {
            j: ("plus" if abs(abs(plus.conj() @ c) - 1) < 1e-9 else "minus")
            for j, c in enumerate(cols)
            if abs(abs(plus.conj() @ c) - 1) < 1e-9 or abs(abs(minus.conj() @ c) - 1) < 1e-9
        }
        assert sorted(hits.values()) == ["minus", "plus"]

    def test_five_qubit_last_vertex_share_is_pure_junk(self):
        # distance-3 code: one physical qubit is uncorrelated with the
        # reference, so its share is a maximally entangled pair with the rest
        psi = encoded_pair(five_qubit_code())
        dec = ki_decompose(psi, {"R": ["R"], "A": ["v5"], "B": ["v1", "v2", "v3", "v4"]})
        check_invariants(psi, dec)
        assert len(dec.blocks) == 1
        blk = dec.blocks[0]
        assert (blk.dimL_A, blk.dimR_A) == (2, 1)
        assert abs(blk.lambda0 - 0.5) < 1e-9
        assert blk.dimR_B == 2  # the reference correlation lives on B's side
        assert merge_cost_K(dec) == 1
        # degenerate junk frame is pinned to the computational basis
        emb3 = dec.embed_A.reshape(2, 2, 1)
        omega_mat = blk.omega.amplitudes.reshape(2, 2)
        lvecs = omega_mat / np.sqrt(np.array([0.5, 0.5]))[None, :]
        frame = np.einsum("alq,ls->as", emb3, lvecs)
        for s, target in enumerate(np.eye(2)):
            assert abs(abs(np.vdot(target, frame[:, s])) - 1.0) < 1e-8


class TestJunkOnly:
    def test_bell_half_costs_nothing(self):
        a, b = Register("A", 2, "A"), Register("B", 2, "B")
        amps = np.array([SQ2, 0, 0, SQ2], dtype=complex)
        psi = PureState((a, b), amps)
        dec = ki_decompose(psi, {"R": [], "A": ["A"], "B": ["B"]})
        check_invariants(psi, dec)
        assert len(dec.blocks) == 1
        blk = dec.blocks[0]
        assert (blk.dimL_A, blk.dimR_A) == (2, 1)
        assert abs(blk.lambda0 - 0.5) < 1e-9
        assert merge_cost_K(dec) == 1
        assert spread_rank_bound(dec) == 2

    def test_skewed_pair_reunites_across_the_spectral_split(self):
        a, b = Register("A", 2, "A"), Register("B", 2, "B")
        amps = np.array([math.sqrt(0.9), 0, 0, math.sqrt(0.1)], dtype=complex)
        psi = PureState((a, b), amps)
        dec = ki_decompose(psi, {"R": [], "A": ["A"], "B": ["B"]})
        check_invariants(psi, dec)
        assert len(dec.blocks) == 1
        blk = dec.blocks[0]
        assert (blk.dimL_A, blk.dimR_A) == (2, 1)
        assert abs(blk.lambda0 - 0.9) < 1e-9
        assert merge_cost_K(dec) == 1

    def test_reference_product_state_is_pure_junk(self):
        rng = np.random.default_rng(11)
        ab = random_state(regs(("A", 3), ("B", 3)), rng)
        r = PureState(regs(("R", 2)), np.array([1.0, 0.0], dtype=complex))
        psi = tensor_product(r, ab)
        dec = ki_decompose(psi, {"R": ["R"], "A": ["A"], "B": ["B"]})
        check_invariants(psi, dec)
        assert len(dec.blocks) == 1
        assert dec.blocks[0].dimR_A == 1
        assert merge_cost_K(dec) == 1


class TestCompositeJunkContent:
    def test_skewed_junk_times_content_block(self):
        # omega = sqrt(.8)|00> + sqrt(.2)|11> on (A1,B1);
        # phi = (|0,0,0> + |1,1,+>)/sqrt(2) on (R,A2,B2)
        omega = PureState(
            regs(("A1", 2), ("B1", 2)),
            np.array([math.sqrt(0.8), 0, 0, math.sqrt(0.2)], dtype=complex),
        )
        phi = star_phi2()
        phi = PureState(
            regs(("R", 2), ("A2", 2), ("B2", 2)), phi.amplitudes.copy()
        )
        psi = tensor_product(omega, phi)
        dec = ki_decompose(
            psi, {"R": ["R"], "A": ["A1", "A2"], "B": ["B1", "B2"]}
        )
        check_invariants(psi, dec)
        assert len(dec.blocks) == 1
        blk = dec.blocks[0]
        assert (blk.dimL_A, blk.dimR_A) == (2, 2)
        assert abs(blk.lambda0 - 0.8) < 1e-9
        assert merge_cost_K(dec) == 2  # ceil(0.8 * 2)

    def test_junk_times_ghz_content_keeps_two_blocks(self):
        omega = PureState(
            regs(("A1", 2), ("B1", 2)),
            np.array([math.sqrt(0.8), 0, 0, math.sqrt(0.2)], dtype=complex),
        )
        ghz = np.zeros(8, dtype=complex)
        ghz[0b000] = SQ2
        ghz[0b111] = SQ2
        phi = PureState(regs(("R", 2), ("A2", 2), ("B2", 2)), ghz)
        psi = tensor_product(omega, phi)
        dec = ki_decompose(psi, {"R": ["R"], "A": ["A1", "A2"], "B": ["B1", "B2"]})
        check_invariants(psi, dec)
        assert len(dec.blocks) == 2
        for blk in dec.blocks:
            assert (blk.dimL_A, blk.dimR_A) == (2, 1)
            assert abs(blk.p - 0.5) < 1e-9
            assert abs(blk.lambda0 - 0.8) < 1e-9
        assert merge_cost_K(dec) == 1


class TestRandomSweep:
    @pytest.mark.parametrize("seed", range(12))
    def test_invariants_on_random_states(self, seed):
        rng = np.random.default_rng(1000 + seed)
        dims = rng.choice([1, 2, 3], size=1).tolist() + rng.choice(
            [2, 3, 4], size=2
        ).tolist()
        dr, da, db = int(dims[0]), int(dims[1]), int(dims[2])
        names = [("R", dr), ("A", da), ("B", db)]
        psi = random_state(regs(*[(n, d) for n, d in names if d > 1 or n != "R"]), rng)
        roles = {
            "R": ["R"] if dr > 1 else [],
            "A": ["A"],
            "B": ["B"],
        }
        dec = ki_decompose(psi, roles)
        check_invariants(psi, dec)

    @pytest.mark.parametrize("seed", range(6))
    def test_idempotence_on_rebuilt_state(self, seed):
        rng = np.random.default_rng(2000 + seed)
        psi = random_state(regs(("R", 2), ("A", 3), ("B", 4)), rng)
        roles = {"R": ["R"], "A": ["A"], "B": ["B"]}
        dec1 = ki_decompose(psi, roles)
        dec2 = ki_decompose(rebuild(dec1), roles)
        assert len(dec1.blocks) == len(dec2.blocks)
        for b1, b2 in zip(dec1.blocks, dec2.blocks):
            assert abs(b1.p - b2.p) < 1e-9
            assert (b1.dimL_A, b1.dimR_A) == (b2.dimL_A, b2.dimR_A)
            assert abs(b1.lambda0 - b2.lambda0) < 1e-9

    def test_random_code_merge_step_roles(self):
        rng = np.random.default_rng(42)
        from treecast.codes import random_code

        code = random_code(rng, 2, (2, 2, 2))
        psi = encoded_pair(code)
        dec = ki_decompose(psi, {"R": ["R"], "A": ["v3"], "B": ["v1", "v2"]})
        check_invariants(psi, dec)


class TestRoleValidation:
    def test_roles_must_partition(self):
        psi = star_phi2()
        with pytest.raises(BadPermutation):
            ki_decompose(psi, {"R": ["R"], "A": ["v2"], "B": []})
        with pytest.raises(BadPermutation):
            ki_decompose(psi, {"R": ["R"], "A": [], "B": ["v1", "v2"]})
        with pytest.raises(BadPermutation):
            ki_decompose(psi, {"R": ["R", "v1"], "A": ["v2"], "B": ["v1"]})

    def test_phase_of_input_is_irrelevant(self):
        psi = star_phi2()
        rotated = PureState(psi.registers, np.exp(1j * 0.7) * psi.amplitudes)
        d1 = ki_decompose(psi, {"R": ["R"], "A": ["v2"], "B": ["v1"]})
        d2 = ki_decompose(rotated, {"R": ["R"], "A": ["v2"], "B": ["v1"]})
        assert states_equal_up_to_phase(rebuild(d1), rebuild(d2), tol=1e-9)


# -- ground truth: decompositions built from known blocks ------------------------


def haar_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_phi(rng, d_r, n, n_r):
    """A random state φ on R′ ⊗ a^R ⊗ b^R, amplitudes shaped (d_r, n, n_r)."""
    g = rng.standard_normal((d_r, n, n_r)) + 1j * rng.standard_normal((d_r, n, n_r))
    return g / np.linalg.norm(g)


def known_blocks_state(rng, d_r, blocks, extra_b=0):
    """⊕_j √p_j ω_j ⊗ φ_j on (R, A, B), scrambled by random local unitaries.

    ``blocks`` holds (p, junk spectrum μ, φ) per block; ω_j = Σ_l √μ_l |l⟩|l⟩
    on a^L ⊗ b^L.  A holds ⊕_j a_j^L ⊗ a_j^R exactly; B holds ⊕_j b_j^L ⊗ b_j^R
    plus ``extra_b`` unused dimensions.
    """
    d_a = sum(len(mu) * phi.shape[1] for _, mu, phi in blocks)
    d_b = sum(len(mu) * phi.shape[2] for _, mu, phi in blocks) + extra_b
    amps = np.zeros((d_r, d_a, d_b), dtype=complex)
    off_a = off_b = 0
    for p, mu, phi in blocks:
        _, n, n_r = phi.shape
        for l, weight in enumerate(mu):
            a0, b0 = off_a + l * n, off_b + l * n_r
            amps[:, a0 : a0 + n, b0 : b0 + n_r] = math.sqrt(p * weight) * phi
        off_a += len(mu) * n
        off_b += len(mu) * n_r
    amps = np.einsum("xa,yb,rab->rxy", haar_unitary(rng, d_a), haar_unitary(rng, d_b), amps)
    return PureState(regs(("R", d_r), ("A", d_a), ("B", d_b)), amps.reshape(-1))


def expected_cost(truth):
    """max_j ⌈λ₀(j)·dim a_j^R⌉ from the known blocks."""
    return max(math.ceil(lam * n) for _, _, n, _, lam in truth)


def assert_recovers(psi, truth):
    """``truth`` lists (p, dimL_A, dimR_A, dimR_B, λ₀) per block, by falling p."""
    dec = ki_decompose(psi, {"R": ["R"], "A": ["A"], "B": ["B"]})
    assert len(dec.blocks) == len(truth)
    for blk, (p, m, n, n_r, lam) in zip(dec.blocks, truth):
        assert (blk.dimL_A, blk.dimR_A, blk.dimR_B) == (m, n, n_r)
        assert abs(blk.p - p) <= 1e-10
        assert abs(blk.lambda0 - lam) <= 1e-10
    assert merge_cost_K(dec) == expected_cost(truth)
    check_invariants(psi, dec)


def one_block_state(seed):
    rng = np.random.default_rng(3000 + seed)
    return known_blocks_state(rng, 2, [(1.0, (0.8, 0.2), random_phi(rng, 2, 2, 2))], extra_b=1)


def equal_phi_state(seed):
    rng = np.random.default_rng(3100 + seed)
    phi = random_phi(rng, 2, 2, 2)
    return known_blocks_state(rng, 2, [(0.6, (1.0,), phi), (0.4, (1.0,), phi)])


def distinct_spectra_state(seed):
    rng = np.random.default_rng(3200 + seed)
    blocks = [
        (0.5, (0.7, 0.3), random_phi(rng, 2, 2, 3)),
        (0.3, (0.9, 0.1), random_phi(rng, 2, 1, 2)),
        (0.2, (1.0,), random_phi(rng, 2, 3, 2)),
    ]
    return known_blocks_state(rng, 2, blocks, extra_b=2)


def junk_on_qutrit_content_state(gen_seed, mu):
    """One block: junk spectrum ``mu`` times a random three-dimensional content part."""
    rng = np.random.default_rng(gen_seed)
    return known_blocks_state(rng, 2, [(1.0, mu, random_phi(rng, 2, 3, 2))])


# generator seed, junk spectrum; the first three are the original cases, the
# (0.8, 0.2) seeds took the former alternating search 190-290 sweeps per frame
REUNITED_CASES = [pytest.param(3300 + s, (0.6, 0.4), id=str(s)) for s in range(3)] + [
    pytest.param(s, (0.8, 0.2), id=f"junk-0.8-0.2-{s}") for s in range(3005, 3009)
] + [pytest.param(s, (0.5, 0.3, 0.2), id=f"junk-0.5-0.3-0.2-{s}") for s in (3310, 3311)]


class TestKnownBlocks:
    @pytest.mark.parametrize("seed", range(3))
    def test_one_block(self, seed):
        assert_recovers(one_block_state(seed), [(1.0, 2, 2, 2, 0.8)])

    @pytest.mark.parametrize("seed", range(3))
    def test_two_blocks_with_equal_phi_are_reunited(self, seed):
        # the centre's spectral split separates the junk eigenvalues 0.6 and
        # 0.4; the merge pass must see one ω ⊗ φ block with junk (0.6, 0.4)
        assert_recovers(equal_phi_state(seed), [(1.0, 2, 2, 2, 0.6)])

    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_with_distinct_junk_spectra(self, seed):
        truth = [(0.5, 2, 2, 3, 0.7), (0.3, 2, 1, 2, 0.9), (0.2, 1, 3, 2, 1.0)]
        assert expected_cost(truth) == 3
        assert_recovers(distinct_spectra_state(seed), truth)

    @pytest.mark.parametrize("gen_seed, mu", REUNITED_CASES)
    def test_reunited_block_costs_less_than_its_parts(self, gen_seed, mu):
        # junk μ on a three-dimensional content part: one block needs
        # K = ⌈μ₀·3⌉, each spectral piece apart would need 3 (for μ₀ = 0.8
        # that is no saving, but the pieces must still be re-united)
        psi = junk_on_qutrit_content_state(gen_seed, mu)
        truth = [(1.0, len(mu), 3, 2, mu[0])]
        assert expected_cost(truth) == math.ceil(mu[0] * 3)
        assert_recovers(psi, truth)


# -- the block pass on planted commutants -----------------------------------------

# (m, n) per block of a commutant ⊕ M_m ⊗ 1_n
PLANTED_SHAPES = [
    [(1, 1), (1, 1)],
    [(2, 1)],
    [(1, 3)],
    [(2, 2), (1, 1)],
    [(3, 1), (1, 2)],
]


def planted_commutant(rng, shapes):
    """Matrix units E_ij ⊗ 1_n of ⊕ M_m ⊗ 1_n under a Haar U, and U's block columns."""
    dim = sum(m * n for m, n in shapes)
    u = haar_unitary(rng, dim)
    gens, spans, off = [], [], 0
    for m, n in shapes:
        for i, j in itertools.product(range(m), repeat=2):
            unit = np.zeros((m, m))
            unit[i, j] = 1.0
            x = np.zeros((dim, dim), dtype=complex)
            x[off : off + m * n, off : off + m * n] = np.kron(unit, np.eye(n))
            gens.append(u @ x @ u.conj().T)
        spans.append(u[:, off : off + m * n])
        off += m * n
    return np.array(gens), spans


class TestPlantedBlockStructure:
    @pytest.mark.parametrize("index", range(len(PLANTED_SHAPES)), ids=lambda i: str(PLANTED_SHAPES[i]))
    def test_recovers_planted_blocks(self, index):
        shapes = PLANTED_SHAPES[index]
        gens, spans = planted_commutant(np.random.default_rng(3600 + index), shapes)
        frames = koashi_imoto._block_frames(gens, np.random.default_rng(0))
        assert sorted((m, n) for _, m, n in frames) == sorted(shapes)
        planted = [s @ s.conj().T for s in spans]
        matched = []
        for v, m, n in frames:
            assert v.shape == (len(planted[0]), m * n)
            assert np.abs(v.conj().T @ v - np.eye(m * n)).max() <= 1e-10
            proj = v @ v.conj().T
            matched += [k for k, p in enumerate(planted) if np.abs(proj - p).max() <= 1e-10]
            # product form: V† A V = a ⊗ 1_n for every generator A
            for a in gens:
                c = (v.conj().T @ a @ v).reshape(m, n, m, n)
                product = np.einsum("ik,jl->ijkl", c[:, 0, :, 0], np.eye(n))
                assert np.abs(c - product).max() <= 1e-10
        assert sorted(matched) == list(range(len(shapes)))


# -- the merge pass against the former alternating search ------------------------


def former_align_phis(bi, bj, dR, rng):
    """Search unitaries u (aR), w (bR) with (1⊗u⊗w)φ_j ≈ φ_i; None if overlap < 1."""
    n, n_r = bi.n, bi.nu.size
    fi = (bi.evecs * np.sqrt(bi.nu)).reshape(dR, n, n_r)
    fj = (bj.evecs * np.sqrt(bj.nu)).reshape(dR, n, n_r)

    def polar_max(mat):
        uu, _, vv = np.linalg.svd(mat)
        return vv.conj().T @ uu.conj().T

    def sweep(w):
        u = polar_max(np.einsum("rqs,ts,rpt->qp", fj, w, fi.conj()))
        w = polar_max(np.einsum("rqs,qp,rpt->st", fj, u.T, fi.conj()))
        return u, w, abs(np.einsum("rqs,qp,ts,rpt->", fj, u.T, w, fi.conj()))

    best = None
    inits = [np.eye(n_r, dtype=complex)]
    for _ in range(2):
        g = rng.standard_normal((n_r, n_r)) + 1j * rng.standard_normal((n_r, n_r))
        inits.append(np.linalg.qr(g)[0])
    for w in inits:
        u = np.eye(n, dtype=complex)
        f = 0.0
        for _ in range(1000):
            u, w, f_new = sweep(w)
            if abs(f_new - f) < 1e-13:
                f = f_new
                break
            f = f_new
        if best is None or f > best[0]:
            best = (f, u, w)
    f, u, w = best
    if f < 1.0 - 1e-9:
        return None
    for _ in range(1000):
        u_new, w, _f = sweep(w)
        if np.abs(u_new - u).max() < 1e-14:
            return u_new
        u = u_new
    return u


def former_try_merge(psi3, bi, bj, dR, rank_rtol, rng):
    """The former union test: alternating search, then four frame variants."""
    if bi.n != bj.n or bi.nu.size != bj.nu.size:
        return None
    if not np.allclose(bi.nu, bj.nu, atol=1e-7):
        return None
    u = former_align_phis(bi, bj, dR, rng)
    if u is None:
        return None
    eye_mj = np.eye(bj.m)
    for variant in (u.conj(), u.T, u, u.conj().T):
        emb = np.hstack([bi.emb, bj.emb @ np.kron(eye_mj, variant)])
        data = koashi_imoto._extract_block(psi3, emb, bi.m + bj.m, bi.n, rank_rtol)
        if data is not None:
            return data
    return None


def former_decompose(monkeypatch, psi, roles, kwargs):
    """ki_decompose with the former merge pass, its search drawing from a fixed generator."""
    rng = np.random.default_rng(0)
    with monkeypatch.context() as mp:
        mp.setattr(
            koashi_imoto,
            "_try_merge",
            lambda psi3, bi, bj, dR, rank_rtol: former_try_merge(psi3, bi, bj, dR, rank_rtol, rng),
        )
        return koashi_imoto.ki_decompose(psi, roles, **kwargs)


def assert_same_blocks(dec, ref):
    assert len(dec.blocks) == len(ref.blocks)
    for b, r in zip(dec.blocks, ref.blocks):
        assert (b.dimL_A, b.dimR_A, b.dimL_B, b.dimR_B) == (r.dimL_A, r.dimR_A, r.dimL_B, r.dimR_B)
        assert abs(b.p - r.p) <= 1e-10
        assert abs(b.lambda0 - r.lambda0) <= 1e-10
    assert merge_cost_K(dec) == merge_cost_K(ref)


class TestMergePassMatchesFormerSearch:
    def test_recorded_stage_decompositions(self, monkeypatch):
        calls = stage_inputs(monkeypatch)
        assert len(calls) > 20
        for psi, roles, kwargs in calls:
            dec = koashi_imoto.ki_decompose(psi, roles, **kwargs)
            assert_same_blocks(dec, former_decompose(monkeypatch, psi, roles, kwargs))

    def test_known_block_states(self, monkeypatch):
        states = [f(seed) for f in (one_block_state, equal_phi_state, distinct_spectra_state)
                  for seed in range(3)]
        states += [junk_on_qutrit_content_state(*case.values) for case in REUNITED_CASES]
        roles = {"R": ["R"], "A": ["A"], "B": ["B"]}
        for psi in states:
            dec = ki_decompose(psi, roles)
            assert_same_blocks(dec, former_decompose(monkeypatch, psi, roles, {}))


class TestIntertwiner:
    @pytest.mark.parametrize("seed", range(4))
    def test_scrambled_copy_yields_its_unitary(self, seed):
        rng = np.random.default_rng(3400 + seed)
        n = 1 + seed
        phi = random_phi(rng, 2, n, 2)
        u, w = haar_unitary(rng, n), haar_unitary(rng, 2)
        # φ_j = (1 ⊗ u† ⊗ wᵀ) φ_i, so T^j = u† T^i u and T^i u = u T^j
        scrambled = np.einsum("pq,rqs,st->rpt", u.conj().T, phi, w)
        got = koashi_imoto._intertwiner(phi, scrambled)
        assert got is not None
        phase = np.vdot(u, got) / n
        assert abs(abs(phase) - 1.0) < 1e-10
        assert np.abs(got - phase * u).max() < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_distinct_contents_have_no_intertwiner(self, seed):
        rng = np.random.default_rng(3500 + seed)
        n = 1 + seed
        assert koashi_imoto._intertwiner(random_phi(rng, 2, n, 2), random_phi(rng, 2, n, 2)) is None


# -- the kernels against their former spelling -------------------------------------


def kron_stack(ops, dim):
    """The former commutator matrix: one pair of np.kron calls per operator."""
    eye = np.eye(dim)
    return np.vstack([np.kron(eye, t.T) - np.kron(t, eye) for t in ops])


def bits(a):
    a = np.ascontiguousarray(a)
    return a.shape, a.dtype, a.tobytes()


def record_ki_calls(monkeypatch, run):
    """Every row ``run`` decomposes, as the arguments of a one-row ki_decompose call."""
    from treecast import merge_split

    calls = []
    real = koashi_imoto.ki_rows

    def recording(psi3, registers, **kwargs):
        for rows, regs in zip(psi3, registers):
            psi = PureState(tuple(r for part in regs for r in part), rows.reshape(-1))
            calls.append((psi, tuple(tuple(r.id for r in part) for part in regs), kwargs))
        return real(psi3, registers, **kwargs)

    monkeypatch.setattr(merge_split, "ki_rows", recording)
    run()
    monkeypatch.undo()
    return calls


def stage_inputs(monkeypatch):
    rng = np.random.default_rng(55)
    runs = [
        (five_qubit_code(), line_tree(5)),
        (star4_code(), star_tree(4)),
        (random_code(rng, 2, (2, 2, 2)), line_tree(3)),
        (random_code(rng, 2, (3, 2, 2)), star_tree(3)),
    ]
    calls = []
    for code, tree in runs:
        calls += record_ki_calls(
            monkeypatch, lambda: run_concentrating(code, tree)
        )
    return calls


REFERENCE = Path(__file__).parent / "data" / "ki-reference.npz"


def ref_input_decomposition(ref, i):
    """ki_decompose of the i-th recorded input."""
    ids, dims = ref[f"{i}/ids"].tolist(), ref[f"{i}/dims"].tolist()
    psi = PureState(tuple(Register(r, d, r) for r, d in zip(ids, dims)), ref[f"{i}/amplitudes"])
    roles = tuple(ref[f"{i}/{side}"].tolist() for side in "RAB")
    return ki_decompose(psi, roles, rank_rtol=float(ref[f"{i}/rank_rtol"]))


class TestKernelsMatchFormerSpelling:
    def test_commutator_stack_is_the_kron_stack_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(8)
        cases = []
        for dim in (1, 2, 3, 4):
            for count in (1, 3, 8):
                g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal(
                    (count, dim, dim)
                )
                g[:, 0, 0] = -0.0  # signed zeros must come out as kron makes them
                cases.append(list(g))
                cases.append(list(g + g.conj().transpose(0, 2, 1)))
        seen, stacks = [], []
        real = koashi_imoto._commutant_bases

        def recording(ops, dim):
            seen.extend((list(row), dim) for row in ops)
            stacks.append((ops, dim))
            return real(ops, dim)

        monkeypatch.setattr(koashi_imoto, "_commutant_bases", recording)
        for psi, roles, kwargs in stage_inputs(monkeypatch)[:12]:
            koashi_imoto.ki_decompose(psi, roles, **kwargs)
        assert seen
        for ops, dim in [(c, c[0].shape[0]) for c in cases] + seen:
            assert bits(koashi_imoto._commutator_stack(ops, dim)) == bits(kron_stack(ops, dim))
        # a stack of rows forms each row's matrix as the row alone does
        for ops, dim in [(np.array([c, c[::-1]]), c[0].shape[0]) for c in cases] + stacks:
            got = koashi_imoto._commutator_stack(ops, dim)
            assert [bits(x) for x in got] == [bits(kron_stack(row, dim)) for row in ops]

    def test_recorded_decompositions(self):
        """The matmul kernels decompose a recorded corpus as the einsum spelling did.

        ``tests/data/ki-reference.npz`` holds, for every input of
        ``stage_inputs()`` plus three random states, the input and the
        decomposition that the former ``np.einsum(optimize=True)`` spelling
        gave (NumPy 2.4.6).  It was written at the commit before the kernels
        moved to matmul by running, from ``tests/`` with ``PYTHONPATH=../src``::

            import numpy as np, pytest
            from oracles import random_state
            from test_koashi_imoto import regs, stage_inputs
            from treecast.config import RANK_RTOL
            from treecast.koashi_imoto import ki_decompose, merge_cost_K

            calls = stage_inputs(pytest.MonkeyPatch())
            rng = np.random.default_rng(21)
            for d_a, d_b in ((2, 3), (3, 4), (4, 2)):
                psi = random_state(regs(("R", 2), ("A", d_a), ("B", d_b)), rng)
                calls.append((psi, {"R": ["R"], "A": ["A"], "B": ["B"]}, {}))
            record = {}
            for i, (psi, roles, kwargs) in enumerate(calls):
                if isinstance(roles, dict):
                    roles = (roles["R"], roles["A"], roles["B"])
                rank_rtol = kwargs.get("rank_rtol", RANK_RTOL)
                dec = ki_decompose(psi, roles, rank_rtol=rank_rtol)
                record[f"{i}/ids"] = np.array(psi.ids)
                record[f"{i}/dims"] = np.array(psi.dims)
                record[f"{i}/amplitudes"] = psi.amplitudes
                for side, ids in zip("RAB", roles):
                    record[f"{i}/{side}"] = np.array(ids, dtype=str)
                record[f"{i}/rank_rtol"] = np.array(rank_rtol)
                record[f"{i}/blocks"] = np.array(
                    [(b.dimL_A, b.dimR_A, b.dimL_B, b.dimR_B) for b in dec.blocks]
                )
                record[f"{i}/K"] = np.array(merge_cost_K(dec))
                record[f"{i}/p"] = np.array([b.p for b in dec.blocks])
                record[f"{i}/lambda0"] = np.array([b.lambda0 for b in dec.blocks])
                record[f"{i}/embed_A"] = dec.embed_A
                record[f"{i}/embed_B"] = dec.embed_B
            np.savez_compressed("data/ki-reference.npz", **record)

        Block shapes and K must be identical, and p and λ₀ agree to 1e-12.
        The frames are compared through each block's projectors
        E_j E_j† on both sides, to 1e-10: every block frame is free up to a
        unitary on a^L and the phases of the a^R basis, which come from
        LAPACK eigenvectors (the central split and the position gauge) and
        move with the last bits of their input.  On this corpus 17 of the
        35 recorded inputs get frames that differ by more than 1e-10, every
        one of them by such a block gauge.
        """
        ref = np.load(REFERENCE)
        cases = sorted({int(key.split("/")[0]) for key in ref.files})
        assert len(cases) == 35
        for i in cases:
            got = ref_input_decomposition(ref, i)
            blocks = [(b.dimL_A, b.dimR_A, b.dimL_B, b.dimR_B) for b in got.blocks]
            assert blocks == [tuple(b) for b in ref[f"{i}/blocks"].tolist()], i
            assert merge_cost_K(got) == int(ref[f"{i}/K"]), i
            assert np.abs([b.p for b in got.blocks] - ref[f"{i}/p"]).max() <= 1e-12, i
            assert np.abs([b.lambda0 for b in got.blocks] - ref[f"{i}/lambda0"]).max() <= 1e-12
            widths_a = [b.dimL_A * b.dimR_A for b in got.blocks]
            widths_b = [b.dimL_B * b.dimR_B for b in got.blocks]
            for side, widths in (("embed_A", widths_a), ("embed_B", widths_b)):
                mine, theirs = getattr(got, side), ref[f"{i}/{side}"]
                assert mine.shape == theirs.shape, (i, side)
                for cols in np.split(np.arange(mine.shape[1]), np.cumsum(widths)[:-1]):
                    a, b = mine[:, cols], theirs[:, cols]
                    assert np.abs(a @ a.conj().T - b @ b.conj().T).max() <= 1e-10, (i, side)


REFERENCE_BYTES = Path(__file__).parent / "data" / "ki-reference-bytes.txt"


def decomposition_digest(dec) -> str:
    """sha256 over every block's shape, p, λ₀, ω and φ bytes, then embed_A and embed_B."""
    h = hashlib.sha256()
    for b in dec.blocks:
        h.update(np.array([b.j, b.dimL_A, b.dimR_A, b.dimL_B, b.dimR_B]).tobytes())
        h.update(np.array([b.p, b.lambda0]).tobytes())
        h.update(b.omega.amplitudes.tobytes())
        h.update(b.phi.amplitudes.tobytes())
    h.update(np.ascontiguousarray(dec.embed_A).tobytes())
    h.update(np.ascontiguousarray(dec.embed_B).tobytes())
    return h.hexdigest()


def recorded_digests() -> dict[str, str]:
    """Index → digest, as ``tests/data/ki-reference-bytes.txt`` lists them."""
    return dict(line.split() for line in REFERENCE_BYTES.read_text().splitlines())


class TestRecordedBytes:
    def test_recorded_inputs_decompose_to_the_recorded_bytes(self):
        """Every input of ``ki-reference.npz`` decomposes to the bytes it did before.

        ``tests/data/ki-reference-bytes.txt`` holds, one line per input,
        its index and the ``decomposition_digest`` of its
        ``ref_input_decomposition``, written (NumPy 2.4.6) at the commit
        before the stacked core, the fingerprint built only for ties and
        the skipped 1×1 junk gauge.  Those three changes keep every byte.
        """
        ref = np.load(REFERENCE)
        want = recorded_digests()
        got = {str(i): decomposition_digest(ref_input_decomposition(ref, i)) for i in range(35)}
        assert got == want

    def test_stacked_rows_decompose_as_each_alone(self):
        # the reference inputs of one shape, stacked forward and then
        # reversed ahead of forward, decompose row by row to the recorded bytes
        ref = np.load(REFERENCE)
        want = recorded_digests()
        groups = {}
        for i in range(35):
            ids, dims = ref[f"{i}/ids"].tolist(), ref[f"{i}/dims"].tolist()
            psi = PureState(tuple(Register(r, d, r) for r, d in zip(ids, dims)), ref[f"{i}/amplitudes"])
            parts = tuple(ref[f"{i}/{side}"].tolist() for side in "RAB")
            perm = permute_registers(psi.normalized(), [x for part in parts for x in part])
            registers = tuple(tuple(perm.register(x) for x in part) for part in parts)
            shape = tuple(math.prod(r.dim for r in part) for part in registers)
            key = (shape, float(ref[f"{i}/rank_rtol"]))
            groups.setdefault(key, []).append((i, perm.amplitudes.reshape(shape), registers))
        assert max(len(items) for items in groups.values()) >= 5
        for (_, rank_rtol), items in groups.items():
            for seq in (items, items[::-1] + items):
                psi3 = np.array([x[1] for x in seq])
                decs = koashi_imoto.ki_rows(psi3, [x[2] for x in seq], rank_rtol=rank_rtol)
                assert [decomposition_digest(dec) for dec in decs] == [want[str(i)] for i, _, _ in seq]


# -- the matmul kernels against np.einsum ----------------------------------------


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_matches(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


# every size-1 axis the search hits: one reference dimension, scalar junk
# (m = 1), scalar content (n = 1), a single B dimension, and rank-1 content
KERNEL_SHAPES = [
    pytest.param(d_r, d_a, d_b, m, n, n_r, id=f"dR{d_r}-dA{d_a}-dB{d_b}-m{m}-n{n}-nr{n_r}")
    for d_r, d_b, m, n, n_r in itertools.product((1, 2), (1, 3), (1, 2), (1, 3), (1, 2))
    for d_a in (1, 5)
]


class TestMatmulKernelsMatchEinsum:
    @pytest.mark.parametrize("d_r, d_a, d_b, m, n, n_r", KERNEL_SHAPES)
    def test_contractions(self, d_r, d_a, d_b, m, n, n_r):
        rng = np.random.default_rng([d_r, d_a, d_b, m, n, n_r])
        psi3 = crandn(rng, d_r, d_a, d_b)
        frame = crandn(rng, d_a, m * n)
        emb3 = frame.reshape(d_a, m, n)
        chi = crandn(rng, d_r, m, n, d_b)
        lvecs = crandn(rng, m, m)
        evecs = crandn(rng, d_r * n, n_r)
        pos = np.arange(d_a, dtype=float)
        conj = np.conj

        assert_matches(koashi_imoto._marginal(psi3, 1), np.einsum("rab,rcb->ac", psi3, conj(psi3)))
        assert_matches(koashi_imoto._marginal(psi3, 2), np.einsum("rab,rad->bd", psi3, conj(psi3)))
        assert_matches(koashi_imoto._marginal(chi, 1), np.einsum("rlqb,rkqb->lk", chi, conj(chi)))
        assert_matches(koashi_imoto._a_coords(psi3, frame), np.einsum("rab,ax->rxb", psi3, conj(frame)))
        assert_matches(
            koashi_imoto._frame_position(emb3, 2), np.einsum("alp,a,alq->pq", conj(emb3), pos, emb3)
        )
        # the a^L gauge: the former spelling contracted the junk frame in first
        g = np.einsum("alq,ls->aqs", emb3, lvecs)
        assert_matches(
            conj(lvecs).T @ koashi_imoto._frame_position(emb3, 1) @ lvecs,
            np.einsum("aqs,a,aqt->st", conj(g), pos, g),
        )
        flat = chi.transpose(0, 2, 1, 3).reshape(d_r * n, m * d_b)
        ev3 = evecs.reshape(d_r, n, n_r)
        assert_matches(
            koashi_imoto._b_frame(flat, lvecs, evecs),
            np.einsum("rlqb,ls,rqt->stb", chi, conj(lvecs), conj(ev3)),
        )

    @pytest.mark.parametrize("d_r, d_a, d_b, m, n, n_r", KERNEL_SHAPES)
    def test_rebuild(self, d_r, d_a, d_b, m, n, n_r):
        rng = np.random.default_rng([7, d_r, d_a, d_b, m, n, n_r])
        shapes = [(m, n, n_r), (1, 1, 1), (2, n, 1)]
        blocks = []
        for j, (mj, nj, rj) in enumerate(shapes):
            omega = PureState(regs((f"aL{j}", mj), (f"bL{j}", mj)), crandn(rng, mj * mj))
            phi = PureState(
                regs(("R", d_r), (f"aR{j}", nj), (f"bR{j}", rj)), crandn(rng, d_r * nj * rj)
            )
            blocks.append(
                koashi_imoto.KiBlock(j, rng.uniform(0.1, 1.0), mj, nj, mj, rj, omega, phi, 0.5)
            )
        width_a = sum(mj * nj for mj, nj, _ in shapes)
        width_b = sum(mj * rj for mj, _, rj in shapes)
        dec = KiDecomposition(
            blocks=tuple(blocks),
            embed_A=crandn(rng, d_a, width_a),
            embed_B=crandn(rng, d_b, width_b),
            r_registers=regs(("R", d_r)),
            a_registers=regs(("A", d_a)),
            b_registers=regs(("B", d_b)),
        )
        want = np.zeros((d_r, d_a, d_b), dtype=complex)
        for j, blk in enumerate(dec.blocks):
            mj, nj, rj = blk.dimL_A, blk.dimR_A, blk.dimR_B
            b0 = dec.b_offset(j)
            want += math.sqrt(blk.p) * np.einsum(
                "ls,rqt,alq,bst->rab",
                blk.omega.amplitudes.reshape(mj, mj),
                blk.phi.amplitudes.reshape(d_r, nj, rj),
                dec.a_block_embed(j).reshape(d_a, mj, nj),
                dec.embed_B[:, b0 : b0 + mj * rj].reshape(d_b, mj, rj),
            )
        assert_matches(rebuild(dec).amplitudes.reshape(d_r, d_a, d_b), want)

    @pytest.mark.parametrize("d_r, d, k", [(1, 1, 1), (1, 3, 2), (2, 1, 4), (3, 4, 1), (2, 5, 3)])
    def test_transfer_ops_match_the_double_loop(self, d_r, d, k):
        rng = np.random.default_rng([11, d_r, d, k])
        slices = crandn(rng, d_r, d, k)
        former = []
        for r in range(d_r):
            for rp in range(d_r):
                t = slices[r] @ slices[rp].conj().T
                former.append(t + t.conj().T)
                former.append(1j * (t - t.conj().T))
        got = koashi_imoto._transfer_ops(slices)
        assert got.shape == (2 * d_r * d_r, d, d)
        assert_matches(got, np.array(former), rtol=1e-14)


def former_phase_fixed(cols):
    """The former column loop over :func:`canonical_phase`."""
    return np.column_stack([canonical_phase(cols[:, c]) for c in range(cols.shape[1])])


def phase_cases():
    rng = np.random.default_rng(31)
    cases = []
    for rows, width in ((1, 1), (1, 4), (3, 1), (4, 4), (16, 16), (9, 2)):
        for scale in (1.0, 1e-150, 1e150):
            cases.append(scale * crandn(rng, rows, width))
    tie = crandn(rng, 4, 6)
    tie[0] *= 10.0
    # rows 0 and 2 lead each column, their magnitudes a relative offset apart
    # on both sides of the 1e-9 whisker
    offsets = np.array([0.0, 2e-10, -2e-10, 9.99e-10, 1.001e-9, -1.5e-9])
    tie[2] = tie[0] * np.exp(1j * rng.uniform(0, 2 * np.pi, 6)) * (1.0 + offsets)
    cases.append(tie)
    exact = np.full((3, 3), 0.5 + 0.5j)
    exact[:, 1] = [-0.5, 0.5j, -0.5j]
    cases.append(exact)
    zeros = crandn(rng, 4, 5)
    zeros[:, 1] = 0.0  # an all-zero column
    zeros[:, 3] = complex(-0.0, -0.0)  # an all-zero column of signed zeros
    zeros[0, 4] = complex(-0.0, 0.0)
    zeros[2, 0] = complex(0.0, -0.0)
    cases.append(zeros)
    cases.append(np.zeros((3, 4), dtype=complex))  # zero columns only
    neg = crandn(rng, 5, 3)
    neg[1:, 2] = -0.0  # a column whose pivot is its only nonzero entry
    cases.append(neg)
    fortran = np.asfortranarray(crandn(rng, 6, 5))
    cases.append(fortran)
    cases.append(rng.standard_normal((4, 3)))  # real input comes back complex
    return cases


def bits_of(a):
    a = np.ascontiguousarray(a)
    return a.shape, a.dtype, a.tobytes()


class TestPhaseFixed:
    @pytest.mark.parametrize("k", range(len(phase_cases())))
    def test_matches_the_canonical_phase_loop_bit_for_bit(self, k):
        cols = phase_cases()[k]
        assert bits_of(phase_fixed(cols)) == bits_of(former_phase_fixed(cols))

    def test_random_columns_bit_for_bit(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            rows, width = rng.integers(1, 17, size=2)
            cols = crandn(rng, rows, width) * 10.0 ** rng.uniform(-200, 200, size=width)
            assert bits_of(phase_fixed(cols)) == bits_of(former_phase_fixed(cols))

    def test_empty(self):
        assert phase_fixed(np.zeros((0, 3))).shape == (0, 3)
        assert phase_fixed(np.zeros((3, 0))).shape == (3, 0)
