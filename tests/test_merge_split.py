"""Single-step splitting and merging protocols, checked exhaustively."""

import dataclasses
import math

import numpy as np
import oracles
import pytest
from oracles import (
    bell_columns_loop,
    canonical_phase,
    fallback_merge_reference,
    marginal_matrix,
    orthonormal_completion,
    random_state,
    same_bytes,
    shift_loop,
    tensor_product,
)

from treecast import merge_split, teleport
from treecast.codes import (
    encoded_pair,
    five_qubit_code,
    ghz_code,
    identity_code,
    random_code,
    star4_code,
)
from treecast.config import MAX_BELL_ENTRIES, PROB_TOL, VERIFY_TOL
from treecast.errors import (
    DimensionMismatch,
    InputError,
    InsufficientResource,
    SchemaError,
    ShapeMismatch,
    SynthesisFailed,
    ZeroProbabilityBranch,
)
from treecast.merge_split import (
    SplitBranch,
    _bell_basis,
    _bell_columns,
    _joint_tensor,
    _pauli_shifts,
    _shift_injection,
    _solve_corrections,
    apply_merge_correction,
    build_merge_protocol,
    build_split_protocol,
    correction_event,
    correction_matrices,
    execute_split,
    isometry_event,
    merge_cost,
    merge_post_state,
    merge_events,
    measurement_matrix,
    merge_post_states,
    split_cost,
    split_events,
    split_post_states,
    verify_merge,
)
from treecast.network import line_tree, star_tree
from treecast.protocols import run_concentrating, run_spreading
from treecast.tensors import (
    LinearMap,
    PureState,
    Register,
    apply_event,
    apply_map,
    max_entangled_pair,
    overlap,
    permute_registers,
    project_onto,
)
from treecast.trace import (
    _convert,
    _ops_from_doc,
    _OpTable,
    _reg_from,
    _regspec,
    _state_from_doc,
    concentrate_trace,
    spread_trace,
    verify_trace,
)
from treecast.verification import verify_concentrating_channel


def regs(*spec):
    return tuple(Register(i, d, o) for i, d, o in spec)


def star_phi2():
    """Merge-step state of the four-party star example: v2's share into v1."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = 1 / math.sqrt(2)
    amps[0b110] = 0.5
    amps[0b111] = 0.5
    return PureState(regs(("R", 2, "ref"), ("v2", 2, "v2"), ("v1", 2, "v1")), amps)


def five_qubit_phi2():
    """Merge-step state of the five-qubit example: v2's share into v1."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = 0.5
    amps[0b011] = 0.5
    amps[0b101] = -0.5
    amps[0b110] = -0.5
    return PureState(regs(("R", 2, "ref"), ("v2", 2, "v2"), ("v1", 2, "v1")), amps)


def corrected_branches(proto, psi):
    """(outcome, probability, corrected state) of every live merge outcome."""
    return [
        (m, prob, apply_merge_correction(proto, m, post).normalized())
        for m, (prob, post) in enumerate(merge_post_states(proto, psi))
        if prob >= PROB_TOL
    ]


def branch_matches(branch_state, psi, receiver):
    """Branch must reproduce ψ with the A registers re-owned, up to phase."""
    val = abs(overlap(branch_state, psi.normalized()))
    return abs(val - 1.0) < 1e-9


# -- splitting ----------------------------------------------------------------


class TestSplitting:
    def test_teleportation_oracle(self):
        psi = max_entangled_pair(Register("R", 2, "ref"), Register("S", 2, "alice"))
        proto = build_split_protocol(psi, ["S"], receiver="bob")
        assert proto.rank == 2 and proto.k == 2
        branches = execute_split(proto, psi)
        assert len(branches) == 4
        for br in branches:
            assert abs(br.probability - 0.25) < 1e-12
            assert br.state.register("S").owner == "bob"
            # exact reproduction, global phase included
            diff = br.state.amplitudes - psi.amplitudes
            assert np.linalg.norm(diff) < 1e-10

    def test_five_qubit_cut_ranks(self):
        psi = encoded_pair(five_qubit_code())
        cuts = [
            (["v2", "v3", "v4", "v5"], 4),
            (["v3", "v4", "v5"], 8),
            (["v4", "v5"], 4),
            (["v5"], 2),
        ]
        for ids, rank in cuts:
            assert split_cost(psi, ids) == rank

    def test_insufficient_resource(self):
        psi = max_entangled_pair(Register("R", 2, "ref"), Register("S", 2, "alice"))
        with pytest.raises(InsufficientResource):
            build_split_protocol(psi, ["S"], 1, receiver="bob")

    def test_oversized_resource_still_exact(self):
        rng = np.random.default_rng(7)
        psi = random_state(regs(("R", 2, "ref"), ("S", 2, "alice")), rng)
        proto = build_split_protocol(psi, ["S"], 3, receiver="bob")
        branches = execute_split(proto, psi)
        assert len(branches) == 9
        total = 0.0
        for br in branches:
            total += br.probability
            assert branch_matches(br.state, psi, "bob")
        assert abs(total - 1.0) < 1e-9

    def test_product_block_costs_nothing(self):
        pair = max_entangled_pair(Register("R", 2, "ref"), Register("S", 2, "alice"))
        psi = tensor_product(
            PureState(regs(("X", 2, "alice"),), np.array([1, 0], dtype=complex)), pair
        )
        assert split_cost(psi, ["X"]) == 1
        proto = build_split_protocol(psi, ["X"], receiver="bob")
        branches = execute_split(proto, psi)
        assert len(branches) == 1
        assert abs(branches[0].probability - 1.0) < 1e-12
        assert branches[0].state.register("X").owner == "bob"

    def test_multi_register_block(self):
        rng = np.random.default_rng(11)
        psi = random_state(
            regs(("R", 2, "ref"), ("S1", 2, "alice"), ("S2", 2, "alice")), rng
        )
        rank = split_cost(psi, ["S1", "S2"])
        assert rank == 2  # purifying system R is a qubit
        proto = build_split_protocol(psi, ["S1", "S2"], receiver="bob")
        for br in execute_split(proto, psi):
            assert branch_matches(br.state, psi, "bob")


# -- merging ------------------------------------------------------------------


class TestMergeGolden:
    def test_star_step_is_single_block_teleport(self):
        psi = star_phi2()
        proto = build_merge_protocol(
            psi, {"R": ["R"], "A": ["v2"], "B": ["v1"]}, receiver="v1"
        )
        assert proto.strategy == "single-block"
        assert proto.kmin == 2 and proto.k == 2
        report = verify_merge(proto, psi)
        assert report.passed, report
        branches = corrected_branches(proto, psi)
        assert len(branches) == 4
        for _, prob, state in branches:
            assert abs(prob - 0.25) < 1e-9
            assert branch_matches(state, psi, "v1")
            assert state.register("v2").owner == "v1"

    def test_five_qubit_step_is_scalar_fourier(self):
        psi = five_qubit_phi2()
        proto = build_merge_protocol(
            psi, {"R": ["R"], "A": ["v2"], "B": ["v1"]}, receiver="v1"
        )
        assert proto.strategy == "scalar-fourier"
        assert proto.kmin == 1 and proto.k == 1
        # canonical measurement: the computational basis on v2
        assert np.allclose(np.abs(proto.measurement), np.eye(2), atol=1e-9)
        assert np.allclose(sorted(proto.probs), [0.5, 0.5], atol=1e-9)
        report = verify_merge(proto, psi)
        assert report.passed, report
        for _, _, state in corrected_branches(proto, psi):
            assert branch_matches(state, psi, "v1")

    def test_five_qubit_last_vertex_junk_basis(self):
        psi = encoded_pair(five_qubit_code())
        roles = {"R": ["R"], "A": ["v5"], "B": ["v1", "v2", "v3", "v4"]}
        proto = build_merge_protocol(psi, roles, receiver="v4")
        assert proto.strategy == "single-block"
        assert proto.kmin == 1 and proto.k == 1
        assert np.allclose(np.abs(proto.measurement), np.eye(2), atol=1e-9)
        assert np.allclose(proto.probs, [0.5, 0.5], atol=1e-9)
        report = verify_merge(proto, psi)
        assert report.passed, report

    def test_uniform_junk_merges_entangled_content_for_free(self):
        junk = max_entangled_pair(Register("jA", 2, "v2"), Register("jB", 2, "v1"))
        psi = tensor_product(junk, star_phi2())
        roles = {"R": ["R"], "A": ["jA", "v2"], "B": ["jB", "v1"]}
        assert merge_cost(psi, roles) == 1
        proto = build_merge_protocol(psi, roles, receiver="v1")
        assert proto.strategy == "uniform-junk"
        assert proto.k == 1
        report = verify_merge(proto, psi)
        assert report.passed, report
        for _, _, state in corrected_branches(proto, psi):
            assert branch_matches(state, psi, "v1")


class TestMergeResource:
    def test_insufficient_resource(self):
        psi = star_phi2()
        with pytest.raises(InsufficientResource):
            build_merge_protocol(
                psi, {"R": ["R"], "A": ["v2"], "B": ["v1"]}, k=1, receiver="v1"
            )

    def test_resource_override_consumes_more(self):
        # K may exceed the tight minimum up to dim H^A; the whole resource
        # is consumed and every branch stays exact.
        rng = np.random.default_rng(41)
        small = random_state(regs(("R", 2, "ref"), ("a", 2, "A"), ("b", 3, "B")), rng)
        padded = np.zeros((2, 3, 3), dtype=complex)
        padded[:, :2, :] = small.amplitudes.reshape(2, 2, 3)
        psi = PureState(regs(("R", 2, "ref"), ("a", 3, "A"), ("b", 3, "B")), padded)
        roles = {"R": ["R"], "A": ["a"], "B": ["b"]}
        assert merge_cost(psi, roles) == 2
        proto = build_merge_protocol(psi, roles, k=3, receiver="B")
        assert proto.k == 3 and proto.kmin == 2
        report = verify_merge(proto, psi)
        assert report.passed, report
        branches = corrected_branches(proto, psi)
        assert len(branches) == 6  # 2·3 live outcomes, 3 zero-probability
        for _, prob, state in branches:
            assert abs(prob - 1 / 6) < 1e-9
            assert branch_matches(state, psi, "B")

    def test_resource_beyond_share_dimension_rejected(self):
        psi = star_phi2()
        with pytest.raises(DimensionMismatch):
            build_merge_protocol(
                psi, {"R": ["R"], "A": ["v2"], "B": ["v1"]}, k=3, receiver="v1"
            )

    def test_zero_probability_outcomes_masked(self):
        pair = max_entangled_pair(Register("R", 2, "ref"), Register("v1", 2, "v1"))
        psi = tensor_product(
            PureState(regs(("v2", 2, "v2"),), np.array([1, 0], dtype=complex)), pair
        )
        proto = build_merge_protocol(
            psi, {"R": ["R"], "A": ["v2"], "B": ["v1"]}, receiver="v1"
        )
        assert proto.k == 1
        assert proto.zero_mask == (False, True)
        report = verify_merge(proto, psi)
        assert report.passed, report
        assert abs(sum(proto.probs) - 1.0) < 1e-9

    def test_tight_never_beats_fallback(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            psi = random_state(
                regs(("R", 2, "ref"), ("a", 2, "A"), ("b1", 2, "B"), ("b2", 2, "B")),
                rng,
            )
            roles = {"R": ["R"], "A": ["a"], "B": ["b1", "b2"]}
            tight = merge_cost(psi, roles, mode="tight")
            loose = merge_cost(psi, roles, mode="fallback")
            assert 1 <= tight <= loose
            proto = build_merge_protocol(psi, roles, mode="fallback", receiver="B")
            assert proto.kmin == loose

    def test_unknown_mode_is_refused(self):
        psi = star_phi2()
        roles = {"R": ["R"], "A": ["v2"], "B": ["v1"]}
        for call in (merge_cost, build_merge_protocol):
            with pytest.raises(ValueError, match="unknown merge mode"):
                call(psi, roles, mode="loose")


class TestMergeFallback:
    def test_fallback_teleport_always_exact(self):
        rng = np.random.default_rng(31)
        psi = random_state(
            regs(("R", 3, "ref"), ("a", 3, "A"), ("b", 3, "B")), rng
        )
        proto = build_merge_protocol(
            psi, {"R": ["R"], "A": ["a"], "B": ["b"]}, mode="fallback", receiver="B"
        )
        assert proto.strategy == "fallback-teleport"
        assert proto.kmin == 3
        report = verify_merge(proto, psi)
        assert report.passed, report
        for _, _, state in corrected_branches(proto, psi):
            assert branch_matches(state, psi, "B")

    def test_skewed_junk_tight_or_fallback(self):
        # Non-uniform junk over an entangled content block: the tight
        # resource is K = ⌈0.8·2⌉ = 2 and needs the synthesized strategy.
        amps = np.zeros(4, dtype=complex)
        amps[0] = math.sqrt(0.8)
        amps[3] = math.sqrt(0.2)
        junk = PureState(regs(("jA", 2, "v2"), ("jB", 2, "v1")), amps)
        psi = tensor_product(junk, star_phi2())
        roles = {"R": ["R"], "A": ["jA", "v2"], "B": ["jB", "v1"]}
        assert merge_cost(psi, roles) == 2
        try:
            proto = build_merge_protocol(psi, roles, receiver="v1")
        except SynthesisFailed:
            proto = build_merge_protocol(psi, roles, mode="fallback", receiver="v1")
            assert proto.kmin == 4
        else:
            assert proto.strategy == "synthesized"
            assert proto.k == 2
        report = verify_merge(proto, psi)
        assert report.passed, report
        for _, _, state in corrected_branches(proto, psi):
            assert branch_matches(state, psi, "v1")


class TestMergeNegativeControl:
    def test_corrupted_correction_detected(self):
        psi = star_phi2()
        proto = build_merge_protocol(
            psi, {"R": ["R"], "A": ["v2"], "B": ["v1"]}, receiver="v1"
        )
        bad = list(proto.corrections)
        swap = np.eye(bad[1].shape[0], dtype=complex)[::-1]
        bad[1] = swap @ bad[1]
        corrupted = dataclasses.replace(proto, corrections=tuple(bad))
        report = verify_merge(corrupted, psi)
        assert not report.passed
        assert report.max_deviation > 0.1

    def test_corrupted_measurement_detected(self):
        psi = five_qubit_phi2()
        proto = build_merge_protocol(
            psi, {"R": ["R"], "A": ["v2"], "B": ["v1"]}, receiver="v1"
        )
        qbad = proto.measurement.copy()
        qbad[:, 0] = qbad[:, 0] * 0.5
        corrupted = dataclasses.replace(proto, measurement=qbad)
        report = verify_merge(corrupted, psi)
        assert not report.passed


class TestMergeRandomSweep:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_states_merge_exactly(self, seed):
        rng = np.random.default_rng(100 + seed)
        psi = random_state(
            regs(("R", 2, "ref"), ("a", 2, "A"), ("b1", 2, "B"), ("b2", 2, "B")),
            rng,
        )
        roles = {"R": ["R"], "A": ["a"], "B": ["b1", "b2"]}
        try:
            proto = build_merge_protocol(psi, roles, receiver="B")
        except SynthesisFailed:
            proto = build_merge_protocol(psi, roles, mode="fallback", receiver="B")
        report = verify_merge(proto, psi)
        assert report.passed, report
        total = 0.0
        for _, prob, state in corrected_branches(proto, psi):
            total += prob
            assert branch_matches(state, psi, "B")
        assert abs(total - 1.0) < 1e-9

    def test_no_reference_register(self):
        rng = np.random.default_rng(5)
        psi = random_state(regs(("a", 2, "A"), ("b", 2, "B")), rng)
        proto = build_merge_protocol(psi, ((), ("a",), ("b",)), receiver="B")
        report = verify_merge(proto, psi)
        assert report.passed, report

    def test_deferred_execution_path(self):
        psi = star_phi2()
        proto = build_merge_protocol(
            psi, {"R": ["R"], "A": ["v2"], "B": ["v1"]}, receiver="v1"
        )
        prob, post = merge_post_state(proto, psi, 0)
        assert prob > 0
        assert set(post.ids) == {"R", "v1", "merge:B0"}
        final = apply_merge_correction(proto, 0, post)
        assert set(final.ids) == {"R", "v1", "v2"}
        assert branch_matches(final.normalized(), psi, "v1")


# -- batched kernels against their per-outcome loop references ------------------


def solve_corrections_loop(big, g_mat, qcols, da, db, k, tol):
    """Reference: the per-outcome correction solve the batched one replaced."""
    n_out = qcols.shape[1]
    dbk = db * k
    dadb = da * db
    corrections, probs, zero_mask = [], [], []
    max_resid = 0.0
    for m in range(n_out):
        p_mat = np.einsum("rxz,x->rz", big, qcols[:, m].conj())
        p_m = float(np.linalg.norm(p_mat) ** 2)
        if p_m < PROB_TOL:
            corrections.append(np.eye(dadb, dbk, dtype=complex))
            probs.append(0.0)
            zero_mask.append(True)
            continue
        t_mat = math.sqrt(p_m) * g_mat
        s_mat = p_mat.T  # dbk × dR
        v_s, sig, w_sh = np.linalg.svd(s_mat, full_matrices=False)
        r = int(np.sum(sig > max(sig[0], 1e-300) * 1e-12))
        v_s = v_s[:, :r]
        w_img = t_mat.T @ w_sh[:r].conj().T / sig[:r][None, :]
        iso_resid = float(np.abs(w_img.conj().T @ w_img - np.eye(r)).max())
        w_comp = orthonormal_completion(w_img, dadb)[:, : dbk - r]
        v_comp = orthonormal_completion(v_s, dbk)
        u_m = w_img @ v_s.conj().T + w_comp @ v_comp.conj().T
        resid = float(np.linalg.norm(u_m @ s_mat - t_mat.T))
        max_resid = max(max_resid, resid, iso_resid)
        corrections.append(u_m)
        probs.append(p_m)
        zero_mask.append(False)
    return tuple(corrections), tuple(probs), tuple(zero_mask), max_resid


def shift_columns_loop(frames, k):
    """Reference: the nested-loop shift-injection builder."""
    m, n, da = frames.shape
    kj = m * k
    y = np.zeros((kj, n, da * k), dtype=complex)
    for c in range(kj):
        unit = np.zeros(k, dtype=complex)
        unit[c % k] = 1.0
        for a in range(n):
            y[c, a] = np.kron(frames[c // k, a], unit)
    omega = np.exp(2j * np.pi / n)
    cols = np.zeros((da * k, kj * n), dtype=complex)
    for p in range(kj):
        for q in range(n):
            v = np.zeros(da * k, dtype=complex)
            for a in range(n):
                v += (omega ** (q * a)) * y[(p + a) % kj, a]
            cols[:, p * n + q] = v / math.sqrt(n)
    return cols


def merge_post_state_loop(proto, psi, outcome):
    """Reference: one outcome projected out of ψ ⊗ Φ⁺_K by project_onto."""
    sender = psi.register(proto.a_ids[0]).owner
    joint, group = psi, list(proto.a_ids)
    if proto.k > 1:
        a0 = Register(proto.a0_id, proto.k, sender)
        b0 = Register(proto.b0_id, proto.k, proto.b0_owner)
        joint = tensor_product(psi, max_entangled_pair(a0, b0))
        group.append(proto.a0_id)
    post = project_onto(joint, group, measurement_matrix(proto)[:, outcome])
    return float(post.norm() ** 2), post


def solve_inputs(proto, psi):
    """The (big, G, Q, dA, dB, K) a protocol's correction solve works on."""
    perm = permute_registers(
        psi.normalized(), list(proto.r_ids) + list(proto.a_ids) + list(proto.b_ids)
    )
    da, db = math.prod(proto.a_dims), math.prod(proto.b_dims)
    psi3 = perm.amplitudes.reshape(-1, da, db)
    g_mat = psi3.reshape(psi3.shape[0], da * db)
    return _joint_tensor(psi3, proto.k), g_mat, measurement_matrix(proto), da, db, proto.k


def padded_state():
    """Rank-2 share padded to a qutrit: merging it at K = 3 leaves outcomes dead."""
    rng = np.random.default_rng(41)
    small = random_state(regs(("R", 2, "ref"), ("a", 2, "A"), ("b", 3, "B")), rng)
    padded = np.zeros((2, 3, 3), dtype=complex)
    padded[:, :2, :] = small.amplitudes.reshape(2, 2, 3)
    return PureState(regs(("R", 2, "ref"), ("a", 3, "A"), ("b", 3, "B")), padded)


def exact_merge_cases():
    """(psi, roles, build kwargs) of exact protocols, builtin then seeded random."""
    junk = max_entangled_pair(Register("jA", 2, "v2"), Register("jB", 2, "v1"))
    pair = max_entangled_pair(Register("R", 2, "ref"), Register("v1", 2, "v1"))
    dead = tensor_product(
        PureState(regs(("v2", 2, "v2"),), np.array([1, 0], dtype=complex)), pair
    )
    star = {"R": ["R"], "A": ["v2"], "B": ["v1"]}
    cases = [
        (star_phi2(), star, {}),
        (five_qubit_phi2(), star, {}),
        (
            encoded_pair(five_qubit_code()),
            {"R": ["R"], "A": ["v3", "v4", "v5"], "B": ["v1", "v2"]},
            {"mode": "fallback"},
        ),
        (
            tensor_product(junk, star_phi2()),
            {"R": ["R"], "A": ["jA", "v2"], "B": ["jB", "v1"]},
            {},
        ),
        (dead, star, {}),
        (padded_state(), {"R": ["R"], "A": ["a"], "B": ["b"]}, {"k": 3}),
    ]
    rng = np.random.default_rng(2024)
    for dims in ((2, 2, 3), (3, 3, 2), (2, 4, 2)):
        psi = random_state(
            regs(("R", dims[0], "ref"), ("a", dims[1], "A"), ("b", dims[2], "B")), rng
        )
        roles = {"R": ["R"], "A": ["a"], "B": ["b"]}
        cases.append((psi, roles, {"mode": "fallback"}))
        cases.append((psi, roles, {"mode": "fallback", "k": dims[1]}))
    # fallback at K = 1, and at K = dA above the rank, where U_m reads f[:, a ≥ n]
    cases.append((dead, star, {"mode": "fallback"}))
    cases.append((padded_state(), {"R": ["R"], "A": ["a"], "B": ["b"]}, {"mode": "fallback", "k": 3}))
    return cases


class TestBatchedSolve:
    @pytest.mark.parametrize("psi,roles,kwargs", exact_merge_cases())
    def test_matches_per_outcome_loop(self, psi, roles, kwargs):
        proto = build_merge_protocol(psi, roles, receiver="B", **kwargs)
        args = solve_inputs(proto, psi)
        corrections, probs, zero_mask, resid = _solve_corrections(*args)
        ref_corr, ref_probs, ref_zero, ref_resid = solve_corrections_loop(
            *args, VERIFY_TOL
        )
        assert zero_mask == ref_zero
        assert np.allclose(probs, ref_probs, rtol=0, atol=1e-12)
        assert resid <= VERIFY_TOL and ref_resid <= VERIFY_TOL
        big, g_mat, qcols, da, db, k = args
        for m, u_m in enumerate(corrections):
            assert np.abs(u_m.conj().T @ u_m - np.eye(db * k)).max() <= VERIFY_TOL
            if zero_mask[m]:
                assert np.array_equal(u_m, ref_corr[m])
                continue
            # the merge identity (1 ⊗ U_m)(⟨q_m| ⊗ 1)Ψ = √p_m G
            p_mat = np.einsum("rxz,x->rz", big, qcols[:, m].conj())
            lhs = (u_m @ p_mat.T).T
            assert np.linalg.norm(lhs - math.sqrt(probs[m]) * g_mat) <= VERIFY_TOL

    def test_outcomes_of_different_rank(self):
        # measuring a in the computational basis leaves a rank-2 block for
        # outcome 0 and a rank-1 block for outcome 1; no isometry fits both,
        # so the residual is large, and both solvers must report the same one
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[0, 0, 0] = amps[1, 0, 1] = 0.6
        amps[0, 1, 1] = math.sqrt(1 - 2 * 0.36)
        big = amps
        g_mat = amps.reshape(2, 4)
        qcols = np.eye(2, dtype=complex)
        ranks = [
            np.linalg.matrix_rank(np.einsum("rxz,x->rz", big, qcols[:, m].conj()))
            for m in range(2)
        ]
        assert ranks == [2, 1]
        got = _solve_corrections(big, g_mat, qcols, 2, 2, 1)
        ref = solve_corrections_loop(big, g_mat, qcols, 2, 2, 1, VERIFY_TOL)
        assert got[2] == ref[2] == (False, False)
        assert np.allclose(got[1], ref[1], rtol=0, atol=1e-12)
        assert got[3] > 0.1
        assert got[3] == pytest.approx(ref[3], rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_measurements_match_loop(self, seed):
        # an arbitrary basis is not a merge measurement: only the shared
        # quantities (mask, probabilities, residual) are comparable
        rng = np.random.default_rng(300 + seed)
        psi = random_state(regs(("R", 3, "ref"), ("a", 2, "A"), ("b", 3, "B")), rng)
        big = psi.amplitudes.reshape(3, 2, 3)
        g_mat = big.reshape(3, 6)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        qcols = np.linalg.qr(g)[0]
        got = _solve_corrections(big, g_mat, qcols, 2, 3, 1)
        ref = solve_corrections_loop(big, g_mat, qcols, 2, 3, 1, VERIFY_TOL)
        assert got[2] == ref[2]
        assert np.allclose(got[1], ref[1], rtol=0, atol=1e-12)
        assert got[3] == pytest.approx(ref[3], rel=1e-9)


class TestShiftInjection:
    @pytest.mark.parametrize(
        "m,n,da,k", [(1, 2, 2, 2), (1, 3, 4, 3), (2, 2, 4, 1), (2, 3, 8, 2), (1, 1, 3, 2)]
    )
    def test_matches_loop_builder(self, m, n, da, k):
        rng = np.random.default_rng(m * 100 + n * 10 + k)
        g = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
        frames = np.linalg.qr(g)[0][:, : m * n].T.reshape(m, n, da)
        got = _shift_injection(frames, k)
        assert got.shape == (da * k, m * k * n)
        assert np.abs(got - shift_columns_loop(frames, k)).max() <= 1e-12
        assert np.abs(got.conj().T @ got - np.eye(m * k * n)).max() <= 1e-12

    def test_fallback_protocol_head_matches_loop_builder(self):
        psi = encoded_pair(five_qubit_code())
        roles = {"R": ["R"], "A": ["v4", "v5"], "B": ["v1", "v2", "v3"]}
        proto = build_merge_protocol(psi, roles, mode="fallback", receiver="B")
        rank = proto.kmin
        vecs = np.linalg.eigh(marginal_matrix(psi, ["v4", "v5"]))[1][:, ::-1]
        frames = np.stack([canonical_phase(vecs[:, a]) for a in range(rank)])
        head = measurement_matrix(proto)[:, : rank * proto.k]
        ref = shift_columns_loop(frames[None], proto.k)
        # the head is the raw injection of the phase-fixed frame
        assert np.abs(head - ref).max() <= 1e-12


class TestClosedFormFallback:
    CASES = [case for case in exact_merge_cases() if case[2].get("mode") == "fallback"]

    @pytest.mark.parametrize("psi,roles,kwargs", CASES)
    def test_matches_the_solved_reference(self, psi, roles, kwargs):
        proto = build_merge_protocol(psi, roles, receiver="B", **kwargs)
        ref = fallback_merge_reference(psi, roles, kwargs.get("k"))
        assert (proto.k, proto.kmin, proto.zero_mask) == (ref.k, ref.kmin, ref.zero_mask)
        assert np.abs(np.subtract(proto.probs, ref.probs)).max() <= 1e-12
        assert verify_merge(proto, psi).passed

    @pytest.mark.parametrize("psi,roles,kwargs", CASES)
    def test_live_head_matches_the_solved_reference(self, psi, roles, kwargs):
        # the stack holds exactly the reference's live outcomes, the first K·n,
        # and on each the closed-form U_m restores √p_m ψ as the solved one does
        proto = build_merge_protocol(psi, roles, receiver="B", **kwargs)
        ref = fallback_merge_reference(psi, roles, kwargs.get("k"))
        live = proto.k * proto.kmin
        dense = correction_matrices(proto)
        assert dense.shape == (live, *ref.corrections.shape[1:])
        assert ref.zero_mask == (False,) * live + (True,) * (len(ref.zero_mask) - live)
        ids = list(proto.r_ids) + list(proto.a_ids) + list(proto.b_ids)
        perm = permute_registers(psi.normalized(), ids)
        da, db = math.prod(proto.a_dims), math.prod(proto.b_dims)
        psi3 = perm.amplitudes.reshape(-1, da, db)
        for p, u in ((proto, dense), (ref, ref.corrections)):
            blocks, probs = merge_split._outcome_blocks(_joint_tensor(psi3, p.k), measurement_matrix(p))
            fixed = u[:live] @ blocks[:live].swapaxes(1, 2)  # U_m S_m
            want = np.sqrt(probs[:live])[:, None, None] * psi3.reshape(len(psi3), -1).T
            assert np.abs(fixed - want).max() <= 1e-9

    def test_cases_cover_k_one_and_k_at_da(self):
        protos = [build_merge_protocol(psi, roles, **kw) for psi, roles, kw in self.CASES]
        shapes = [(p.k, p.kmin, math.prod(p.a_dims)) for p in protos]
        assert any(k == 1 for k, _, _ in shapes)
        assert any(k == da > kmin for k, kmin, da in shapes)
        assert any(k == da == kmin for k, kmin, da in shapes)

    def test_shift_off_by_one_fails_the_residual_check(self, monkeypatch):
        # outcome 0 = (p, q) = (0, 0) is gathered at shift 1 (its post row
        # swapped with outcome n's), so its closed-form U_0 no longer fits
        psi, roles, kwargs = self.CASES[0]
        proto = build_merge_protocol(psi, roles, **kwargs)
        n = proto.kmin
        assert proto.k > 1 and len(proto.probs) > n
        gather = merge_split._teleport_posts

        def off_by_one(*args):
            posts, c = gather(*args)
            return posts[:, [n, *range(1, n), 0, *range(n + 1, posts.shape[1])]], c

        monkeypatch.setattr(merge_split, "_teleport_posts", off_by_one)
        with pytest.raises(SynthesisFailed, match="correction residual"):
            build_merge_protocol(psi, roles, **kwargs)


class TestTeleportBlocks:
    @pytest.mark.parametrize("psi,roles,kwargs", TestClosedFormFallback.CASES)
    def test_record_keeps_the_teleport_block(self, psi, roles, kwargs):
        # the record's frame gives each live w_m as the former stored stack held it
        proto = build_merge_protocol(psi, roles, receiver="B", **kwargs)
        live = np.arange(proto.k * proto.kmin)
        w = teleport._teleport_blocks(proto.frame[None], proto.kmin, proto.k, 0, live)
        assert w.shape == (proto.k * proto.kmin, math.prod(proto.a_dims), proto.k)
        same_bytes(w, oracles.fallback_closed_form(proto)[1])

    @pytest.mark.parametrize("psi,roles,kwargs", TestClosedFormFallback.CASES)
    def test_record_holds_its_frame_only(self, psi, roles, kwargs):
        proto = build_merge_protocol(psi, roles, receiver="B", **kwargs)
        da = math.prod(proto.a_dims)
        assert proto.frame.shape == (da, da)
        assert proto.measurement is None and proto.corrections is None
        arrays = [v for v in vars(proto).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) <= da * da * 16

    @pytest.mark.parametrize("psi,roles,kwargs", TestClosedFormFallback.CASES)
    def test_measurement_equals_the_stored_closed_form(self, psi, roles, kwargs):
        proto = build_merge_protocol(psi, roles, receiver="B", **kwargs)
        same_bytes(measurement_matrix(proto), oracles.fallback_closed_form(proto)[0])

    @pytest.mark.parametrize("psi,roles,kwargs", TestClosedFormFallback.CASES)
    def test_dense_stack_equals_the_former_one(self, psi, roles, kwargs):
        proto = build_merge_protocol(psi, roles, receiver="B", **kwargs)
        want = oracles.dense_fallback_corrections(proto)
        same_bytes(correction_matrices(proto), want)
        picked = [len(want) - 1, 0, len(want) // 2]
        same_bytes(correction_matrices(proto, picked[:2], (proto, picked[2:])), want[picked])
        # repeated outcomes of one record are derived once and gathered
        repeated = [0, len(want) - 1, 0, 0, len(want) - 1]
        same_bytes(correction_matrices(proto, repeated[:3], (proto, repeated[3:])), want[repeated])

    def test_tight_and_fallback_runs_stack_in_order(self):
        padded, roles = padded_state(), {"R": ["R"], "A": ["a"], "B": ["b"]}
        tight = build_merge_protocol(padded, roles, k=3)
        fallback = build_merge_protocol(padded, roles, k=3, mode="fallback")
        assert tight.strategy != fallback.strategy
        same_bytes(correction_matrices(tight), tight.corrections)
        # a tuple of matrices reads as their stack
        as_tuple = dataclasses.replace(tight, corrections=tuple(tight.corrections))
        same_bytes(correction_matrices(as_tuple), tight.corrections)
        same_bytes(measurement_matrix(tight), tight.measurement)
        got = correction_matrices(tight, [1, 0], (fallback, [2, 0]), (tight, [2]))
        dense = oracles.dense_fallback_corrections(fallback)
        same_bytes(got, np.concatenate([tight.corrections[[1, 0]], dense[[2, 0]], tight.corrections[[2]]]))

    def test_records_of_different_rank_derive_together(self):
        # one run over fallback records of ranks 2 and 1 at K = 2
        rank2 = random_state(regs(("R", 2, "ref"), ("a", 2, "A"), ("b", 2, "B")), np.random.default_rng(8))
        rank1 = tensor_product(
            PureState(regs(("a", 2, "A"),), np.array([0.6, 0.8j])),
            random_state(regs(("R", 2, "ref"), ("b", 2, "B")), np.random.default_rng(9)),
        )
        roles = {"R": ["R"], "A": ["a"], "B": ["b"]}
        two, one = (build_merge_protocol(p, roles, k=2, mode="fallback") for p in (rank2, rank1))
        assert (two.kmin, one.kmin) == (2, 1)
        got = correction_matrices(two, [3, 0], (one, [1, 0, 1]), (two, [2]))
        want2, want1 = (oracles.dense_fallback_corrections(p) for p in (two, one))
        same_bytes(got, np.concatenate([want2[[3, 0]], want1[[1, 0, 1]], want2[[2]]]))


def assert_gathered_posts_match_the_oracle(proto, psi):
    """Every outcome's post row, head and tail, as the measured contraction gives it, within 1e-12."""
    probs, posts, rest = merge_split._merge_post_rows([proto], psi.amplitudes[None], psi.registers)
    want, want_regs = oracles.measured_post_rows(proto, psi)
    assert posts.shape == (1, *want.shape) == (1, len(proto.probs), want.shape[1])
    assert rest == want_regs
    assert np.abs(posts[0] - want).max() <= 1e-12
    assert np.abs(probs[0] - np.linalg.norm(want, axis=1) ** 2).max() <= 1e-12


class TestGatheredPosts:
    @pytest.mark.parametrize("psi,roles,kwargs", TestClosedFormFallback.CASES)
    def test_fallback_rows_match_the_measured_oracle(self, psi, roles, kwargs):
        proto = build_merge_protocol(psi, roles, receiver="B", **kwargs)
        assert proto.frame is not None
        assert_gathered_posts_match_the_oracle(proto, psi)

    def test_an_off_by_one_shift_fails_the_oracle(self, monkeypatch):
        # the mutant gathers head outcome p·n + q at shift p + 1
        tables = teleport._post_tables

        def shifted(n, k, da):
            index, scale = (t.copy() for t in tables(n, k, da))
            index[: k * n], scale[: k * n] = np.roll(index[: k * n], 1, axis=1), np.roll(scale[: k * n], 1, axis=1)
            return index, scale

        cases = [(psi, build_merge_protocol(psi, roles, **kw)) for psi, roles, kw in TestClosedFormFallback.CASES]
        monkeypatch.setattr(teleport, "_post_tables", shifted)
        caught = 0
        for psi, proto in cases:
            if proto.k > 1:
                with pytest.raises(AssertionError):
                    assert_gathered_posts_match_the_oracle(proto, psi)
                caught += 1
        assert caught >= 3

    def test_fallback_stages_form_no_measurement(self, monkeypatch):
        # a fallback stage, its expansion and the channel check read frames only
        def refused(*args, **kwargs):
            raise AssertionError("a fallback stage formed a measurement")

        code, tree = ghz_code(3), line_tree(3)
        for name in ("_teleport_columns", "_joint_tensor", "_outcome_blocks", "measurement_matrix"):
            monkeypatch.setattr(merge_split, name, refused)
        result = run_concentrating(code, tree, mode="fallback")
        assert result.fallback_edges and result.min_fidelity >= 1.0 - 1e-9
        assert verify_concentrating_channel(code, tree, result, samples=2).passed
        psi = encoded_pair(code)
        proto = build_merge_protocol(psi, {"R": ["R"], "A": ["v3"], "B": ["v1", "v2"]}, mode="fallback")
        assert len(merge_post_states(proto, psi)) == len(proto.probs)


class TestLiveCorrections:
    def fallback_with_dead_outcomes(self):
        """The first fallback case with K > 1 and dead outcomes, and its protocol."""
        for psi, roles, kwargs in TestClosedFormFallback.CASES:
            proto = build_merge_protocol(psi, roles, **kwargs)
            if proto.k > 1 and any(proto.zero_mask):
                assert len(correction_matrices(proto)) == proto.zero_mask.index(True)
                return psi, proto
        raise AssertionError("no fallback case has dead outcomes")

    def test_a_swapped_frame_fails_verification(self):
        # the measurement and the corrections both follow from the frame, so
        # reordering the support columns is only a relabeled teleport; moving
        # a column off the support loses its branch and leaves tail outcomes
        # live that no correction covers
        psi, proto = self.fallback_with_dead_outcomes()
        assert verify_merge(proto, psi).passed
        n, f = proto.kmin, proto.frame
        if n > 1:
            inside = dataclasses.replace(proto, frame=f[:, [1, 0, *range(2, f.shape[1])]])
            assert verify_merge(inside, psi).passed
        swapped = dataclasses.replace(proto, frame=f[:, [n, *range(1, n), 0, *range(n + 1, f.shape[1])]])
        report = verify_merge(swapped, psi)
        assert not report.passed
        assert report.max_deviation >= 0.1
        live = proto.k * n
        assert min(report.deviations[:live]) >= 0.1  # every covered outcome misses its branch
        assert math.inf in report.deviations[live:]

    def test_correction_event_refuses_a_dead_outcome(self):
        _, proto = self.fallback_with_dead_outcomes()
        live = len(correction_matrices(proto))
        assert correction_event(proto, live - 1)["matrix"] is not None
        with pytest.raises(ZeroProbabilityBranch, match=f"outcome {live} "):
            correction_event(proto, live)
        tight = build_merge_protocol(*exact_merge_cases()[4][:2])  # the dead-share case
        dead = tight.zero_mask.index(True)
        with pytest.raises(ZeroProbabilityBranch):
            correction_event(tight, dead)


class TestBatchedExpansion:
    @pytest.mark.parametrize("psi,roles,kwargs", exact_merge_cases())
    def test_post_states_match_per_outcome_projection(self, psi, roles, kwargs):
        proto = build_merge_protocol(psi, roles, receiver="B", **kwargs)
        batched = merge_post_states(proto, psi)
        assert len(batched) == measurement_matrix(proto).shape[1] == len(proto.probs)
        for m, (prob, post) in enumerate(batched):
            ref_prob, ref_post = merge_post_state_loop(proto, psi, m)
            assert post.registers == ref_post.registers
            assert abs(prob - ref_prob) <= 1e-12
            assert np.abs(post.amplitudes - ref_post.amplitudes).max() <= 1e-12
            assert abs(prob - proto.probs[m]) <= 1e-12
            single = merge_post_state(proto, psi, m)
            assert single[0] == pytest.approx(prob, abs=1e-15)

    def test_selected_outcomes_keep_their_order(self):
        psi = star_phi2()
        proto = build_merge_protocol(
            psi, {"R": ["R"], "A": ["v2"], "B": ["v1"]}, receiver="v1"
        )
        picked = merge_post_states(proto, psi, [3, 1])
        full = merge_post_states(proto, psi)
        for (p, post), m in zip(picked, [3, 1]):
            assert p == pytest.approx(full[m][0], abs=1e-15)
            assert np.allclose(post.amplitudes, full[m][1].amplitudes, atol=1e-15)


# -- the event interpreter against the direct calls it replaced ------------------


def execute_split_reference(protocol, psi, *, outcomes=None, a0_id="split:A0", b0_id="split:B0"):
    """Reference: the split spelled as direct calls, before it ran as events."""
    k = protocol.k
    moved = [psi.register(i) for i in protocol.moved_ids]
    out_regs = tuple(r.with_owner(protocol.receiver) for r in moved)
    if all(r.dim == 1 for r in moved):
        table = {r.id: r for r in out_regs}
        relabeled = tuple(table.get(r.id, r) for r in psi.registers)
        return [SplitBranch(0, 1.0, PureState(relabeled, psi.amplitudes))]
    buffer = Register(f"buf:{protocol.moved_ids[0]}", k, protocol.sender)
    compressed = apply_map(psi, LinearMap(tuple(moved), (buffer,), protocol.compress))
    a0 = Register(a0_id, k, protocol.sender)
    b0 = Register(b0_id, k, protocol.receiver)
    joint = tensor_product(compressed, max_entangled_pair(a0, b0))
    branches = []
    wanted = range(k * k) if outcomes is None else outcomes
    for m in wanted:
        post = project_onto(joint, [buffer.id, a0.id], protocol.bell[:, m])
        prob = float(post.norm() ** 2)
        if prob < PROB_TOL:
            raise ZeroProbabilityBranch(f"split outcome {m} has zero probability")
        fixed = apply_map(post, LinearMap((b0,), (b0,), protocol.corrections[m]))
        final = apply_map(fixed, LinearMap((b0,), out_regs, protocol.decompress))
        branches.append(SplitBranch(int(m), prob, final.normalized()))
    return branches


def apply_event_reference(state, ev, ops):
    """Reference: the trace's former engine over serialized events."""
    kind = ev["type"]
    if kind == "resource-consumed":
        if "a0" in ev:
            pair = max_entangled_pair(_reg_from(ev["a0"]), _reg_from(ev["b0"]))
            state = tensor_product(state, pair)
        return state, None
    if kind == "local-isometry":
        in_regs = tuple(state.register(s["id"]) for s in ev["in"])
        out_regs = tuple(_reg_from(s) for s in ev["out"])
        return apply_map(state, LinearMap(in_regs, out_regs, ops[ev["matrix"]])), None
    if kind == "measurement":
        basis = ops[ev["basis"]]
        post = project_onto(
            state, [s["id"] for s in ev["targets"]], basis[:, int(ev["outcome"])]
        )
        return post.normalized(), float(post.norm() ** 2)
    return state, None


def spread_events_reference(code, result, outcomes):
    """Reference: the hand-built spread-trace event list, resource-first blocks.

    Returns the serialized events (probabilities included) and their
    operator table, evolving the state through the former engine.
    """
    root = result.labeling[0]
    table, matrices = _OpTable(), {}
    events = []

    def add(matrix):
        ref = table.add(matrix)
        matrices[ref] = matrix
        return ref

    def emit(state, ev):
        state, prob = apply_event_reference(state, ev, matrices)
        if prob is not None:
            ev["probability"] = prob
        events.append(ev)
        return state

    logical = Register("L", code.logical_dim, root)
    ref = Register("R", code.logical_dim, "reference")
    phys_at_root = tuple(Register(p, d, root) for p, d in zip(code.parties, code.physical_dims))
    state = emit(
        max_entangled_pair(ref, logical),
        {
            "type": "local-isometry",
            "party": root,
            "matrix": add(code.matrix),
            "in": [_regspec(logical)],
            "out": [_regspec(r) for r in phys_at_root],
        },
    )
    for step, m in zip(result.steps, outcomes):
        proto = step.protocol
        moved = [state.register(i) for i in proto.moved_ids]
        moved_out = [r.with_owner(step.child) for r in moved]
        resource = {"type": "resource-consumed", "edge": [step.parent, step.child], "k": proto.k}
        if all(r.dim == 1 for r in moved):
            state = emit(state, resource)
            state = emit(
                state,
                {
                    "type": "local-isometry",
                    "party": step.child,
                    "matrix": add(np.eye(1, dtype=complex)),
                    "in": [_regspec(r) for r in moved],
                    "out": [_regspec(r) for r in moved_out],
                },
            )
            continue
        sender = proto.sender
        buf = Register(f"buf:{proto.moved_ids[0]}", proto.k, sender)
        a0 = Register(f"sp:{step.child}:A0", proto.k, sender)
        b0 = Register(f"sp:{step.child}:B0", proto.k, step.child)
        resource["a0"] = _regspec(a0)
        resource["b0"] = _regspec(b0)
        state = emit(state, resource)
        state = emit(
            state,
            {
                "type": "local-isometry",
                "party": sender,
                "matrix": add(proto.compress),
                "in": [_regspec(r) for r in moved],
                "out": [_regspec(buf)],
            },
        )
        state = emit(
            state,
            {
                "type": "measurement",
                "party": sender,
                "basis": add(proto.bell),
                "targets": [_regspec(buf), _regspec(a0)],
                "outcome": m,
            },
        )
        state = emit(state, {"type": "broadcast", "party": sender, "outcome": m})
        state = emit(
            state,
            {
                "type": "local-isometry",
                "party": step.child,
                "matrix": add(proto.corrections[m]),
                "in": [_regspec(b0)],
                "out": [_regspec(b0)],
            },
        )
        state = emit(
            state,
            {
                "type": "local-isometry",
                "party": step.child,
                "matrix": add(proto.decompress),
                "in": [_regspec(b0)],
                "out": [_regspec(r) for r in moved_out],
            },
        )
    return events, table.to_doc()


def spreading_steps(code, tree, k_overrides=None):
    """(state, protocol) before each split of a spreading run, via the reference."""
    start = encoded_pair(code)
    state = PureState(
        tuple(r if r.id == "R" else r.with_owner(tree.root) for r in start.registers),
        start.amplitudes,
    )
    order = tree.default_labeling()
    cases = []
    for child in order[1:]:
        block = [v for v in order if v in set(tree.subtree(child))]
        k = (k_overrides or {}).get(child)
        proto = build_split_protocol(state, block, k, receiver=child)
        cases.append((state, proto))
        state = execute_split_reference(proto, state)[0].state
    return cases


def spreading_codes():
    rng = np.random.default_rng(77)
    return [
        (five_qubit_code(), line_tree(5)),
        (star4_code(), star_tree(4)),
        (identity_code(2, 3), line_tree(3)),  # all-trivial moved blocks
        (random_code(rng, 2, (3, 3, 3, 3)), line_tree(4)),
        (random_code(rng, 3, (2, 2, 2, 2)), star_tree(4)),
    ]


def split_cases():
    """(state, protocol): spreading steps of builtin and random codes, plus single splits."""
    cases = [c for code, tree in spreading_codes() for c in spreading_steps(code, tree)]
    pair = max_entangled_pair(Register("R", 2, "ref"), Register("S", 2, "alice"))
    product = tensor_product(
        PureState(regs(("X", 2, "alice"),), np.array([1, 0], dtype=complex)), pair
    )
    rng = np.random.default_rng(7)
    noisy = random_state(regs(("R", 2, "ref"), ("S", 2, "alice")), rng)
    cases.append((pair, build_split_protocol(pair, ["S"], receiver="bob")))
    cases.append((product, build_split_protocol(product, ["X"], receiver="bob")))  # K = 1
    cases.append((noisy, build_split_protocol(noisy, ["S"], 3, receiver="bob")))  # K > rank
    return cases


def resolved(events, operators):
    """Events with operator refs replaced by their matrices; ``{"bell": K}`` via the loop."""
    out = []
    for ev in events:
        ev = dict(ev)
        for key in ev.keys() & {"matrix", "basis"}:
            item = operators[ev[key]]
            if "bell" in item:
                ev[key] = bell_columns_loop(item["bell"])
            else:
                ev[key] = np.array([complex(*x) for x in item["data"]]).reshape(item["shape"])
        out.append(ev)
    return out


def compress_first(events):
    """Swap each teleport block's resource event behind its compression."""
    events = list(events)
    for i in range(len(events) - 1):
        ev, nxt = events[i], events[i + 1]
        if ev["type"] == "resource-consumed" and "a0" in ev and nxt["type"] == "local-isometry":
            events[i], events[i + 1] = nxt, ev
    return events


class TestSplitInterpreter:
    @pytest.mark.parametrize("psi,proto", split_cases())
    def test_matches_direct_calls_on_every_outcome(self, psi, proto):
        got = execute_split(proto, psi)
        want = execute_split_reference(proto, psi)
        trivial = all(d == 1 for d in proto.moved_dims)
        assert [b.outcome for b in got] == [b.outcome for b in want]
        assert len(got) == (1 if trivial else proto.k**2)
        for g, w in zip(got, want):
            assert abs(g.probability - w.probability) <= 1e-12
            assert set(g.state.registers) == set(w.state.registers)
            aligned = permute_registers(g.state, list(w.state.ids))
            assert np.abs(aligned.amplitudes - w.state.amplitudes).max() <= 1e-12

    def test_selected_outcomes_match_the_exhaustive_run(self):
        psi, proto = spreading_steps(five_qubit_code(), line_tree(5))[1]
        full = execute_split(proto, psi)
        picked = execute_split(proto, psi, outcomes=[63, 5])
        assert [b.outcome for b in picked] == [63, 5]
        for b in picked:
            assert b.probability == full[b.outcome].probability
            assert np.array_equal(b.state.amplitudes, full[b.outcome].state.amplitudes)

    def test_trivial_block_is_resource_and_relabel(self):
        psi, proto = spreading_steps(identity_code(2, 3), line_tree(3))[0]
        prefix, tail = split_events(proto, psi.registers, 0)
        assert [e["type"] for e in prefix] == ["resource-consumed", "local-isometry"]
        assert tail == []
        (branch,) = execute_split(proto, psi)
        assert branch.probability == 1.0
        assert {r.id: r.owner for r in branch.state.registers}["v3"] == "v2"


def split_tail_reference(protocol, psi, outcomes=None):
    """Reference: the former per-outcome interpreter tail of ``execute_split``."""
    prefix, tail = split_events(protocol, psi.registers, 0)
    head = psi
    for event in prefix:
        head, _ = oracles.apply_event(head, event)
    if not tail:
        return [(0, 1.0, head)]
    out = []
    for m in range(protocol.k**2) if outcomes is None else outcomes:
        state, prob = head, None
        for event in split_events(protocol, psi.registers, int(m))[1]:
            state, p = oracles.apply_event(state, event)
            prob = prob if p is None else p
        out.append((int(m), prob, state.normalized()))
    return out


def batched_split_cases():
    """split_cases, plus spreading steps at K above the moved dimension."""
    code = random_code(np.random.default_rng(5), 2, (2, 2, 2))
    wide = spreading_steps(code, line_tree(3), k_overrides={"v3": 3})
    assert wide[1][1].k > math.prod(wide[1][1].moved_dims)
    return split_cases() + wide


class TestBatchedSplit:
    @pytest.mark.parametrize("psi,proto", batched_split_cases())
    def test_matches_per_outcome_interpreter_tail(self, psi, proto):
        got = split_post_states(proto, psi)
        want = split_tail_reference(proto, psi)
        assert len(got) == len(want)
        for (m, p, state), (ref_m, ref_p, ref_state) in zip(got, want):
            assert m == ref_m
            assert state.registers == ref_state.registers
            assert abs(p - ref_p) <= 1e-12
            assert np.abs(state.amplitudes - ref_state.amplitudes).max() <= 1e-12

    def test_selected_outcomes_match_the_reference(self):
        psi, proto = spreading_steps(five_qubit_code(), line_tree(5))[1]
        picked = [63, 0, 5, 5]
        got = split_post_states(proto, psi, picked)
        want = split_tail_reference(proto, psi, picked)
        assert [m for m, _, _ in got] == picked
        for (m, p, state), (ref_m, ref_p, ref_state) in zip(got, want):
            assert state.registers == ref_state.registers
            assert abs(p - ref_p) <= 1e-12
            assert np.abs(state.amplitudes - ref_state.amplitudes).max() <= 1e-12

    @pytest.mark.parametrize("bad", [-1, 64])
    def test_outcome_outside_range_is_refused(self, bad):
        psi, proto = spreading_steps(five_qubit_code(), line_tree(5))[1]
        assert proto.k**2 == 64
        with pytest.raises(InputError):
            split_post_states(proto, psi, [bad])
        with pytest.raises(InputError):
            execute_split(proto, psi, outcomes=[0, bad])

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 18, 32])
    def test_bell_columns_and_shifts_match_the_loops(self, k):
        shifts = _pauli_shifts(k)
        for p in range(k):
            for q in range(k):
                assert shifts[p * k + q].tobytes() == shift_loop(k, p, q).tobytes()
        assert _bell_columns(shifts).tobytes() == bell_columns_loop(k).tobytes()


class TestSharedSplitTables:
    """Each K's Pauli shifts and Bell basis are built once and shared read-only."""

    @pytest.mark.parametrize("table", [_pauli_shifts, _bell_basis])
    @pytest.mark.parametrize("k", [1, 2, 5, 18, 32])
    def test_repeated_calls_share_one_read_only_array(self, table, k):
        first = table(k)
        assert table(k) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        with pytest.raises(ValueError):
            first += 0.0

    @pytest.mark.parametrize("table", [_pauli_shifts, _bell_basis])
    def test_past_the_bound_built_per_call(self, table):
        assert 33**4 > MAX_BELL_ENTRIES >= 32**4
        first = table(33)
        second = table(33)
        assert first is not second and first.flags.writeable
        same_bytes(first, second)
        del first, second
        assert table(32) is table(32)

    def test_a_second_call_builds_nothing(self, monkeypatch):
        built = []

        def counted(builder):
            def build(*args):
                built.append(builder.__name__)
                return builder(*args)
            return build

        monkeypatch.setattr(merge_split, "_shift_table", counted(merge_split._shift_table))
        monkeypatch.setattr(merge_split, "_bell_columns", counted(merge_split._bell_columns))
        merge_split._shared.cache_clear()
        try:
            for k in (2, 3, 18, 2, 3, 18):
                _bell_basis(k)
                _pauli_shifts(k)
            assert sorted(built) == sorted(["_shift_table", "_bell_columns"] * 3)
            # past the bound (lowered here, so K = 5 stays cheap) every call builds
            monkeypatch.setattr(merge_split, "MAX_BELL_ENTRIES", 4**4)
            built.clear()
            _bell_basis(5)
            _pauli_shifts(5)
            assert sorted(built) == ["_bell_columns", "_shift_table", "_shift_table"]
        finally:
            merge_split._shared.cache_clear()

    def test_protocols_hold_the_shared_tables(self):
        for psi, proto in spreading_steps(five_qubit_code(), line_tree(5)):
            assert proto.bell is _bell_basis(proto.k)
            assert proto.corrections is _pauli_shifts(proto.k)
        psi = random_state(regs(("a", 3, "A"), ("b", 3, "B")), np.random.default_rng(4))
        wide = build_split_protocol(psi, ["a"], k=5, receiver="B")
        assert wide.bell is _bell_basis(5) and wide.corrections is _pauli_shifts(5)
        same_bytes(wide.bell, bell_columns_loop(5))


class TestMergeOutcomeRange:
    @pytest.mark.parametrize("bad", [-1, "n"])
    def test_outcome_outside_range_is_refused(self, bad):
        code = ghz_code(3)
        result = run_concentrating(code, line_tree(3))
        proto = result.steps[3][()].protocol
        n = proto.measurement.shape[1]
        bad = n if bad == "n" else bad
        psi = encoded_pair(code)
        with pytest.raises(InputError):
            merge_post_states(proto, psi, [0, bad])
        with pytest.raises(InputError):
            merge_post_state(proto, psi, bad)


class TestSpreadTraceEvents:
    @pytest.mark.parametrize("code,tree", spreading_codes())
    def test_matches_hand_built_events(self, code, tree):
        result = run_spreading(code, tree)
        outcomes = [s.protocol.k**2 - 1 for s in result.steps]
        doc = spread_trace(code, tree, result, outcomes=outcomes)
        ref_events, ref_ops = spread_events_reference(code, result, outcomes)
        got = resolved(doc["events"], doc["operators"])
        want = compress_first(resolved(ref_events, ref_ops))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.keys() == w.keys()
            for key in g:
                if key in ("matrix", "basis"):
                    assert g[key].shape == w[key].shape
                    assert np.abs(g[key] - w[key]).max() <= 1e-12
                elif key == "probability":
                    assert abs(g[key] - w[key]) <= 1e-12
                else:
                    assert g[key] == w[key]
        # the interpreter runs the resource-first order to the same state
        resource_first = dict(doc, events=ref_events, operators=ref_ops)
        verdict = verify_trace(resource_first)
        assert verdict["hash_match"] and verdict["passed"]


class TestMergeEvents:
    @pytest.mark.parametrize("psi,roles,kwargs", exact_merge_cases())
    def test_events_reproduce_the_batched_expansion(self, psi, roles, kwargs):
        proto = build_merge_protocol(psi, roles, receiver="B", **kwargs)
        batched = merge_post_states(proto, psi)
        for m in np.flatnonzero(~np.array(proto.zero_mask))[:6]:
            state, prob = psi, None
            for event in merge_events(proto, int(m)):
                state, p = one_row(state, event)
                prob = prob if p is None else p
            ref_prob, ref_post = batched[m]
            assert abs(prob - ref_prob) <= 1e-12
            aligned = permute_registers(state, list(ref_post.ids))
            assert np.abs(aligned.amplitudes - ref_post.amplitudes).max() <= 1e-12

    @pytest.mark.parametrize("psi,roles,kwargs", exact_merge_cases())
    def test_correction_matches_direct_map(self, psi, roles, kwargs):
        proto = build_merge_protocol(psi, roles, receiver="B", **kwargs)
        for m, (prob, post) in enumerate(merge_post_states(proto, psi)):
            if prob < PROB_TOL:
                continue
            in_regs = [post.register(i) for i in proto.b_ids]
            if proto.k > 1:
                in_regs.append(post.register(proto.b0_id))
            out_regs = tuple(
                Register(i, d, proto.receiver) for i, d in zip(proto.a_ids, proto.a_dims)
            ) + tuple(post.register(i) for i in proto.b_ids)
            u_m = correction_matrices(proto, [m])[0]
            want = apply_map(post, LinearMap(tuple(in_regs), out_regs, u_m))
            got = apply_merge_correction(proto, m, post)
            assert set(got.ids) == set(want.ids)
            aligned = permute_registers(got, list(want.ids))
            assert np.abs(aligned.amplitudes - want.amplitudes).max() <= 1e-12


def one_row(state, event):
    """``apply_event`` on the one row ``state``: (state, probability or None)."""
    amps, regs, probs = apply_event(state.amplitudes[None], state.registers, event)
    return PureState(regs, amps[0]), None if probs is None else float(probs[0])


class TestApplyEvent:
    def test_measurement_leaves_the_state_unnormalized(self):
        psi = max_entangled_pair(Register("R", 2, "ref"), Register("S", 2, "alice"))
        basis = np.eye(2, dtype=complex)
        event = {"type": "measurement", "basis": basis, "targets": [psi.register("S")], "outcome": 1}
        post, prob = one_row(psi, event)
        assert prob == pytest.approx(0.5)
        assert post.norm() ** 2 == pytest.approx(0.5)

    def test_bad_events_rejected(self):
        psi = max_entangled_pair(Register("R", 2, "ref"), Register("S", 2, "alice"))
        target = [psi.register("S")]
        with pytest.raises(SchemaError):
            one_row(psi, {"type": "teleport"})
        with pytest.raises(SchemaError):
            one_row(psi, {"type": "measurement", "basis": np.eye(2), "targets": target, "outcome": 2})
        zero = PureState(psi.registers, np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(ZeroProbabilityBranch):
            one_row(zero, {"type": "measurement", "basis": np.eye(2), "targets": target, "outcome": 1})
        wrong = {
            "type": "local-isometry",
            "matrix": np.eye(3),
            "in": [Register("S", 3, "alice")],
            "out": [Register("S", 3, "alice")],
        }
        with pytest.raises(ShapeMismatch):
            one_row(psi, wrong)

    @pytest.mark.parametrize("outcome", [True, 0.9, "0", [0.0], -1, 2])
    def test_outcome_is_an_integer_column(self, outcome):
        psi = max_entangled_pair(Register("R", 2, "ref"), Register("S", 2, "alice"))
        event = {"type": "measurement", "basis": np.eye(2), "targets": [psi.register("S")]}
        with pytest.raises(SchemaError, match="is not a column of the basis"):
            one_row(psi, event | {"outcome": outcome})

    def test_per_row_maps_and_outcomes_must_match_the_rows(self):
        psi = max_entangled_pair(Register("R", 2, "ref"), Register("S", 2, "alice"))
        rows, target = np.stack([psi.amplitudes] * 3), [psi.register("S")]
        stack = isometry_event("alice", np.stack([np.eye(2)] * 2), target, target)
        measured = {"type": "measurement", "basis": np.eye(2), "targets": target}
        for event in (stack, measured | {"outcome": [0, 1]}, measured | {"outcome": [[0, 1, 0]]}):
            with pytest.raises(ShapeMismatch):
                apply_event(rows, psi.registers, event)




def _traced(kind, code, tree, **run):
    def make():
        c, t = code(), tree()
        if kind == "spread":
            result = run_spreading(c, t)
            # the last outcome of every split, so shifts and phases all act
            return spread_trace(c, t, result, outcomes=[s.protocol.k**2 - 1 for s in result.steps])
        result = run_concentrating(c, t, **run)
        return concentrate_trace(c, t, result, outcomes=result.branches[-1].outcomes)

    return make


TRACED = {
    "spread-five_qubit-line": _traced("spread", five_qubit_code, lambda: line_tree(5)),
    "spread-star4": _traced("spread", star4_code, lambda: star_tree(4)),
    "concentrate-five_qubit-line": _traced("concentrate", five_qubit_code, lambda: line_tree(5)),
    "concentrate-star4": _traced("concentrate", star4_code, lambda: star_tree(4)),
    "concentrate-ghz4-fallback": _traced(
        "concentrate", lambda: ghz_code(4), lambda: line_tree(4), mode="fallback"
    ),
}


def traced_events(doc):
    """A trace's initial state and its events with operators and registers resolved."""
    ops = _ops_from_doc(doc["operators"], named=True)
    events = [_convert(ev, ops.__getitem__, _reg_from) for ev in doc["events"]]
    return _state_from_doc(doc["initial_state"]), events


def oracle_step(state, event):
    """The reference interpreter's step, renormalized after a measurement as replay does."""
    state, prob = oracles.apply_event(state, event)
    return state if prob is None else state.normalized()


class TestRowInterpreter:
    @pytest.mark.parametrize("name", TRACED)
    def test_one_row_is_the_state_interpreter(self, name):
        state, events = traced_events(TRACED[name]())
        for event in events:
            want, want_p = oracles.apply_event(state, event)
            got, got_p = one_row(state, event)
            assert got.registers == want.registers
            assert np.array_equal(got.amplitudes, want.amplitudes)
            assert got_p == want_p
            state = oracle_step(state, event)

    @pytest.mark.parametrize("name", TRACED)
    def test_rows_are_row_by_row_calls(self, name):
        # the traced row and three random ones: once with the event as
        # recorded, once with per-row outcomes or per-row maps
        rng = np.random.default_rng(3)
        state, events = traced_events(TRACED[name]())
        for event in events:
            rows = [state.amplitudes] + [random_state(state.registers, rng).amplitudes for _ in range(3)]
            own = [dict(event) for _ in rows]
            if event["type"] == "measurement":
                for ev in own[1:]:
                    ev["outcome"] = int(rng.integers(event["basis"].shape[1]))
                stacked = dict(event, outcome=np.array([ev["outcome"] for ev in own]))
            elif "matrix" in event:
                shape = event["matrix"].shape
                for ev in own[1:]:
                    ev["matrix"] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                stacked = dict(event, matrix=np.stack([ev["matrix"] for ev in own]))
            else:
                stacked = event
            for batched, per_row in ((event, [event] * len(rows)), (stacked, own)):
                amps, regs, probs = apply_event(np.stack(rows), state.registers, batched)
                for b, (row, ev) in enumerate(zip(rows, per_row)):
                    want, want_p = oracles.apply_event(PureState(state.registers, row), ev)
                    assert regs == want.registers
                    assert np.array_equal(amps[b], want.amplitudes)
                    assert (None if probs is None else probs[b]) == want_p
            state = oracle_step(state, event)


# -- the stacked tight build -------------------------------------------------------


def skewed_junk_state(weight):
    """Junk √w|00⟩ + √(1 − w)|11⟩ on (jA, jB) beside star_phi2: w = 0.5 is uniform junk."""
    amps = np.zeros(4, dtype=complex)
    amps[0], amps[3] = math.sqrt(weight), math.sqrt(1 - weight)
    return tensor_product(PureState(regs(("jA", 2, "v2"), ("jB", 2, "v1")), amps), star_phi2())


def recorded_tight_rows(monkeypatch, run) -> list:
    """Every row the stages of ``run()`` hand to the stacked tight build."""
    from treecast import protocols

    rows, real = [], protocols._tight_rows

    def recording(batch, **kwargs):
        rows.extend(batch)
        return real(batch, **kwargs)

    monkeypatch.setattr(protocols, "_tight_rows", recording)
    run()
    monkeypatch.undo()
    return rows


class TestStackedTightBuild:
    def test_mixed_stack_matches_one_row_builds(self, monkeypatch):
        # five_qubit stage rows ((1,1)+(1,1) and (2,1) blocks, K = 1),
        # star4 rows (one (1,2) block, K = 2), uniform junk (K = 1), junk that
        # needs synthesis and junk whose synthesis fails, in one stack with
        # rows of other roles and registers between them
        rows = recorded_tight_rows(monkeypatch, lambda: run_concentrating(five_qubit_code(), line_tree(5)))
        rows += recorded_tight_rows(monkeypatch, lambda: run_concentrating(star4_code(), star_tree(4)))
        roles = {"R": ["R"], "A": ["jA", "v2"], "B": ["jB", "v1"]}
        ids = {"a0_id": "merge:A0", "b0_id": "merge:B0", "receiver": "v1", "b0_owner": None}
        extra = [(skewed_junk_state(w), roles, ids) for w in (0.5, 0.8, 0.7)]
        rows[3:3] = [(psi.amplitudes, psi.registers, roles, ids) for psi, roles, ids in extra]
        failing = extra[2][0]
        (marked,), _ = merge_split._merge_tensor(failing.normalized().amplitudes[None], failing.registers,
                                                 ("R",), ("jA", "v2"), ("jB", "v1"))
        real = merge_split._synthesize_measurement

        def synthesize(big, g_mat, *args):
            if np.array_equal(g_mat, marked.reshape(len(g_mat), -1)):
                raise SynthesisFailed("stub: no measurement for the marked row")
            return real(big, g_mat, *args)

        monkeypatch.setattr(merge_split, "_synthesize_measurement", synthesize)
        stacked = merge_split._tight_rows(rows)
        assert isinstance(stacked[5], SynthesisFailed)
        kinds = {(p.strategy, p.k) for p in stacked if not isinstance(p, Exception)}
        assert kinds == {("scalar-fourier", 1), ("single-block", 1), ("single-block", 2),
                         ("uniform-junk", 1), ("synthesized", 2)}
        for (amps, registers, roles, ids), got in zip(rows, stacked):
            psi = PureState(registers, amps)
            try:
                want = build_merge_protocol(psi, roles, **ids)
            except SynthesisFailed as exc:
                assert str(got) == str(exc)
                continue
            for field in dataclasses.fields(want):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(b, np.ndarray):
                    assert a.shape == b.shape, field.name
                    assert a.tobytes() == b.tobytes() or np.abs(a - b).max() <= 1e-12, field.name
                else:
                    assert a == b, field.name
            assert verify_merge(got, psi).passed

    def test_a_failed_row_falls_back_alone(self, monkeypatch):
        from treecast import protocols

        def no_synthesis(*args):
            raise SynthesisFailed("stub: synthesis off")

        monkeypatch.setattr(merge_split, "_synthesize_measurement", no_synthesis)
        roles = {"R": ["R"], "A": ["jA", "v2"], "B": ["jB", "v1"]}
        ids = {"a0_id": "merge:A0", "b0_id": "merge:B0", "receiver": "v1", "b0_owner": None}
        states = [skewed_junk_state(w) for w in (0.5, 0.7, 0.5)]
        rows = [(psi.amplitudes, psi.registers, roles, ids) for psi in states]
        protos = protocols._tight_merges(rows, k=None, rank_rtol=1e-8)
        assert [p.strategy for p in protos] == ["uniform-junk", "fallback-teleport", "uniform-junk"]
        want = build_merge_protocol(states[1], roles, mode="fallback", **ids)
        assert protos[1].frame.tobytes() == want.frame.tobytes()
        assert (protos[1].k, protos[1].probs) == (want.k, want.probs)
        assert all(verify_merge(p, psi).passed for p, psi in zip(protos, states))
