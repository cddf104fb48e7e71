"""Tree-level driver tests: spreading and concentrating end to end."""

import dataclasses
import math
import weakref

import numpy as np
import oracles
import pytest
from oracles import (
    _sampled,
    acceptance_corpus,
    dense_fallback_corrections,
    expanded_branches,
    fallback_closed_form,
    fallback_merge_reference,
    fidelity_to_reference,
    measured_post_rows,
    replay_root_corrections,
    run_spreading_per_outcome,
    same_bytes,
)

from treecast.codes import (
    IsometryCode,
    encoded_pair,
    five_qubit_code,
    ghz_code,
    identity_code,
    product_code,
    random_code,
    star4_code,
)
from treecast import merge_split, protocols
from treecast.config import PROB_TOL, RANK_RTOL
from treecast.errors import (
    InputError,
    InsufficientResource,
    NotAscending,
    NumericalDegeneracy,
    SynthesisFailed,
    TooLarge,
    UnknownEdge,
    VerificationFailed,
    ZeroProbabilityBranch,
)
from treecast.merge_split import (
    MergeProtocol,
    apply_merge_correction,
    build_merge_protocol,
    build_split_protocol,
    correction_matrices,
    execute_split,
    measurement_matrix,
    merge_post_state,
    merge_post_states,
    verify_merge,
)
from treecast.network import RootedTree, line_tree, parse_tree, star_tree
from treecast.protocols import (
    compare_costs,
    concentrating_cost,
    optimize_labeling,
    run_concentrating,
    run_spreading,
    spreading_cost,
)
from treecast.tensors import PureState, Register, apply_event, overlap, permute_registers
from test_koashi_imoto import haar_unitary
from test_merge_split import exact_merge_cases

EXACT = 1.0 - 1e-9

S2 = 1 / np.sqrt(2.0)


def state_on(names, table):
    """State on (R, qubits *names) with amplitudes {bitstring: coeff}.

    The first bit indexes R, the rest the named registers in order; each
    named register is owned by the party of the same name.
    """
    regs = (Register("R", 2, "reference"),) + tuple(
        Register(n, 2, n) for n in names
    )
    amps = np.zeros(2 ** len(regs), dtype=complex)
    for bits, coeff in table.items():
        amps[int(bits, 2)] = coeff
    return PureState(regs, amps)


# The intermediate states of the five-qubit all-|0> concentrating branch.
PHI4 = state_on(
    ("v1", "v2", "v3", "v4"),
    {
        "00000": 0.25, "01100": 0.25, "00110": 0.25, "00011": 0.25,
        "01010": -0.25, "00101": -0.25, "01001": -0.25, "01111": -0.25,
        "11110": 0.25, "10111": 0.25,
        "11101": -0.25, "11011": -0.25, "11000": -0.25, "10100": -0.25,
        "10010": -0.25, "10001": -0.25,
    },
)
PHI3 = state_on(
    ("v1", "v2", "v3"),
    {
        "0000": 0.5 * S2, "0110": 0.5 * S2, "0011": 0.5 * S2, "0101": -0.5 * S2,
        "1111": 0.5 * S2, "1100": -0.5 * S2, "1010": -0.5 * S2, "1001": -0.5 * S2,
    },
)
PHI2 = state_on(
    ("v1", "v2"),
    {"000": 0.5, "011": 0.5, "101": -0.5, "110": -0.5},
)
PHI1 = state_on(("v1",), {"00": S2, "11": -S2})


def matches(state, expected):
    """|<expected|state>| for normalized states: 1 iff equal up to phase."""
    return abs(overlap(state.normalized(), expected.normalized()))


def all_zero_chain(result, code):
    """(stage, outcome probability, post state) along the all-|0> branch."""
    state = encoded_pair(code).normalized()
    n = len(result.labeling)
    chain = []
    for k in range(n, 1, -1):
        rec = result.steps[k][(0,) * (n - k)]
        p, post = merge_post_state(rec.protocol, state, 0)
        state = post.normalized()
        chain.append((k, p, state))
    return chain


@pytest.fixture(scope="module")
def five_line():
    return five_qubit_code(), line_tree(5)


@pytest.fixture(scope="module")
def five_spread(five_line):
    return run_spreading(*five_line)


@pytest.fixture(scope="module")
def five_concentrate(five_line):
    return run_concentrating(*five_line)


class TestSpreading:
    def test_five_qubit_line_costs(self, five_spread):
        assert five_spread.cost_report.by_child() == {"v2": 4, "v3": 8, "v4": 4, "v5": 2}
        assert five_spread.cost_report.total_log2 == 8.0
        assert [e.log2 for e in five_spread.cost_report.edges] == [2.0, 3.0, 2.0, 1.0]
        assert five_spread.fidelity >= EXACT
        assert five_spread.branch_deviation <= 1e-9
        assert five_spread.passed

    def test_cost_report_matches_rank_scan(self, five_line, five_spread):
        assert spreading_cost(*five_line).by_child() == five_spread.cost_report.by_child()

    def test_star4_costs_any_labeling(self):
        code, tree = star4_code(), star_tree(4)
        for labeling in [None, ("v1", "v3", "v2", "v4"), ("v1", "v4", "v3", "v2")]:
            res = run_spreading(code, tree, labeling)
            assert res.cost_report.by_child() == {"v2": 2, "v3": 2, "v4": 2}
            assert res.fidelity >= EXACT

    def test_product_code_spreads_free(self):
        res = run_spreading(product_code((2, 2, 2)), line_tree(3))
        assert res.cost_report.by_child() == {"v2": 1, "v3": 1}
        assert res.cost_report.total_log2 == 0.0
        assert res.fidelity >= EXACT

    def test_ghz_line(self):
        res = run_spreading(ghz_code(3), line_tree(3))
        assert res.cost_report.by_child() == {"v2": 2, "v3": 2}
        assert res.fidelity >= EXACT

    def test_override_below_rank_raises(self, five_line):
        with pytest.raises(InsufficientResource):
            run_spreading(*five_line, k_overrides={"v5": 1})

    def test_override_above_rank_works(self, five_line):
        res = run_spreading(*five_line, k_overrides={"v5": 3})
        assert res.cost_report.cost_of("v5") == 3
        assert res.fidelity >= EXACT

    def test_tightness_report(self, five_line):
        # each edge's split consumes exactly the cut rank, and rank − 1 is refused
        code, tree = five_line
        psi = encoded_pair(code)
        ranks = {}
        for _, child in tree.edges():
            block = list(tree.subtree(child))
            proto = build_split_protocol(psi, block, receiver=child)
            assert proto.k == proto.rank
            ranks[child] = proto.rank
            with pytest.raises(InsufficientResource):
                build_split_protocol(psi, block, proto.rank - 1, receiver=child)
        assert ranks == {"v2": 4, "v3": 8, "v4": 4, "v5": 2}

    @pytest.mark.parametrize("first_row", [True, False])
    def test_swapped_correction_fails_the_outcome_check(self, five_line, monkeypatch, first_row):
        # v3's split has K = 8: swap two shifts in the first or the last Pauli row
        def swapped(*args, **kwargs):
            proto = build(*args, **kwargs)
            if proto.receiver != "v3":
                return proto
            i = 1 if first_row else proto.k**2 - 1
            fixes = proto.corrections.copy()
            fixes[[i, i - 1]] = fixes[[i - 1, i]]
            return dataclasses.replace(proto, corrections=fixes)

        build = protocols.build_split_protocol
        monkeypatch.setattr(protocols, "build_split_protocol", swapped)
        with pytest.raises(VerificationFailed, match=r"\(v2, v3\)"):
            run_spreading(*five_line)

    def test_party_mismatch(self):
        with pytest.raises(UnknownEdge):
            run_spreading(five_qubit_code(), line_tree(4))

    def test_bad_labeling(self, five_line):
        code, tree = five_line
        with pytest.raises(NotAscending):
            run_spreading(code, tree, ("v2", "v1", "v3", "v4", "v5"))


class TestConcentratingFiveQubit:
    def test_costs(self, five_concentrate):
        res = five_concentrate
        assert res.cost_report.by_child() == {"v2": 1, "v3": 1, "v4": 1, "v5": 1}
        assert res.cost_report.total_log2 == 0.0
        assert res.cost_report.direction == "concentrate"

    def test_branches_exhaustive_and_exact(self, five_concentrate):
        res = five_concentrate
        assert len(res.branches) == 16
        assert res.explored_all
        assert abs(res.coverage - 1.0) <= 1e-9
        assert res.min_fidelity >= EXACT
        assert res.passed
        assert res.fallback_edges == ()
        for br in res.branches:
            assert abs(br.probability - 1 / 16) <= 1e-9

    def test_all_zero_branch_reproduces_displayed_states(
        self, five_line, five_concentrate
    ):
        code, _ = five_line
        chain = all_zero_chain(five_concentrate, code)
        expected = {5: PHI4, 4: PHI3, 3: PHI2, 2: PHI1}
        for stage, prob, state in chain:
            assert abs(prob - 0.5) <= 1e-9
            assert matches(state, expected[stage]) >= EXACT

    def test_each_step_measures_a_single_qubit_basis(self, five_concentrate):
        for records in five_concentrate.steps.values():
            for rec in records.values():
                proto = rec.protocol
                assert proto.k == 1
                assert proto.kmin == 1
                assert proto.measurement.shape == (2, 2)
                assert np.allclose(np.abs(proto.measurement), np.eye(2), atol=1e-9)


class TestConcentratingStar4:
    def test_default_labeling(self):
        res = run_concentrating(star4_code(), star_tree(4))
        assert res.cost_report.by_child() == {"v2": 2, "v3": 1, "v4": 1}
        assert [e.log2 for e in res.cost_report.edges] == [1.0, 0.0, 0.0]
        assert res.min_fidelity >= EXACT
        assert res.explored_all and abs(res.coverage - 1.0) <= 1e-9

    def test_swapped_labeling_moves_the_cost(self):
        res = run_concentrating(star4_code(), star_tree(4), ("v1", "v3", "v2", "v4"))
        assert res.cost_report.by_child() == {"v2": 1, "v3": 2, "v4": 1}
        assert [e.log2 for e in res.cost_report.edges] == [0.0, 1.0, 0.0]
        assert res.min_fidelity >= EXACT


class TestConcentratingMore:
    def test_ghz_concentrates_free(self):
        res = run_concentrating(ghz_code(3), line_tree(3))
        assert res.cost_report.by_child() == {"v2": 1, "v3": 1}
        assert res.min_fidelity >= EXACT
        assert res.explored_all

    def test_product_code_free(self):
        res = run_concentrating(product_code((2, 2)), line_tree(2))
        assert res.cost_report.by_child() == {"v2": 1}
        assert res.min_fidelity >= EXACT

    def test_branch_budget_sampling(self, five_line):
        res = run_concentrating(*five_line, branch_budget=5, seed=3)
        assert not res.explored_all
        assert len(res.branches) == 5
        assert any(br.outcomes == (0, 0, 0, 0) for br in res.branches)
        assert res.coverage < 1.0
        assert res.min_fidelity >= EXACT
        assert res.cost_report.by_child() == {"v2": 1, "v3": 1, "v4": 1, "v5": 1}

    def test_fallback_mode_costs_match_spreading(self, five_line, five_spread):
        res = run_concentrating(*five_line, mode="fallback", branch_budget=3, seed=1)
        assert res.cost_report.by_child() == five_spread.cost_report.by_child()
        assert res.fallback_edges == ("v2", "v3", "v4", "v5")
        assert res.min_fidelity >= EXACT
        assert res.mode == "fallback"

    def test_cost_only_entry_point(self, five_line, five_concentrate):
        report = concentrating_cost(*five_line)
        assert report.by_child() == five_concentrate.cost_report.by_child()
        assert report.direction == "concentrate"

    @pytest.mark.parametrize(
        "code, tree",
        [(five_qubit_code(), line_tree(5)), (star4_code(), star_tree(4))],
        ids=["five_qubit-line5", "star4-star4"],
    )
    def test_protocols_do_not_depend_on_the_seed(self, code, tree):
        # the seed drives sampling and channel inputs only: an exhaustive run
        # builds the same protocols, bit for bit, under any seed
        a, b = (run_concentrating(code, tree, seed=s) for s in (0, 12345))
        assert {j: list(recs) for j, recs in a.steps.items()} == {
            j: list(recs) for j, recs in b.steps.items()
        }
        for j, recs in a.steps.items():
            for prefix, rec in recs.items():
                other = b.steps[j][prefix].protocol
                for field in ("measurement", "corrections"):
                    x, y = getattr(rec.protocol, field), getattr(other, field)
                    assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes())

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_codes_are_exact(self, seed):
        rng = np.random.default_rng(seed)
        for tree in (line_tree(3), star_tree(3)):
            code = random_code(rng, 2, (2, 2, 2))
            res = run_concentrating(code, tree)
            assert res.min_fidelity >= EXACT
            assert abs(res.coverage - 1.0) <= 1e-9
            spread = spreading_cost(code, tree).by_child()
            for edge in res.cost_report.edges:
                assert edge.k <= spread[edge.child]

    def test_sibling_needing_more_k_fails_the_edge(self, five_line, monkeypatch):
        # The edge's K is the first branch's.  Here the sibling branch at v4
        # needs more than that K: the stage fails loudly, naming the edge,
        # after one build per branch and no retry at a raised K.
        real = protocols._tight_rows
        calls = []

        def stub(rows, *, k=None, **kwargs):
            protos = real(rows, k=k, **kwargs)
            for b, (*_, ids) in enumerate(rows):
                if ids["a0_id"] == "ent:v4:A0":
                    calls.append(k)
                    if k is not None:
                        protos[b] = InsufficientResource("stub: the sibling needs K + 1")
            return protos

        monkeypatch.setattr(protocols, "_tight_rows", stub)
        with pytest.raises(SynthesisFailed, match=r"edge \(v3, v4\).* K=1"):
            run_concentrating(*five_line)
        assert calls == [None, 1]

    def test_single_vertex_tree(self):
        code, tree = identity_code(2, 1), line_tree(1)
        sp = run_spreading(code, tree)
        assert sp.cost_report.edges == ()
        assert sp.fidelity >= EXACT
        con = run_concentrating(code, tree)
        assert con.cost_report.edges == ()
        assert len(con.branches) == 1
        assert con.branches[0].outcomes == ()
        assert con.min_fidelity >= EXACT


class TestComparisonsAndSearch:
    def test_compare_costs_random(self):
        rng = np.random.default_rng(11)
        for tree in (line_tree(3), line_tree(4)):
            code = random_code(rng, 2, (2,) * tree.size)
            cmp = compare_costs(code, tree)
            assert cmp.concentrate_never_exceeds
            assert cmp.spread.direction == "spread"
            assert cmp.concentrate.direction == "concentrate"

    def test_compare_costs_five_qubit(self, five_line):
        cmp = compare_costs(*five_line)
        assert cmp.spread.total_log2 == 8.0
        assert cmp.concentrate.total_log2 == 0.0
        assert cmp.concentrate_never_exceeds

    def test_optimize_labeling_star4(self):
        code, tree = star4_code(), star_tree(4)
        best, report = optimize_labeling(code, tree)
        assert best == ("v1", "v2", "v3", "v4")
        assert report.total_log2 == 1.0
        # every one of the 6 candidates costs one ebit: the first wins the tie
        for cand in oracles.ascending_labelings(tree):
            assert concentrating_cost(code, tree, cand).total_log2 == 1.0

    def test_optimize_labeling_line_is_unique(self):
        best, report = optimize_labeling(ghz_code(3), line_tree(3))
        assert oracles.ascending_labelings(line_tree(3)) == [best] == [("v1", "v2", "v3")]
        assert report.total_log2 == 0.0

    def test_rank_tolerance_reaches_compare_and_search(self):
        # v2 holds a 5e-11-weight sliver of the logical qubit: at the default
        # rank tolerance the block analysis rejects the state, at 1e-14 the
        # sliver counts and both edges' costs follow
        eps = 5e-11
        mat = np.zeros((4, 2), dtype=complex)
        mat[0, 0] = mat[2, 1] = np.sqrt(1 - eps)
        mat[3, 0] = mat[1, 1] = np.sqrt(eps)
        code = IsometryCode(2, ("v1", "v2"), (2, 2), mat)
        tree = line_tree(2)
        cmp = compare_costs(code, tree, rank_rtol=1e-14)
        assert cmp.spread.by_child() == {"v2": 2}
        assert cmp.concentrate.by_child() == {"v2": 2}
        _, report = optimize_labeling(code, tree, rank_rtol=1e-14)
        assert report.by_child() == {"v2": 2}
        with pytest.raises(NumericalDegeneracy):
            optimize_labeling(code, tree)

    def test_optimize_labeling_too_large(self, monkeypatch):
        # star:12 has 2^11 = 2,048 merged sets, past the bound of 1,024
        builds = counted_builds(monkeypatch)
        with pytest.raises(TooLarge, match="2048 merged sets"):
            optimize_labeling(ghz_code(12), star_tree(12))
        assert builds == []

    def test_ties_break_on_exact_products(self, monkeypatch):
        # both labelings of star:3 cost K products of 15: (v1, v2, v3) pays
        # K(∅, v3) = 1 and K({v3}, v2) = 15, (v1, v3, v2) pays K(∅, v2) = 3
        # and K({v2}, v3) = 5.  Summed as floats, the second total is one ulp
        # below the first; on the exact products the first labeling wins
        real = protocols._level_stages
        ks = {(0, "v3"): 1, (1, "v2"): 15, (0, "v2"): 3, (1, "v3"): 5}

        def rewritten(*args, **kwargs):
            edges = real(*args, **kwargs)
            return {merged: [dataclasses.replace(edge, k=ks[len(merged), edge.child]) for edge in stage_edges]
                    for merged, stage_edges in edges.items()}

        assert math.log2(15) > math.log2(3) + math.log2(5)
        monkeypatch.setattr(protocols, "_level_stages", rewritten)
        best, report = optimize_labeling(ghz_code(3), star_tree(3))
        assert best == ("v1", "v2", "v3")
        assert report.by_child() == {"v2": 15, "v3": 1}
        assert report.total_log2 == math.log2(15)


# -- the labeling search over merged sets ---------------------------------------------


def reference_search(code, tree, **kwargs):
    """The cheapest labeling by enumeration: one run per candidate.

    Ties go to the lexicographically first labeling on the exact product
    of K.  Returns (winner, its cost report, the number of candidates).
    """
    best, candidates = None, oracles.ascending_labelings(tree)
    for cand in candidates:
        report = run_concentrating(code, tree, cand, **kwargs).cost_report
        key = (math.prod(e.k for e in report.edges), cand)
        if best is None or key < best[0]:
            best = (key, cand, report)
    return best[1], best[2], len(candidates)


def random_star4():
    return random_code(np.random.default_rng(77), 2, (2, 2, 2, 2)), star_tree(4)


SEARCH_INPUTS = {
    "star4": lambda: (star4_code(), star_tree(4)),
    "five_qubit": lambda: (five_qubit_code(), star_tree(5)),
    "random": random_star4,
    # v3 merges with the halves v4 and v5 parked on it, below the root
    "five_qubit-branched": lambda: (
        five_qubit_code(),
        parse_tree("v1-v2,v1-v3,v3-v4,v3-v5"),
    ),
    "random-line": lambda: (
        random_code(np.random.default_rng(78), 2, (2, 2, 2, 2)),
        line_tree(4),
    ),
}
SEARCH_MODES = {
    "tight": {},
    "fallback": {"mode": "fallback"},
    "fallback-sampled": {"mode": "fallback", "branch_budget": 6, "seed": 4},
    "sampled": {"branch_budget": 2, "seed": 9},
}


def random_tree(rng, n):
    """A tree on v1..vn rooted at v1, each later vertex under an earlier one."""
    return RootedTree.from_edges("v1", [(f"v{rng.integers(1, k)}", f"v{k}") for k in range(2, n + 1)])


def random_tree_input(seed):
    """A random qubit code on a seeded random tree of 3 to 7 vertices."""
    rng = np.random.default_rng([2002, seed])
    tree = random_tree(rng, 3 + seed % 5)
    return random_code(rng, 2, (2,) * tree.size), tree


MORE_SEARCH_INPUTS = {
    # qubit and qutrit parties, so K is not always a power of 2
    "mixed-star4": lambda: (random_code(np.random.default_rng(2000), 2, (2, 3, 2, 3)), star_tree(4)),
    "qutrit-branched": lambda: (
        random_code(np.random.default_rng(2001), 2, (2, 2, 3, 2, 2)),
        parse_tree("v1-v2,v1-v3,v3-v4,v3-v5"),
    ),
    **{f"random-tree{seed}": lambda seed=seed: random_tree_input(seed) for seed in range(6)},
}


class TestSharedSuffixSearch:
    @pytest.mark.parametrize("mode", SEARCH_MODES)
    @pytest.mark.parametrize("name", SEARCH_INPUTS)
    def test_matches_one_run_per_candidate(self, name, mode):
        code, tree = SEARCH_INPUTS[name]()
        kwargs = SEARCH_MODES[mode]
        # the search takes the mode only; the reference runs keep the budget
        best, report = optimize_labeling(code, tree, mode=kwargs.get("mode", "tight"))
        ref_best, ref_report, candidates = reference_search(code, tree, **kwargs)
        assert (best, report) == (ref_best, ref_report)
        assert candidates == tree.count_ascending_labelings()
        full = run_concentrating(code, tree, best, **kwargs)
        assert report == full.cost_report
        assert report == concentrating_cost(code, tree, best, mode=kwargs.get("mode", "tight"))
        if "branch_budget" in kwargs:  # the budget cut branches, so the sampler ran
            assert not full.explored_all

    @pytest.mark.parametrize("mode", ["tight", "fallback"])
    @pytest.mark.parametrize("name", MORE_SEARCH_INPUTS)
    def test_matches_the_enumeration_on_more_trees(self, name, mode):
        # one branch per stage in the reference runs too (a budget of 1):
        # the exhaustive runs of random 7-party codes have too many branches
        code, tree = MORE_SEARCH_INPUTS[name]()
        best, report = optimize_labeling(code, tree, mode=mode)
        ref_best, ref_report, candidates = reference_search(code, tree, mode=mode, branch_budget=1)
        assert (best, report) == (ref_best, ref_report)
        assert candidates == tree.count_ascending_labelings()

    @pytest.mark.parametrize("mode", SEARCH_MODES)
    @pytest.mark.parametrize("name", SEARCH_INPUTS)
    def test_set_stage_costs_match_fresh_runs(self, name, mode, monkeypatch):
        # every fresh run that merges vertex after set pays the K the
        # search built for (set, vertex), whatever order set merged in
        code, tree = SEARCH_INPUTS[name]()
        kwargs = SEARCH_MODES[mode]
        fresh = {}
        for cand in oracles.ascending_labelings(tree):
            report = run_concentrating(code, tree, cand, **kwargs).cost_report
            for i in range(1, len(cand)):
                key = (frozenset(cand[i + 1 :]), cand[i])
                fresh.setdefault(key, set()).add(report.cost_of(cand[i]))
        real, built = protocols._level_stages, {}

        def recorded(*args, **kwargs):
            edges = real(*args, **kwargs)
            for merged, stage_edges in edges.items():
                for edge in stage_edges:
                    built.setdefault((merged, edge.child), set()).add(edge.k)
            return edges

        monkeypatch.setattr(protocols, "_level_stages", recorded)
        optimize_labeling(code, tree, mode=kwargs.get("mode", "tight"))
        assert built == fresh

    def test_each_set_stage_is_built_once(self, monkeypatch):
        # one merge protocol per (set, vertex) key: a star with n − 1 leaves
        # has (n − 1)·2^(n − 2) of them, and a level's are built in one call;
        # no stage runs, and post rows are expanded once per merged set
        # reached, for the 2^(n − 1) − 1 sets but ∅
        stages, expansions = counted(monkeypatch, "_concentrate_stage"), counted(monkeypatch, "_merged_rows")
        builds = counted_builds(monkeypatch)
        calls, real_tight = [], protocols._tight_rows

        def calling(rows, **kwargs):
            calls.append(len(rows))
            return real_tight(rows, **kwargs)

        monkeypatch.setattr(protocols, "_tight_rows", calling)
        optimize_labeling(five_qubit_code(), star_tree(5))
        assert (len(stages), len(expansions), len(builds), calls) == (0, 15, 32, [4, 12, 12, 4])
        expansions.clear()
        builds.clear()
        optimize_labeling(ghz_code(6), star_tree(6))
        assert (len(stages), len(expansions), len(builds)) == (0, 31, 80)
        builds.clear()
        reference_search(five_qubit_code(), star_tree(5))
        assert len(builds) == 360

    @pytest.mark.parametrize("mode", ["tight", "fallback"])
    def test_each_reached_set_carries_one_normalized_row(self, mode, monkeypatch):
        # five_qubit on star:5 builds 32 protocols and carries 15 branches,
        # one per merged set but ∅, each one row of norm 1 on its first
        # kept outcome
        builds = counted_builds(monkeypatch)
        real, carried = protocols._carried, []

        def carrying(proto, posts, branch):
            row = real(proto, posts, branch)
            carried.append((proto, branch, row))
            return row

        monkeypatch.setattr(protocols, "_carried", carrying)
        code, tree = five_qubit_code(), star_tree(5)
        optimize_labeling(code, tree, mode=mode)
        assert len(builds) == 32
        assert len(carried) == 15 == tree.count_merged_sets() - 1
        assert len({frozenset(r.owner for r in row.regs) for *_, row in carried}) == 15
        for proto, branch, row in carried:
            assert (len(row.paths), row.probs.shape, row.amps.shape[0]) == (1, (1,), 1)
            assert abs(np.linalg.norm(row.amps[0]) - 1.0) <= 1e-12
            first = next(m for m, p in enumerate(proto.probs) if p >= PROB_TOL)
            assert row.paths == [branch.paths[0] + (first,)]
            assert row.probs[0] == pytest.approx(branch.probs[0] * proto.probs[first], rel=1e-12)

    def test_memory_is_bounded_by_two_adjacent_levels(self, monkeypatch):
        # the walk keeps one branch per merged set of the level it builds
        # and of the next, and one stacked call's protocols while they are
        # consumed, and nothing once it returns: star:5's levels hold 1, 4,
        # 6, 4 and 1 sets, and its largest levels build 12 protocols in one
        # call, built while the loop still holds the level before's last
        alive = {"protocols": 0, "branches": 0}
        peak = dict(alive)

        def release(kind):
            alive[kind] -= 1

        def track(kind, obj):
            alive[kind] += 1
            peak[kind] = max(peak[kind], alive[kind])
            weakref.finalize(obj, release, kind)

        def tracked(rows, **kwargs):
            protos = tight(rows, **kwargs)
            for proto in protos:
                track("protocols", proto)
            return protos

        def carried(*args):  # the branch a new set carries
            branch = carry(*args)
            track("branches", branch.amps)
            return branch

        tight, carry = protocols._tight_rows, protocols._carried
        monkeypatch.setattr(protocols, "_tight_rows", tracked)
        monkeypatch.setattr(protocols, "_carried", carried)
        optimize_labeling(five_qubit_code(), star_tree(5))
        assert peak == {"protocols": 12 + 1, "branches": 4 + 6}
        assert alive == {"protocols": 0, "branches": 0}


ALL_SEARCH_INPUTS = {**SEARCH_INPUTS, **MORE_SEARCH_INPUTS}


class TestLevelWalk:
    @pytest.mark.parametrize("mode", ["tight", "fallback"])
    @pytest.mark.parametrize("name", ALL_SEARCH_INPUTS)
    def test_matches_the_depth_first_walk(self, name, mode, monkeypatch):
        # the same labeling and report as the former depth-first walk, every
        # (set, vertex) protocol built on the same branch bytes, and every
        # merged set but ∅ carrying the same branch: registers, path,
        # probability and amplitude bytes
        code, tree = ALL_SEARCH_INPUTS[name]()
        builds, carried = [], []

        def merged_set(regs):
            held = {r.owner for r in regs}  # a vertex that has merged holds no register
            return frozenset(v for v in tree.vertices if v not in held)

        def build_input(regs, amps, ids):
            vertex = ids["a0_id"].split(":")[1]
            builds[-1].setdefault((merged_set(regs), vertex), []).append((regs, amps.tobytes()))

        def carry(branch):
            assert merged_set(branch.regs) not in carried[-1]
            carried[-1][merged_set(branch.regs)] = (branch.regs, branch.paths, branch.probs.tobytes(),
                                                    branch.amps.tobytes())
            return branch

        real_tight, real_fallback = protocols._tight_rows, protocols._fallback_rows
        real_carried, real_take = protocols._carried, protocols._Rows.take

        def tight(rows, **kwargs):
            for amps, regs, _, ids in rows:
                build_input(regs, amps, ids)
            return real_tight(rows, **kwargs)

        def fallback(amps, regs, roles, **kwargs):
            for row in amps:
                build_input(regs, row, kwargs)
            return real_fallback(amps, regs, roles, **kwargs)

        monkeypatch.setattr(protocols, "_tight_rows", tight)
        monkeypatch.setattr(protocols, "_fallback_rows", fallback)
        # the search carries a set's branch through _carried, the
        # depth-first walk through stage.live.take([0])
        monkeypatch.setattr(protocols, "_carried", lambda *args: carry(real_carried(*args)))
        monkeypatch.setattr(protocols._Rows, "take", lambda rows, picked: carry(real_take(rows, picked)))
        results = []
        for search in (optimize_labeling, oracles.depth_first_labeling):
            builds.append({})
            carried.append({})
            results.append(search(code, tree, mode=mode))
        assert results[0] == results[1]
        assert builds[0] == builds[1]
        assert carried[0] == carried[1]
        assert len(carried[0]) == tree.count_merged_sets() - 1  # every set but ∅

    def test_first_failure_of_the_depth_first_order_is_raised(self, monkeypatch):
        # star:4 stages fail at (∅, v4) and at ({v2}, v3): the depth-first
        # walk meets ({v2}, v3) first, so its error is raised, although the
        # level walk builds (∅, v4) a level earlier
        real = protocols._tight_rows
        failing = {("v2", "v3"): "second level", ("v4",): "first level"}

        def stub(rows, **kwargs):
            protos = real(rows, **kwargs)
            for b, (_, regs, roles, ids) in enumerate(rows):
                vertex = ids["a0_id"].split(":")[1]
                held = {r.owner for r in regs}
                merged = tuple(sorted(v for v in ("v2", "v3", "v4") if v not in held and v != vertex))
                if merged + (vertex,) in failing:
                    protos[b] = NumericalDegeneracy(failing[merged + (vertex,)])
            return protos

        monkeypatch.setattr(protocols, "_tight_rows", stub)
        for search in (optimize_labeling, oracles.depth_first_labeling):
            with pytest.raises(NumericalDegeneracy, match="second level"):
                search(star4_code(), star_tree(4))


# -- one branch per stage --------------------------------------------------------------


def random_inputs():
    """Seeded Haar-random qubit codes on 2–4-vertex lines and stars."""
    out = {}
    for n in (2, 3, 4):
        for star, (shape, make) in enumerate((("line", line_tree), ("star", star_tree))):
            out[f"random-{shape}{n}"] = lambda n=n, star=star, make=make: (
                random_code(np.random.default_rng([91, n, star]), 2, (2,) * n),
                make(n),
            )
    return out


# five_qubit on line:5 in fallback mode has 65,536 branches; it is checked
# under a branch budget only
BRANCH_INPUTS = {
    "five_qubit-line": lambda: (five_qubit_code(), line_tree(5)),
    "five_qubit-star": lambda: (five_qubit_code(), star_tree(5)),
    "five_qubit-branched": lambda: (five_qubit_code(), parse_tree("v1-v2,v1-v3,v3-v4,v3-v5")),
    "star4": lambda: (star4_code(), star_tree(4)),
    "ghz4-line": lambda: (ghz_code(4), line_tree(4)),
    "identity": lambda: (identity_code(2, 3), star_tree(3)),
    "product": lambda: (product_code((2, 2, 2)), line_tree(3)),
    **random_inputs(),
}
EXHAUSTIVE = [
    (name, mode)
    for name in BRANCH_INPUTS
    for mode in ("tight", "fallback")
    if (name, mode) != ("five_qubit-line", "fallback")
]


def counted(monkeypatch, name: str) -> list:
    """The arguments of every call of ``protocols.<name>``, which still runs."""
    real, calls = getattr(protocols, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(protocols, name, counting)
    return calls


def counted_builds(monkeypatch) -> list:
    """The ``k`` of every merge protocol the stages build, tight or fallback, in stacked rows."""
    real_tight, real_rows = protocols._tight_rows, protocols._fallback_rows
    builds = []

    def tight(rows, **kwargs):
        builds.extend([kwargs.get("k")] * len(rows))
        return real_tight(rows, **kwargs)

    def rows(amps, *args, **kwargs):
        builds.extend([kwargs.get("k")] * len(amps))
        return real_rows(amps, *args, **kwargs)

    monkeypatch.setattr(protocols, "_tight_rows", tight)
    monkeypatch.setattr(protocols, "_fallback_rows", rows)
    return builds


class TestOneBranchCosts:
    @pytest.mark.parametrize("name, mode", EXHAUSTIVE)
    def test_every_branch_of_a_stage_has_one_k(self, name, mode):
        # the invariance the cost walk rests on: each live branch of a stage,
        # built alone at its own K (its fallback, if any, included), needs
        # the K the exhaustive run charges the edge; the run's records share
        # one tight minimum; and the one-branch cost equals the run's report
        code, tree = BRANCH_INPUTS[name]()
        full = run_concentrating(code, tree, mode=mode)
        assert full.explored_all
        charged = full.cost_report.by_child()
        order = full.labeling
        live = [protocols._first_branch(code)]
        for level in range(len(order), 1, -1):
            vertex = order[level - 1]
            assert len({rec.protocol.kmin for rec in full.steps[level].values()}) == 1, level
            alone = [
                protocols._concentrate_stage(br, tree, vertex, mode=mode, rank_rtol=RANK_RTOL)
                for br in live
            ]
            assert {stage.edge.k for stage in alone} == {charged[vertex]}, level
            live = [st.live.take([row]) for st in alone for row in range(len(st.live.paths))]
        assert len(live) == len(full.branches)
        assert concentrating_cost(code, tree, mode=mode) == full.cost_report

    @pytest.mark.parametrize("mode", ["tight", "fallback"])
    @pytest.mark.parametrize("name", BRANCH_INPUTS)
    def test_cost_equals_budgeted_runs(self, name, mode):
        code, tree = BRANCH_INPUTS[name]()
        report = concentrating_cost(code, tree, mode=mode)
        for budget, seed in ((1, 0), (3, 5), (8, 13)):
            sampled = run_concentrating(code, tree, mode=mode, branch_budget=budget, seed=seed)
            assert report == sampled.cost_report, (budget, seed)
        assert compare_costs(code, tree, mode=mode).concentrate == report

    @pytest.mark.parametrize("mode", ["tight", "fallback"])
    def test_cost_builds_one_protocol_per_stage(self, monkeypatch, mode):
        builds = counted_builds(monkeypatch)
        report = concentrating_cost(five_qubit_code(), line_tree(5), mode=mode)
        assert len(builds) == 4
        expected = (1, 1, 1, 1) if mode == "tight" else (4, 8, 4, 2)
        assert tuple(report.by_child()[v] for v in ("v2", "v3", "v4", "v5")) == expected

    def test_ki_walks_only_the_prefix_stages(self, monkeypatch, capsys):
        from treecast import cli

        builds = counted_builds(monkeypatch)
        argv = ["ki", "--code", "five_qubit", "--tree", "line:5", "--mode", "fallback",
                "--prefix", "0,0", "--format", "structured"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        # stages 5 and 4 name the branch; stage 3 is decomposed, not built
        assert len(builds) == 2

    @pytest.mark.parametrize("mode", ["tight", "fallback"])
    @pytest.mark.parametrize("name", ["five_qubit-star", "star4", "random-line4"])
    def test_branch_walk_matches_the_full_run(self, name, mode):
        # the state ki decomposes: walking one branch reaches the state the
        # all-branch run's own records lead to on that branch (every prefix
        # of eight branches spread over the run)
        code, tree = BRANCH_INPUTS[name]()
        full = run_concentrating(code, tree, mode=mode)
        order, n = full.labeling, len(full.labeling)
        for br in full.branches[:: max(1, len(full.branches) // 8)]:
            state = encoded_pair(code).normalized()
            for j in range(n, 2, -1):
                prefix = br.outcomes[: n - j + 1]
                rec = full.steps[j][prefix[:-1]]
                state = merge_post_state(rec.protocol, state, prefix[-1])[1].normalized()
                _, branch = protocols._branch_walk(
                    code, tree, order, prefix, mode=mode, rank_rtol=RANK_RTOL
                )
                got = PureState(branch.regs, branch.amps[0])
                assert branch.paths == [prefix]
                assert got.ids == state.ids
                assert np.allclose(got.amplitudes, state.amplitudes, rtol=0, atol=1e-12)

    def test_branch_walk_refuses_bad_outcomes(self):
        # product:2,2,2 on line:3: v3 holds a fixed |0>, so outcome 1 of its
        # two-outcome merge has zero probability
        code, tree = product_code((2, 2, 2)), line_tree(3)
        order = tree.default_labeling()
        full = run_concentrating(code, tree)
        assert full.steps[3][()].protocol.zero_mask == (False, True)
        walk = dict(code=code, tree=tree, order=order, mode="tight", rank_rtol=RANK_RTOL)
        _, branch = protocols._branch_walk(outcomes=(0,), **walk)
        assert [r.id for r in branch.regs] == ["R", "v1", "v2"]
        with pytest.raises(InputError, match="stage 3 outcome 1 has zero probability"):
            protocols._branch_walk(outcomes=(1,), **walk)
        for bad in (2, -1):
            with pytest.raises(InputError, match=f"stage 3 has outcomes 0..1, not {bad}"):
                protocols._branch_walk(outcomes=(bad,), **walk)


# -- every leaf replayed as rows of one array ----------------------------------------


def walked_leaves(code, result):
    """(outcomes, leaf state) of every branch, walked down the run's records alone."""
    n = len(result.labeling)
    leaves = []
    for br in result.branches:
        state = encoded_pair(code).normalized()
        for j in range(n, 1, -1):
            rec = result.steps[j][br.outcomes[: n - j]]
            state = merge_post_state(rec.protocol, state, br.outcomes[n - j])[1].normalized()
        leaves.append((br.outcomes, state))
    return leaves


REPLAY_INPUTS = {
    "five_qubit-line-tight": (five_qubit_code, lambda: line_tree(5), {}),
    "star4": (star4_code, lambda: star_tree(4), {}),
    "ghz3-line-fallback": (lambda: ghz_code(3), lambda: line_tree(3), {"mode": "fallback"}),
    "random-star3-fallback": (
        lambda: random_code(np.random.default_rng(41), 2, (2, 2, 2)),
        lambda: star_tree(3),
        {"mode": "fallback"},
    ),
    # 12 leaves, replayed 5 rows at a time
    "five_qubit-line-sampled": (
        five_qubit_code,
        lambda: line_tree(5),
        {"mode": "fallback", "branch_budget": 12, "seed": 3},
    ),
}


# the fixed cases of acceptance criterion 9 that REPLAY_INPUTS lacks, in fallback mode
CRITERION_9_FALLBACK = {
    "five_qubit-line-fallback": (five_qubit_code, lambda: line_tree(5), {"mode": "fallback"}),
    "star4-fallback": (star4_code, lambda: star_tree(4), {"mode": "fallback"}),
}
EXPANSION_INPUTS = {**REPLAY_INPUTS, **CRITERION_9_FALLBACK}


# -- spreading checks each edge's outcomes as rows ---------------------------------


def assert_same_spread(got, want) -> None:
    """Every field the run reports, to the byte: deviation, final state, fidelity, costs."""
    assert type(got.branch_deviation) is type(want.branch_deviation) is float
    same_bytes(np.float64(got.branch_deviation), np.float64(want.branch_deviation))
    assert got.final_state.registers == want.final_state.registers
    same_bytes(got.final_state.amplitudes, want.final_state.amplitudes)
    same_bytes(np.float64(got.fidelity), np.float64(want.fidelity))
    assert got.cost_report == want.cost_report and got.labeling == want.labeling
    assert [(s.parent, s.child, s.moved_ids, s.protocol.k) for s in got.steps] == [
        (s.parent, s.child, s.moved_ids, s.protocol.k) for s in want.steps
    ]


def planted(monkeypatch, receiver, plant) -> list:
    """Make ``run_spreading`` and its per-outcome oracle build the split to ``receiver``
    as ``plant(protocol)``; the planted protocols land in the returned list."""
    build, made = protocols.build_split_protocol, []

    def patched(*args, **kwargs):
        proto = build(*args, **kwargs)
        if proto.receiver == receiver:
            proto = plant(proto)
            made.append(proto)
        return proto

    monkeypatch.setattr(protocols, "build_split_protocol", patched)
    monkeypatch.setattr(oracles, "build_split_protocol", patched)
    return made


def with_corrections(proto, change):
    fixes = proto.corrections.copy()
    change(fixes)
    return dataclasses.replace(proto, corrections=fixes)


class TestSpreadingRows:
    """``run_spreading`` compresses once per edge and checks outcomes on array rows,
    to the bits of one ``execute_split`` per Pauli row and an ``overlap`` per outcome."""

    @pytest.mark.parametrize("name", REPLAY_INPUTS)
    def test_replay_inputs(self, name):
        make_code, make_tree, _ = REPLAY_INPUTS[name]
        code, tree = make_code(), make_tree()
        assert_same_spread(run_spreading(code, tree), run_spreading_per_outcome(code, tree))

    def test_acceptance_corpus(self):
        for code, tree in acceptance_corpus():
            assert_same_spread(run_spreading(code, tree), run_spreading_per_outcome(code, tree))

    def test_split_cost_is_the_protocol_rank(self):
        # the frame-free rank of split_cost is the rank the split protocol
        # builds its frame at, on every edge of these inputs
        inputs = [(make_code(), make_tree()) for make_code, make_tree, _ in REPLAY_INPUTS.values()]
        edges = 0
        for code, tree in inputs + list(acceptance_corpus()):
            psi = encoded_pair(code)
            for _, child in tree.edges():
                block = list(tree.subtree(child))
                rank = build_split_protocol(psi, block, receiver=child, rank_rtol=RANK_RTOL).rank
                assert merge_split.split_cost(psi, block, RANK_RTOL) == rank
                edges += 1
        assert edges >= 20

    def test_padded_edge(self):
        # K = 3 above v5's rank 2: the compression has a zero row
        code, tree, overrides = five_qubit_code(), line_tree(5), {"v5": 3}
        got = run_spreading(code, tree, k_overrides=overrides)
        assert got.steps[-1].protocol.rank == 2 and got.cost_report.cost_of("v5") == 3
        assert_same_spread(got, run_spreading_per_outcome(code, tree, k_overrides=overrides))

    @pytest.mark.parametrize("overrides", [None, {"v2": 3}])
    def test_trivial_registers(self, overrides):
        # v2 holds one dimension-1 register: one branch, even at K = 3
        code, tree = product_code((2, 1, 2)), star_tree(3)
        got = run_spreading(code, tree, k_overrides=overrides)
        assert got.steps[0].child == "v2" and got.steps[0].protocol.moved_dims == (1,)
        assert_same_spread(got, run_spreading_per_outcome(code, tree, k_overrides=overrides))

    def test_one_compression_per_edge(self, monkeypatch):
        code, tree = five_qubit_code(), line_tree(5)
        calls = {"compress": 0, "fan_out": [], "states": 0}
        compress, fan_out = protocols._split_compress, protocols._split_fan_out

        def counted_compress(*args):
            calls["compress"] += 1
            return compress(*args)

        def counted_fan_out(proto, mat, outcomes):
            calls["fan_out"].append(outcomes.tolist())
            return fan_out(proto, mat, outcomes)

        def counted_state(*args):
            calls["states"] += 1
            return PureState(*args)

        monkeypatch.setattr(protocols, "_split_compress", counted_compress)
        monkeypatch.setattr(protocols, "_split_fan_out", counted_fan_out)
        monkeypatch.setattr(protocols, "PureState", counted_state)
        res = run_spreading(code, tree)
        ks = [step.protocol.k for step in res.steps]
        assert calls["compress"] == len(res.steps) == 4
        # K outcomes per call, Pauli row by Pauli row, so at most K branch states at once
        assert calls["fan_out"] == [[list(range(p * k, p * k + k))] for k in ks for p in range(k)]
        # the root-held state and one per edge: none per outcome
        assert calls["states"] == 1 + len(res.steps)

    def test_nan_deviation_fails(self, monkeypatch):
        # Python's max(0.0, nan) is 0.0, so the per-outcome loop let a NaN outcome pass
        def nan_outcome(proto):
            return with_corrections(proto, lambda fixes: fixes.__setitem__(5, np.nan))

        code, tree = five_qubit_code(), line_tree(5)
        planted(monkeypatch, "v3", nan_outcome)
        with np.errstate(invalid="ignore"):
            assert run_spreading_per_outcome(code, tree).branch_deviation <= 1e-9
            with pytest.raises(VerificationFailed, match=r"\(v2, v3\) disagree by nan"):
                run_spreading(code, tree)

    def test_another_outcomes_correction_fails(self, monkeypatch):
        # outcome 19 of v3's K = 8 (Pauli row 2) corrected by outcome 42's shift (row 5)
        def copied(proto):
            return with_corrections(proto, lambda fixes: fixes.__setitem__(19, fixes[42]))

        code, tree = five_qubit_code(), line_tree(5)
        planted(monkeypatch, "v3", copied)
        with pytest.raises(VerificationFailed, match=r"\(v2, v3\)"):
            run_spreading(code, tree)
        with pytest.raises(VerificationFailed, match=r"\(v2, v3\)"):
            run_spreading_per_outcome(code, tree)

    def test_zero_probability_outcome(self, monkeypatch):
        # v2's first split, with outcome 6's Bell column zeroed
        def dead_outcome(proto):
            bell = proto.bell.copy()
            bell[:, 6] = 0.0
            return dataclasses.replace(proto, bell=bell)

        code, tree = five_qubit_code(), line_tree(5)
        made = planted(monkeypatch, "v2", dead_outcome)
        with pytest.raises(ZeroProbabilityBranch) as got:
            run_spreading(code, tree)
        with pytest.raises(ZeroProbabilityBranch) as want:
            execute_split(made[0], protocols._root_held(code, tree)[0])
        assert str(got.value) == str(want.value) == "outcome 6 at 'v1' has zero probability"


def dense_record(proto):
    """A record's dense U_m stack: the oracle's expansion for a fallback, else as kept."""
    return dense_fallback_corrections(proto) if proto.strategy == "fallback-teleport" else proto.corrections


def lifted(w, db):
    """w_m ⊗ 1_B of each w_m in the stack ``w``: U_m[(x, y), (y′, t)] = δ_{yy′} w_m[x, t]."""
    rows, da, k = w.shape
    dense = np.zeros((rows, da, db, db, k), dtype=complex)
    dense[:, :, np.arange(db), np.arange(db)] = w[:, :, None]
    return dense.reshape(rows, da * db, db * k)


def check_row_replay(code, result, monkeypatch):
    """Replay every leaf of ``result`` as rows, against the per-leaf replay.

    A stage whose records all fell back is one event on B₀ alone, whose w_m,
    lifted to w_m ⊗ 1_B, is byte for byte each row's ``correction_matrices``;
    any other stage's event carries, byte for byte, the dense U_m of every
    row's record.  Either is one map when all rows walk the same one.
    """
    seen = []

    def spy(amps, regs, event):
        seen.append(event)
        return apply_event(amps, regs, event)

    monkeypatch.setattr(protocols, "apply_event", spy)
    leaves = walked_leaves(code, result)
    paths, n = [path for path, _ in leaves], len(result.labeling)
    amps = np.stack([state.amplitudes for _, state in leaves])
    final, regs = protocols._replay_root_corrections(
        code, result.labeling, result.steps, paths, amps, leaves[0][1].registers
    )
    for j, event in zip(range(2, n + 1), seen):
        protos, matrix = [result.steps[j][p[: n - j]].protocol for p in paths], event["matrix"]
        if all(proto.frame is not None for proto in protos):
            b0 = [protos[0].b0_id] if protos[0].k > 1 else []
            assert [r.id for r in event["in"]] == b0 and [r.id for r in event["out"]] == list(protos[0].a_ids), j
            lift = lifted(matrix.reshape(-1, *matrix.shape[-2:]), math.prod(protos[0].b_dims))
            matrix = lift if matrix.ndim == 3 else lift[0]
            want = np.concatenate([correction_matrices(proto, [p[n - j]]) for proto, p in zip(protos, paths)])
        else:
            want = np.stack([dense_record(proto)[p[n - j]] for proto, p in zip(protos, paths)])
        same_bytes(matrix, want if matrix.ndim == 3 else want[0])
        assert matrix.ndim == 3 or (want == want[0]).all(), j
    for (path, state), row in zip(leaves, final):
        ref = replay_root_corrections(code, result.labeling, result.steps, path, state)
        aligned = permute_registers(ref, [r.id for r in regs])
        assert np.abs(aligned.amplitudes - row).max() <= 1e-12, path
    assert protocols._fidelities(code, final, regs).min() >= EXACT


class TestRowReplay:
    @pytest.mark.parametrize("name", REPLAY_INPUTS)
    def test_rows_match_the_per_leaf_replay(self, name, monkeypatch):
        make_code, make_tree, kwargs = REPLAY_INPUTS[name]
        code, tree = make_code(), make_tree()
        sampled = "branch_budget" in kwargs
        if sampled:
            monkeypatch.setattr(protocols, "REPLAY_ROWS", 5)
        result = run_concentrating(code, tree, **kwargs)
        assert result.explored_all != sampled
        assert len(result.branches) > protocols.REPLAY_ROWS or not sampled
        leaves = walked_leaves(code, result)
        amps = np.stack([state.amplitudes for _, state in leaves])
        paths = [path for path, _ in leaves]
        final, regs = protocols._replay_root_corrections(
            code, result.labeling, result.steps, paths, amps, leaves[0][1].registers
        )
        fids = protocols._fidelities(code, final, regs)
        for (path, state), row, fid, br in zip(leaves, final, fids, result.branches):
            ref = replay_root_corrections(code, result.labeling, result.steps, path, state)
            aligned = permute_registers(ref, [r.id for r in regs])
            assert np.abs(aligned.amplitudes - row).max() <= 1e-12, path
            assert fid == fidelity_to_reference(code, ref), path
            assert abs(br.fidelity - fid) <= 1e-12, path
        assert result.min_fidelity >= EXACT

    @pytest.mark.parametrize("name", EXPANSION_INPUTS)
    def test_stage_rows_match_the_per_branch_expansion(self, name):
        # every stage's rows hold, bit for bit, the paths, probabilities and
        # normalized post-states of expanding each branch on its own
        make_code, make_tree, kwargs = EXPANSION_INPUTS[name]
        code, tree = make_code(), make_tree()
        order = tree.default_labeling()
        budget = kwargs.get("branch_budget")
        live = protocols._first_branch(code)
        for level in range(len(order), 1, -1):
            stage = protocols._concentrate_stage(
                live, tree, order[level - 1], mode=kwargs.get("mode", "tight"), rank_rtol=RANK_RTOL
            )
            states = [PureState(live.regs, row) for row in live.amps]
            triples = list(zip(live.paths, live.probs.tolist(), states))
            ref = expanded_branches(triples, stage.records)
            assert stage.live.paths == [path for path, _, _ in ref], level
            assert np.array_equal(stage.live.probs, [p for _, p, _ in ref]), level
            assert np.array_equal(stage.live.amps, [st.amplitudes for _, _, st in ref]), level
            assert {st.registers for _, _, st in ref} == {stage.live.regs}, level
            live = stage.live
            if budget is not None and len(live.paths) > budget:
                live = live.take(_sampled(live.paths, budget, kwargs["seed"], level))

    @pytest.mark.parametrize("name", REPLAY_INPUTS)
    def test_replayed_corrections_lift_to_the_records(self, name, monkeypatch):
        make_code, make_tree, kwargs = REPLAY_INPUTS[name]
        code = make_code()
        check_row_replay(code, run_concentrating(code, make_tree(), **kwargs), monkeypatch)

    @pytest.mark.parametrize("name", REPLAY_INPUTS)
    def test_rows_match_the_dense_replay(self, name):
        # the replay as it ran before fallback stages acted on B₀ alone:
        # every record's dense U_m, leaf by leaf
        make_code, make_tree, kwargs = REPLAY_INPUTS[name]
        code = make_code()
        result = run_concentrating(code, make_tree(), **kwargs)
        leaves = walked_leaves(code, result)
        paths, amps = [path for path, _ in leaves], np.stack([state.amplitudes for _, state in leaves])
        final, regs = protocols._replay_root_corrections(
            code, result.labeling, result.steps, paths, amps, leaves[0][1].registers
        )
        for (path, state), row in zip(leaves, final):
            ref = replay_root_corrections(code, result.labeling, result.steps, path, state, dense=True)
            aligned = permute_registers(ref, [r.id for r in regs])
            assert np.abs(aligned.amplitudes - row).max() <= 1e-12, path

    @pytest.mark.parametrize(
        "psi,roles,kwargs", [case for case in exact_merge_cases() if case[2].get("mode") == "fallback"]
    )
    def test_b0_step_matches_the_dense_correction(self, psi, roles, kwargs):
        # every live outcome's post row as one row, corrected by one event on
        # B₀ alone, against the dense U_m applied to each on its own
        proto = build_merge_protocol(psi, roles, receiver="B", **kwargs)
        live = [m for m, dead in enumerate(proto.zero_mask) if not dead]
        _, posts, regs = merge_split._merge_post_rows([proto], psi.amplitudes[None], psi.registers, live)
        event = merge_split.correction_rows_event([(proto, np.array(live))])
        assert [r.id for r in event["in"]] == ([proto.b0_id] if proto.k > 1 else []), kwargs
        rows, out_regs, _ = apply_event(posts[0], regs, event)
        for m, post, row in zip(live, posts[0], rows):
            ref = apply_merge_correction(proto, m, PureState(regs, post))
            aligned = permute_registers(ref, [r.id for r in out_regs])
            assert np.abs(aligned.amplitudes - row).max() <= 1e-12, m

    @pytest.mark.parametrize(
        "name", [name for name, case in REPLAY_INPUTS.items() if case[2].get("mode") == "fallback"]
    )
    def test_fallback_records_expand_to_the_former_stacks(self, name):
        make_code, make_tree, kwargs = REPLAY_INPUTS[name]
        result = run_concentrating(make_code(), make_tree(), **kwargs)
        for j, recs in result.steps.items():
            for prefix, rec in recs.items():
                proto = rec.protocol
                da = math.prod(proto.a_dims)
                assert proto.frame.shape == (da, da), (j, prefix)
                assert proto.measurement is None and proto.corrections is None, (j, prefix)
                same_bytes(measurement_matrix(proto), fallback_closed_form(proto)[0])
                same_bytes(correction_matrices(proto), dense_fallback_corrections(proto))

    def test_a_stage_of_mixed_strategies_replays_exactly(self, monkeypatch):
        # star4 tight: stage 2 builds four rows at K = 2, the fallback's rank;
        # the third row's tight build is made to fail, so it alone falls back
        calls, tight = [], merge_split._tight_measurements

        def third_row_of_stage_2(decs, da, k):
            built = tight(decs, da, k)
            for b in range(len(decs)):
                calls.append(k)
                if len(calls) == 6:
                    built[b] = None
            return built

        def no_synthesis(*args):
            raise SynthesisFailed("synthesis off")

        monkeypatch.setattr(merge_split, "_tight_measurements", third_row_of_stage_2)
        monkeypatch.setattr(merge_split, "_synthesize_measurement", no_synthesis)
        code = star4_code()
        result = run_concentrating(code, star_tree(4))
        strategies = [rec.protocol.strategy for rec in result.steps[2].values()]
        assert strategies == ["single-block", "single-block", "fallback-teleport", "single-block"]
        assert result.fallback_edges == ("v2",)
        assert result.min_fidelity >= EXACT
        check_row_replay(code, result, monkeypatch)

    @pytest.mark.parametrize(
        "name", [name for name, case in REPLAY_INPUTS.items() if case[2].get("mode") == "fallback"]
    )
    def test_fallback_records_match_the_solved_reference(self, name):
        # every record a kept branch walks through, against the fallback
        # arm that solved each outcome's correction
        make_code, make_tree, kwargs = REPLAY_INPUTS[name]
        code = make_code()
        result = run_concentrating(code, make_tree(), **kwargs)
        n = len(result.labeling)
        checked = set()
        for br in result.branches:
            state = encoded_pair(code).normalized()
            for j in range(n, 1, -1):
                prefix = br.outcomes[: n - j]
                proto = result.steps[j][prefix].protocol
                if (j, prefix) not in checked:
                    checked.add((j, prefix))
                    ref = fallback_merge_reference(state, (proto.r_ids, proto.a_ids, proto.b_ids), proto.k)
                    assert (proto.kmin, proto.zero_mask) == (ref.kmin, ref.zero_mask), (j, prefix)
                    assert np.abs(np.subtract(proto.probs, ref.probs)).max() <= 1e-12
                    assert verify_merge(proto, state).passed, (j, prefix)
                state = merge_post_state(proto, state, br.outcomes[n - j])[1].normalized()
        assert len(checked) >= n - 1

    def test_chunks_do_not_change_the_branches(self, monkeypatch):
        code, tree = five_qubit_code(), line_tree(5)
        kwargs = {"mode": "fallback", "branch_budget": 12, "seed": 3}
        whole = run_concentrating(code, tree, **kwargs)
        monkeypatch.setattr(protocols, "REPLAY_ROWS", 5)
        chunked = run_concentrating(code, tree, **kwargs)
        assert len(chunked.branches) == 12
        assert chunked.branches == whole.branches
        assert chunked.min_fidelity == whole.min_fidelity


# Fallback runs whose stages are checked against one-row builds: the fallback
# inputs of REPLAY_INPUTS, and the fixed cases of acceptance criterion 9.
STAGE_INPUTS = {
    **{name: case for name, case in REPLAY_INPUTS.items() if case[2].get("mode") == "fallback"},
    **CRITERION_9_FALLBACK,
}


def fallback_stages(name):
    """(rows entering it, tree, vertex, stage) of each stage of the run ``STAGE_INPUTS[name]``."""
    make_code, make_tree, kwargs = STAGE_INPUTS[name]
    code, tree = make_code(), make_tree()
    order = tree.default_labeling()
    budget = kwargs.get("branch_budget")
    live = protocols._first_branch(code)
    for level in range(len(order), 1, -1):
        vertex = order[level - 1]
        stage = protocols._concentrate_stage(live, tree, vertex, mode="fallback", rank_rtol=RANK_RTOL)
        yield live, tree, vertex, stage
        live = stage.live
        if budget is not None and len(live.paths) > budget:
            live = live.take(_sampled(live.paths, budget, kwargs["seed"], level))


def one_row_builds(live, tree, vertex, k):
    """``build_merge_protocol`` on each row alone, as the stage asks for it: the first at its own K."""
    kwargs = dict(mode="fallback", receiver=tree.root, b0_owner=tree.parent(vertex),
                  a0_id=f"ent:{vertex}:A0", b0_id=f"ent:{vertex}:B0")
    roles = protocols._roles_for(live.regs, vertex)
    return [
        build_merge_protocol(PureState(live.regs, row), roles, k=k if b else None, **kwargs)
        for b, row in enumerate(live.amps)
    ]


def assert_same_protocol(got: MergeProtocol, want: MergeProtocol, where) -> None:
    """Every field equal; arrays equal to the byte, so signed zeros count."""
    for field in dataclasses.fields(MergeProtocol):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b) and a.shape == b.shape, (where, field.name)
            assert a.tobytes() == b.tobytes(), (where, field.name)
        else:
            assert a == b, (where, field.name)


def assert_same_rows(got, want, where) -> None:
    assert got.paths == want.paths and got.regs == want.regs, where
    assert got.probs.tobytes() == want.probs.tobytes(), where
    assert got.amps.tobytes() == want.amps.tobytes(), where


def rank_rows(ranks):
    """Branches of a ``line:2`` GHZ-code run whose v2 shares have the given ρ^A ranks.

    Rank 2: the encoded GHZ pair; rank 1: the R–v1 Bell pair with v2 in |0⟩.
    """
    regs = encoded_pair(ghz_code(2)).registers
    amps = np.zeros((len(ranks), 8), dtype=complex)
    for b, rank in enumerate(ranks):
        amps[b, [0, 7 if rank == 2 else 6]] = S2  # index r·4 + v1·2 + v2
    paths = [(b,) for b in range(len(ranks))]
    return protocols._Rows(paths, np.full(len(ranks), 1 / len(ranks)), amps, regs)


class TestStageWideFallback:
    @pytest.mark.parametrize("name", STAGE_INPUTS)
    def test_records_equal_one_row_builds(self, name):
        # every record of every stage, to the byte, against the build of its
        # row alone (the stage rows are checked by the expansion test)
        for live, tree, vertex, stage in fallback_stages(name):
            assert list(stage.records) == live.paths, vertex
            for path, want in zip(live.paths, one_row_builds(live, tree, vertex, stage.edge.k)):
                assert_same_protocol(stage.records[path].protocol, want, (vertex, path))

    @pytest.mark.parametrize(
        "name", [name for name, case in REPLAY_INPUTS.items() if case[2].get("mode") == "fallback"]
    )
    def test_records_gather_the_measured_post_rows(self, name):
        # every outcome of every record, head and tail, on the row it was built
        # on: the gather from f† X against the contraction with its measurement
        for live, _, vertex, stage in fallback_stages(name):
            for path, row in zip(live.paths, live.amps):
                proto = stage.records[path].protocol
                _, posts, regs = merge_split._merge_post_rows([proto], row[None], live.regs)
                want, want_regs = measured_post_rows(proto, PureState(live.regs, row))
                assert regs == want_regs and posts.shape == (1, *want.shape), (vertex, path)
                assert np.abs(posts[0] - want).max() <= 1e-12, (vertex, path)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_chunk_size_does_not_change_the_stages(self, rows, monkeypatch):
        # the sampled five-qubit run has stages of 1, 4, 12 and 12 rows
        whole = [stage for *_, stage in fallback_stages("five_qubit-line-sampled")]
        monkeypatch.setattr(protocols, "STAGE_ROWS", rows)
        chunked = [stage for *_, stage in fallback_stages("five_qubit-line-sampled")]
        assert [len(stage.records) for stage in whole] == [1, 4, 12, 12]
        for a, b in zip(whole, chunked):
            assert a.edge == b.edge and list(a.records) == list(b.records)
            for path, rec in a.records.items():
                assert_same_protocol(b.records[path].protocol, rec.protocol, path)
            assert_same_rows(b.live, a.live, a.edge)

    def test_rows_of_different_rank_keep_their_order(self):
        # after the first row alone, one chunk holds rows of rank 2, 1, 2: the
        # rank-1 row is built, and expanded, apart from the rank-2 rows on
        # either side of it, yet the records and the branches keep row order
        live, tree = rank_rows((2, 2, 1, 2)), line_tree(2)
        stage = protocols._concentrate_stage(live, tree, "v2", mode="fallback", rank_rtol=RANK_RTOL)
        assert stage.edge.k == 2
        assert [stage.records[p].protocol.kmin for p in live.paths] == [2, 2, 1, 2]
        for path, want in zip(live.paths, one_row_builds(live, tree, "v2", 2)):
            assert_same_protocol(stage.records[path].protocol, want, path)
        assert stage.live.paths == [(b, m) for b in (0, 1) for m in range(4)] + [
            (2, 0), (2, 1), *((3, m) for m in range(4))
        ]
        states = [PureState(live.regs, row) for row in live.amps]
        ref = expanded_branches(list(zip(live.paths, live.probs.tolist(), states)), stage.records)
        assert np.array_equal(stage.live.amps, [st.amplitudes for _, _, st in ref])

    def test_rows_of_mixed_kinds_expand_as_each_alone(self):
        # tight and fallback records of one chunk are measured apart, by kind,
        # and each row's branches equal its own expansion, in row order
        live = rank_rows((2, 2, 2, 2))
        roles = protocols._roles_for(live.regs, "v2")
        tight, fallback = (build_merge_protocol(PureState(live.regs, live.amps[0]), roles, k=2, mode=mode)
                           for mode in ("tight", "fallback"))
        assert tight.frame is None and fallback.frame is not None
        protos = [fallback, tight, tight, fallback]
        src, outcomes, probs, posts, regs = protocols._merged_rows(protos, None, live.amps, live.regs)
        assert src.tolist() == sorted(src.tolist())
        for b, proto in enumerate(protos):
            wanted = [m for m, dead in enumerate(proto.zero_mask) if not dead]
            ref = merge_post_states(proto, PureState(live.regs, live.amps[b]), wanted)
            assert outcomes[src == b].tolist() == wanted
            assert probs[src == b].tobytes() == np.array([p for p, _ in ref]).tobytes()
            assert posts[src == b].tobytes() == np.array([st.amplitudes for _, st in ref]).tobytes()
            assert {st.registers for _, st in ref} == {regs}

    def test_row_needing_more_k_fails_the_edge(self):
        live, tree = rank_rows((1, 2)), line_tree(2)
        with pytest.raises(SynthesisFailed, match=r"edge \(v1, v2\).* K=1"):
            protocols._concentrate_stage(live, tree, "v2", mode="fallback", rank_rtol=RANK_RTOL)


# The outcome paths the branch budget kept, recorded before the sampling
# moved from the stage function into run_concentrating.
SAMPLED_PATHS = {
    "fallback-budget-96-seed-911": (
        {"mode": "fallback", "branch_budget": 96, "seed": 911},
        2.0**-16,
        """
        0,0,0,0 0,0,0,2 0,0,0,9 0,2,36,1 0,2,48,14 0,3,31,3 0,3,31,9 0,3,43,2
        0,3,43,4 0,4,16,13 0,5,3,3 0,5,29,12 0,7,13,15 0,8,38,7 0,8,38,13 0,8,38,15
        0,9,13,1 0,11,6,2 0,11,59,5 0,11,59,12 0,11,59,13 0,14,12,1 0,14,12,5
        0,14,22,11 0,14,22,13 0,15,33,2 0,15,54,15 1,0,53,10 1,1,51,2 1,1,51,3
        1,1,51,11 1,1,51,13 1,4,44,0 1,4,44,10 1,4,44,11 1,4,47,15 1,6,62,1 1,6,62,6
        1,6,62,10 1,6,62,11 1,7,36,10 1,9,28,3 1,9,28,8 1,11,16,6 1,11,16,9
        1,11,24,13 1,11,50,13 1,11,58,14 1,11,62,15 2,0,47,1 2,0,47,8 2,2,0,11
        2,2,56,13 2,4,9,10 2,4,9,11 2,4,11,9 2,6,21,1 2,6,21,13 2,7,6,10 2,7,44,0
        2,7,44,2 2,7,44,10 2,8,28,8 2,8,28,13 2,9,1,13 2,11,12,8 2,11,12,9
        2,13,45,12 2,14,31,0 2,14,31,9 2,15,3,7 2,15,38,4 2,15,38,11 2,15,41,5
        2,15,41,13 3,2,36,13 3,2,56,5 3,5,9,1 3,5,9,2 3,5,9,13 3,5,9,14 3,5,20,7
        3,8,48,11 3,9,1,1 3,9,1,5 3,9,10,14 3,9,29,1 3,9,46,14 3,10,27,6 3,11,0,6
        3,11,24,2 3,11,24,13 3,12,0,3 3,12,26,3 3,14,37,13 3,14,37,14
        """,
    ),
    # the run-concentrate --branches sample:6 --seed 9 of acceptance criterion 10
    "tight-budget-6-seed-9": (
        {"branch_budget": 6, "seed": 9},
        1 / 16,
        "0,0,0,0 0,0,0,1 0,0,1,1 0,1,1,1 1,0,0,1 1,1,0,1",
    ),
}


@pytest.mark.parametrize("name", SAMPLED_PATHS)
def test_sampling_keeps_its_draws(name):
    kwargs, prob, text = SAMPLED_PATHS[name]
    result = run_concentrating(five_qubit_code(), line_tree(5), **kwargs)
    got = sorted((br.outcomes, br.probability) for br in result.branches)
    assert [o for o, _ in got] == [tuple(map(int, t.split(","))) for t in text.split()]
    # every kept path has the same probability, recorded to the last few bits
    assert np.allclose([p for _, p in got], prob, rtol=1e-14, atol=0)


# -- a branch budget keeps its rows before the stage expands them ----------------------


def sampled_walk(code, tree, budget, seed, mode):
    """Reference: (rows entering it, vertex, level, the rows the budget keeps, explored) per stage.

    Each stage is expanded in full, then ``budget`` of its rows are kept by
    ``_sampled``, as ``run_concentrating`` sampled before it drew ahead of
    the expansion.
    """
    order, live = tree.default_labeling(), protocols._first_branch(code)
    for level in range(len(order), 1, -1):
        vertex = order[level - 1]
        rows = protocols._concentrate_stage(live, tree, vertex, mode=mode, rank_rtol=RANK_RTOL).live
        explored = len(rows.paths) <= budget
        kept = rows if explored else rows.take(_sampled(rows.paths, budget, seed, level))
        yield live, vertex, level, kept, explored
        live = kept


# (code, tree, mode) of the sampled walks; five_qubit on line:5 in fallback
# mode expands 4, 64, 4,096 and 1,536 rows at budget 96
SAMPLED_INPUTS = {
    "five_qubit-line-fallback": (five_qubit_code, lambda: line_tree(5), "fallback"),
    "five_qubit-line-tight": (five_qubit_code, lambda: line_tree(5), "tight"),
    "star4-fallback": (star4_code, lambda: star_tree(4), "fallback"),
    "random-star3-fallback": (
        lambda: random_code(np.random.default_rng(41), 2, (2, 2, 2)), lambda: star_tree(3), "fallback"
    ),
}


class TestSampledStages:
    @pytest.mark.parametrize("seed", [3, 911])
    @pytest.mark.parametrize("budget", [1, 5, 96])
    @pytest.mark.parametrize("name", SAMPLED_INPUTS)
    def test_stages_keep_the_oracle_rows(self, name, budget, seed):
        # the kept paths, probabilities and rows, to the byte, against the
        # full expansion sampled afterwards
        make_code, make_tree, mode = SAMPLED_INPUTS[name]
        code, tree = make_code(), make_tree()
        for live, vertex, level, want, explored in sampled_walk(code, tree, budget, seed, mode):
            stage = protocols._concentrate_stage(live, tree, vertex, mode=mode, rank_rtol=RANK_RTOL,
                                                 budget=budget, seed=seed, level=level)
            assert_same_rows(stage.live, want, (vertex, budget))
            assert stage.explored_all == explored, (vertex, budget)

    @pytest.mark.parametrize("name", SAMPLED_INPUTS)
    def test_a_budget_at_the_expanded_count(self, name):
        # at a stage's expanded count every row stays; one less samples one out
        make_code, make_tree, mode = SAMPLED_INPUTS[name]
        code, tree = make_code(), make_tree()
        order, live = tree.default_labeling(), protocols._first_branch(code)
        for level in range(len(order), 2, -1):
            vertex = order[level - 1]
            full = protocols._concentrate_stage(live, tree, vertex, mode=mode, rank_rtol=RANK_RTOL)
            count = len(full.live.paths)
            assert count > 1, vertex
            for budget in (count, count + 1, count - 1):
                stage = protocols._concentrate_stage(live, tree, vertex, mode=mode, rank_rtol=RANK_RTOL,
                                                     budget=budget, seed=5, level=level)
                want = full.live if budget >= count else full.live.take(_sampled(full.live.paths, budget, 5, level))
                assert_same_rows(stage.live, want, (vertex, budget))
                assert stage.explored_all == (budget >= count), (vertex, budget)
            live = full.live.take(range(min(count, 24)))

    @pytest.mark.parametrize("budget", [1, 5, 96, 4096])
    def test_a_stage_whose_all_zero_path_is_dead(self, budget):
        # no row's path is all zero, so every kept row is drawn
        live = rank_rows((2, 2, 1, 2) * 8)
        live = dataclasses.replace(live, paths=[(b + 1,) for b in range(len(live.paths))])
        tree = line_tree(2)
        full = protocols._concentrate_stage(live, tree, "v2", mode="fallback", rank_rtol=RANK_RTOL)
        assert all(any(path) for path in full.live.paths) and len(full.live.paths) == 112
        stage = protocols._concentrate_stage(live, tree, "v2", mode="fallback", rank_rtol=RANK_RTOL,
                                             budget=budget, seed=7, level=2)
        explored = budget >= len(full.live.paths)
        want = full.live if explored else full.live.take(_sampled(full.live.paths, budget, 7, 2))
        assert_same_rows(stage.live, want, budget)
        assert stage.explored_all == explored and len(stage.live.paths) == min(budget, 112)

    # a budget of 70,000 keeps every branch; five_qubit's 65,536 fallback
    # leaves are left to the exhaustive runs
    @pytest.mark.parametrize("name, budget", [
        (name, budget) for name in SAMPLED_INPUTS for budget in (1, 5, 96, 70_000)
        if (name, budget) != ("five_qubit-line-fallback", 70_000)
    ])
    def test_runs_keep_the_oracle_branches(self, name, budget):
        # coverage, explored_all and every branch's path and probability, to
        # the byte, against the sampled walk
        make_code, make_tree, mode = SAMPLED_INPUTS[name]
        code, tree = make_code(), make_tree()
        walk = list(sampled_walk(code, tree, budget, 911, mode))
        result = run_concentrating(code, tree, mode=mode, branch_budget=budget, seed=911)
        final = walk[-1][3]
        assert [br.outcomes for br in result.branches] == final.paths
        same_bytes(np.array([br.probability for br in result.branches]), final.probs)
        assert result.coverage == float(sum(final.probs.tolist()))
        assert result.explored_all == all(explored for *_, explored in walk)


# -- costs that the parties' local frames must not move ----------------------------


def locally_transformed(code, ops):
    """``code`` with the isometry ops[i], shaped (d′_i, d_i), applied to party i."""
    t = code.matrix.reshape(*code.physical_dims, code.logical_dim)
    for axis, op in enumerate(ops):
        t = np.moveaxis(np.tensordot(op, t, axes=([1], [axis])), 0, axis)
    dims = tuple(op.shape[0] for op in ops)
    return IsometryCode(code.logical_dim, code.parties, dims, t.reshape(-1, code.logical_dim))


# five_qubit is left out: its tight costs do move under a local unitary
FRAME_INPUTS = {
    "star4": lambda: (star4_code(), star_tree(4)),
    "ghz4": lambda: (ghz_code(4), star_tree(4)),
    "random-line4": lambda: (random_code(np.random.default_rng(2), 2, [2] * 4), line_tree(4)),
}


def frame_free_costs(code, tree):
    """Spreading, fallback and tight costs per edge, and the tight search's least product of K."""
    _, best = optimize_labeling(code, tree)
    return (
        spreading_cost(code, tree).by_child(),
        concentrating_cost(code, tree, mode="fallback").by_child(),
        concentrating_cost(code, tree).by_child(),
        math.prod(best.by_child().values()),
    )


class TestCostsIgnoreLocalFrames:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", FRAME_INPUTS)
    def test_haar_unitary_on_every_party(self, name, seed):
        code, tree = FRAME_INPUTS[name]()
        rng = np.random.default_rng([4100, seed])
        rotated = locally_transformed(code, [haar_unitary(rng, d) for d in code.physical_dims])
        assert frame_free_costs(rotated, tree) == frame_free_costs(code, tree)

    @pytest.mark.parametrize("party", range(4))
    @pytest.mark.parametrize("name", FRAME_INPUTS)
    def test_qubit_padded_to_a_qutrit(self, name, party):
        code, tree = FRAME_INPUTS[name]()
        ops = [np.eye(d) for d in code.physical_dims]
        ops[party] = haar_unitary(np.random.default_rng([4200, party]), 3)[:, :2]
        padded = locally_transformed(code, ops)
        assert padded.physical_dims[party] == 3
        assert frame_free_costs(padded, tree) == frame_free_costs(code, tree)
