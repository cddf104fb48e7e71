"""Tree-level driver tests: spreading and concentrating end to end."""

import dataclasses
import weakref

import numpy as np
import pytest
from oracles import expanded_branches, fidelity_to_reference, replay_root_corrections

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
from treecast import protocols
from treecast.config import RANK_RTOL
from treecast.errors import (
    InputError,
    InsufficientResource,
    NotAscending,
    NumericalDegeneracy,
    SynthesisFailed,
    TooLarge,
    UnknownEdge,
    VerificationFailed,
)
from treecast.merge_split import build_split_protocol, merge_post_state
from treecast.network import line_tree, parse_tree, star_tree
from treecast.protocols import (
    compare_costs,
    concentrating_cost,
    optimize_labeling,
    run_concentrating,
    run_spreading,
    spreading_cost,
)
from treecast.tensors import PureState, Register, overlap, permute_registers

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
        real = protocols.build_merge_protocol
        calls = []

        def stub(state, roles, *, k=None, **kwargs):
            if kwargs["a0_id"] == "ent:v4:A0":
                calls.append(k)
                if k is not None:
                    raise InsufficientResource("stub: the sibling needs K + 1")
            return real(state, roles, k=k, **kwargs)

        monkeypatch.setattr(protocols, "build_merge_protocol", stub)
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
        best, report, totals = optimize_labeling(star4_code(), star_tree(4))
        assert best == ("v1", "v2", "v3", "v4")
        assert report.total_log2 == 1.0
        assert len(totals) == 6
        assert all(abs(t - 1.0) <= 1e-12 for t in totals.values())

    def test_optimize_labeling_line_is_unique(self):
        best, report, totals = optimize_labeling(ghz_code(3), line_tree(3))
        assert best == ("v1", "v2", "v3")
        assert list(totals) == [("v1", "v2", "v3")]
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
        _, report, _ = optimize_labeling(code, tree, rank_rtol=1e-14)
        assert report.by_child() == {"v2": 2}
        with pytest.raises(NumericalDegeneracy):
            optimize_labeling(code, tree)

    def test_optimize_labeling_too_large(self):
        with pytest.raises(TooLarge):
            optimize_labeling(ghz_code(9), star_tree(9), limit=100)


# -- the labeling search over merged sets ---------------------------------------------


def reference_search(code, tree, **kwargs):
    """The former optimize_labeling: one run on every branch per candidate."""
    best, totals = None, {}
    for cand in tree.ascending_labelings():
        report = run_concentrating(code, tree, cand, **kwargs).cost_report
        totals[cand] = report.total_log2
        key = (report.total_log2, cand)
        if best is None or key < best[0]:
            best = (key, cand, report)
    return best[1], best[2], totals


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


class TestSharedSuffixSearch:
    @pytest.mark.parametrize("mode", SEARCH_MODES)
    @pytest.mark.parametrize("name", SEARCH_INPUTS)
    def test_matches_one_run_per_candidate(self, name, mode):
        code, tree = SEARCH_INPUTS[name]()
        kwargs = SEARCH_MODES[mode]
        # the search takes the mode only; the reference runs keep the budget
        best, report, totals = optimize_labeling(code, tree, mode=kwargs.get("mode", "tight"))
        ref_best, ref_report, ref_totals = reference_search(code, tree, **kwargs)
        assert list(totals.items()) == list(ref_totals.items())
        assert (best, report) == (ref_best, ref_report)
        full = run_concentrating(code, tree, best, **kwargs)
        assert report == full.cost_report
        assert report == concentrating_cost(code, tree, best, mode=kwargs.get("mode", "tight"))
        if "branch_budget" in kwargs:  # the budget cut branches, so the sampler ran
            assert not full.explored_all

    @pytest.mark.parametrize("mode", SEARCH_MODES)
    @pytest.mark.parametrize("name", SEARCH_INPUTS)
    def test_set_stage_costs_match_fresh_runs(self, name, mode):
        # every fresh run that merges vertex after set pays the K the
        # search recorded for (set, vertex), whatever order set merged in
        code, tree = SEARCH_INPUTS[name]()
        kwargs = SEARCH_MODES[mode]
        fresh = {}
        for cand in tree.ascending_labelings():
            report = run_concentrating(code, tree, cand, **kwargs).cost_report
            for i in range(1, len(cand)):
                key = (frozenset(cand[i + 1 :]), cand[i])
                fresh.setdefault(key, set()).add(report.cost_of(cand[i]))
        costs = protocols._set_stage_costs(
            code, tree, mode=kwargs.get("mode", "tight"), rank_rtol=RANK_RTOL
        )
        assert {key: {edge.k} for key, edge in costs.items()} == fresh

    def test_each_set_stage_is_built_once(self, monkeypatch):
        # one stage per (set, vertex) key: a star with n − 1 leaves has
        # (n − 1)·2^(n − 2) of them; each stage follows one branch, so it
        # builds one merge protocol
        real_stage, real_build = protocols._concentrate_stage, protocols.build_merge_protocol
        stages, builds = [], []

        def counting_stage(live, tree, vertex, *args, **kwargs):
            stages.append(vertex)
            return real_stage(live, tree, vertex, *args, **kwargs)

        def counting_build(*args, **kwargs):
            builds.append(kwargs.get("k"))
            return real_build(*args, **kwargs)

        monkeypatch.setattr(protocols, "_concentrate_stage", counting_stage)
        monkeypatch.setattr(protocols, "build_merge_protocol", counting_build)
        optimize_labeling(five_qubit_code(), star_tree(5))
        assert (len(stages), len(builds)) == (32, 32)
        stages.clear()
        builds.clear()
        optimize_labeling(ghz_code(6), star_tree(6))
        assert (len(stages), len(builds)) == (80, 80)
        builds.clear()
        reference_search(five_qubit_code(), star_tree(5))
        assert len(builds) == 360

    def test_stages_are_freed_as_the_walk_unwinds(self, monkeypatch):
        # the memo keeps costs only: no branch state or step record
        # outlives its place on the depth-first path
        real = protocols._concentrate_stage
        alive = {"stages": 0, "held": 0}
        peak = [0]

        def release(kind):
            alive[kind] -= 1

        def tracked(live, *args, **kwargs):
            stage = real(live, *args, **kwargs)
            alive["stages"] += 1
            peak[0] = max(peak[0], alive["stages"])
            weakref.finalize(stage, release, "stages")
            # the rows a stage receives: the branch carried down to it
            held = [*stage.records.values(), stage.live.amps, live.amps]
            alive["held"] += len(held)
            for obj in held:
                weakref.finalize(obj, release, "held")
            return stage

        monkeypatch.setattr(protocols, "_concentrate_stage", tracked)
        code, tree = five_qubit_code(), star_tree(5)
        optimize_labeling(code, tree)
        assert peak[0] <= len(tree.vertices) - 1
        assert alive == {"stages": 0, "held": 0}


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
        real = protocols.build_merge_protocol
        builds = []

        def counting(*args, **kwargs):
            builds.append(kwargs.get("k"))
            return real(*args, **kwargs)

        monkeypatch.setattr(protocols, "build_merge_protocol", counting)
        report = concentrating_cost(five_qubit_code(), line_tree(5), mode=mode)
        assert len(builds) == 4
        expected = (1, 1, 1, 1) if mode == "tight" else (4, 8, 4, 2)
        assert tuple(report.by_child()[v] for v in ("v2", "v3", "v4", "v5")) == expected

    def test_ki_walks_only_the_prefix_stages(self, monkeypatch, capsys):
        from treecast import cli

        real = protocols.build_merge_protocol
        builds = []

        def counting(*args, **kwargs):
            builds.append(kwargs.get("k"))
            return real(*args, **kwargs)

        monkeypatch.setattr(protocols, "build_merge_protocol", counting)
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

    @pytest.mark.parametrize("name", REPLAY_INPUTS)
    def test_stage_rows_match_the_per_branch_expansion(self, name):
        # every stage's rows hold, bit for bit, the paths, probabilities and
        # normalized post-states of expanding each branch on its own
        make_code, make_tree, kwargs = REPLAY_INPUTS[name]
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
                live = live.take(protocols._sampled(live.paths, budget, kwargs["seed"], level))

    def test_chunks_do_not_change_the_branches(self, monkeypatch):
        code, tree = five_qubit_code(), line_tree(5)
        kwargs = {"mode": "fallback", "branch_budget": 12, "seed": 3}
        whole = run_concentrating(code, tree, **kwargs)
        monkeypatch.setattr(protocols, "REPLAY_ROWS", 5)
        chunked = run_concentrating(code, tree, **kwargs)
        assert len(chunked.branches) == 12
        assert chunked.branches == whole.branches
        assert chunked.min_fidelity == whole.min_fidelity


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
