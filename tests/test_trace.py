"""Trace documents: event grammar, replay, hashing, tamper detection."""

import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest
from oracles import bell_columns_loop, replay_root_corrections

import treecast.trace as trace_mod
from treecast import config, merge_split
from treecast.codes import (
    five_qubit_code,
    ghz_code,
    identity_code,
    random_code,
    star4_code,
)
from treecast.errors import InputError, SchemaError, ShapeMismatch
from treecast.merge_split import _bell_basis
from treecast.network import line_tree, star_tree
from treecast.protocols import run_concentrating, run_spreading
from treecast.tensors import PureState, overlap, permute_registers
from treecast.trace import (
    HASH_DECIMALS,
    MAX_BELL_ENTRIES,
    TRACE_FORMAT,
    _bell_k,
    _OpTable,
    _ops_from_doc,
    _reg_from,
    _state_doc,
    _state_from_doc,
    concentrate_trace,
    load_trace,
    replay_trace,
    save_trace,
    spread_trace,
    state_hash,
    trace_json,
    verify_trace,
)


@pytest.fixture(scope="module")
def five_line():
    return five_qubit_code(), line_tree(5)


@pytest.fixture(scope="module")
def five_spread(five_line):
    code, tree = five_line
    return run_spreading(code, tree)


@pytest.fixture(scope="module")
def five_concentrate(five_line):
    code, tree = five_line
    return run_concentrating(code, tree)

DATA = pathlib.Path(__file__).parent / "data"


def events_of(doc, kind):
    return [e for e in doc["events"] if e["type"] == kind]


class TestSpreadTrace:
    def test_verifies_and_is_consistent(self, five_line, five_spread):
        code, tree = five_line
        doc = spread_trace(code, tree, five_spread, code_name="fq")
        verdict = verify_trace(doc)
        assert verdict["passed"]
        assert verdict["hash_match"]
        assert verdict["cost_consistent"]
        assert verdict["max_probability_deviation"] == 0.0

    def test_event_grammar(self, five_line, five_spread):
        code, tree = five_line
        doc = spread_trace(code, tree, five_spread)
        events = doc["events"]
        assert events[0]["type"] == "local-isometry"
        assert events[0]["party"] == "v1"
        ks = [e["k"] for e in events_of(doc, "resource-consumed")]
        assert ks == [4, 8, 4, 2]
        probs = [e["probability"] for e in events_of(doc, "measurement")]
        assert probs == pytest.approx([1 / 16, 1 / 64, 1 / 16, 1 / 4])
        # each teleport block: compress, resource, measure, broadcast,
        # correction, decompress
        kinds = [e["type"] for e in events]
        assert len(kinds) == 1 + 4 * 6
        block = kinds[1:7]
        assert block == [
            "local-isometry",
            "resource-consumed",
            "measurement",
            "broadcast",
            "local-isometry",
            "local-isometry",
        ]

    def test_resource_events_reproduce_cost_report(self, five_line, five_spread):
        code, tree = five_line
        doc = spread_trace(code, tree, five_spread)
        consumed = sorted(
            (e["edge"][0], e["edge"][1], e["k"])
            for e in events_of(doc, "resource-consumed")
        )
        recorded = sorted(
            (e["parent"], e["child"], e["k"]) for e in doc["cost_report"]["edges"]
        )
        assert consumed == recorded
        total = sum(np.log2(k) for _, _, k in consumed)
        assert total == pytest.approx(doc["cost_report"]["total_log2"])

    def test_star4_block_structure(self):
        code, tree = star4_code(), star_tree(4)
        result = run_spreading(code, tree)
        doc = spread_trace(code, tree, result, code_name="star4")
        assert verify_trace(doc)["passed"]
        assert len(events_of(doc, "measurement")) == 3
        # one encoder isometry plus three blocks of three isometries
        assert len(events_of(doc, "local-isometry")) == 1 + 3 * 3

    def test_trivial_blocks_relabel_without_measuring(self):
        code, tree = identity_code(2, 3), line_tree(3)
        result = run_spreading(code, tree)
        doc = spread_trace(code, tree, result)
        assert verify_trace(doc)["passed"]
        assert events_of(doc, "measurement") == []
        assert [e["k"] for e in events_of(doc, "resource-consumed")] == [1, 1]

    def test_any_outcome_path_lands_on_the_same_state(self, five_line, five_spread):
        code, tree = five_line
        base = spread_trace(code, tree, five_spread)
        other = spread_trace(code, tree, five_spread, outcomes=(3, 17, 9, 2))
        assert verify_trace(other)["passed"]
        a = replay_trace(base)["final_state"]
        b = replay_trace(other)["final_state"]
        assert abs(overlap(a.normalized(), b.normalized())) == pytest.approx(1.0)

    def test_bad_outcomes_rejected(self, five_line, five_spread):
        code, tree = five_line
        with pytest.raises(ShapeMismatch):
            spread_trace(code, tree, five_spread, outcomes=(0, 0))
        with pytest.raises(ShapeMismatch):
            spread_trace(code, tree, five_spread, outcomes=(99, 0, 0, 0))


class TestConcentrateTrace:
    def test_verifies_with_exact_probabilities(self, five_line, five_concentrate):
        code, tree = five_line
        doc = concentrate_trace(code, tree, five_concentrate, code_name="fq")
        verdict = verify_trace(doc)
        assert verdict["passed"]
        probs = [e["probability"] for e in events_of(doc, "measurement")]
        assert probs == pytest.approx([0.5] * 4)
        assert doc["events"][-1]["type"] == "root-correction"

    def test_root_correction_is_the_sign_flip(self, five_line, five_concentrate):
        code, tree = five_line
        doc = concentrate_trace(code, tree, five_concentrate)
        ref = doc["events"][-1]["matrix"]
        item = doc["operators"][ref]
        mat = np.array([complex(a, b) for a, b in item["data"]]).reshape(
            item["shape"]
        )
        assert mat.shape == (2, 2)
        assert np.allclose(np.abs(mat), np.eye(2), atol=1e-9)
        assert mat[1, 1] / mat[0, 0] == pytest.approx(-1.0)

    @pytest.mark.parametrize("outcomes", [(0, 0, 0, 0), (1, 0, 1, 1)])
    def test_composed_correction_matches_per_column_replay(
        self, five_line, five_concentrate, outcomes
    ):
        code, tree = five_line
        doc = concentrate_trace(code, tree, five_concentrate, outcomes=outcomes)
        root = doc["events"][-1]
        item = doc["operators"][root["matrix"]]
        composed = np.array([complex(a, b) for a, b in item["data"]]).reshape(item["shape"])
        # reference: push each basis vector of the rest registers on its own
        rest = tuple(_reg_from(spec) for spec in root["in"])
        dim = composed.shape[1]
        for idx in range(dim):
            basis = PureState(rest, np.eye(dim, dtype=complex)[idx])
            pushed = replay_root_corrections(
                code, five_concentrate.labeling, five_concentrate.steps, outcomes, basis
            )
            assert pushed.ids == ("L",)
            assert np.abs(pushed.amplitudes - composed[:, idx]).max() <= 1e-12

    def test_every_branch_builds_a_passing_trace(self, five_line, five_concentrate):
        code, tree = five_line
        for outcomes in itertools.product(range(2), repeat=4):
            doc = concentrate_trace(code, tree, five_concentrate, outcomes=outcomes)
            assert verify_trace(doc)["passed"], outcomes

    def test_star4_resource_events(self):
        code, tree = star4_code(), star_tree(4)
        result = run_concentrating(code, tree)
        doc = concentrate_trace(code, tree, result)
        assert verify_trace(doc)["passed"]
        resources = events_of(doc, "resource-consumed")
        assert sorted(e["k"] for e in resources) == [1, 1, 2]
        for e in resources:
            assert ("a0" in e) == (e["k"] > 1)

    def test_fallback_mode_traces(self, five_line):
        code, tree = five_line
        result = run_concentrating(code, tree, mode="fallback", branch_budget=8)
        doc = concentrate_trace(code, tree, result, code_name="fq")
        assert verify_trace(doc)["passed"]
        ks = [e["k"] for e in events_of(doc, "resource-consumed")]
        assert ks == [2, 4, 8, 4]  # descending stages v5, v4, v3, v2

    def test_outcome_past_a_stage_is_refused(self, five_line):
        # the count comes from the record's probabilities, not a built matrix
        code, tree = five_line
        result = run_concentrating(code, tree, mode="fallback", branch_budget=8)
        count = len(result.steps[5][()].protocol.probs)
        with pytest.raises(ShapeMismatch, match=f"^stage 5 has {count} outcomes, got {count}$"):
            concentrate_trace(code, tree, result, outcomes=(count, 0, 0, 0))

    def test_unrecorded_branch_rejected(self, five_line):
        code, tree = five_line
        result = run_concentrating(code, tree, branch_budget=2)
        # a prefix never explored at stage 3 cannot be traced
        missing_prefix = next(
            p
            for p in itertools.product(range(2), repeat=2)
            if p not in result.steps[3]
        )
        with pytest.raises(InputError):
            concentrate_trace(
                code, tree, result, outcomes=missing_prefix + (0, 0)
            )

    def test_random_code_trace(self):
        rng = np.random.default_rng(5)
        code, tree = random_code(rng, 2, (2, 2, 2)), line_tree(3)
        result = run_concentrating(code, tree)
        doc = concentrate_trace(code, tree, result, code_name="random")
        assert verify_trace(doc)["passed"]

    def test_single_vertex(self):
        code, tree = identity_code(2, 1), line_tree(1)
        doc = concentrate_trace(code, tree, run_concentrating(code, tree))
        assert verify_trace(doc)["passed"]
        assert [e["type"] for e in doc["events"]] == ["root-correction"]
        sdoc = spread_trace(code, tree, run_spreading(code, tree))
        assert verify_trace(sdoc)["passed"]
        assert [e["type"] for e in sdoc["events"]] == ["local-isometry"]


class TestStoredTraces:
    """Traces written while split blocks consumed their resource before compressing."""

    @pytest.mark.parametrize(
        "name", ["star4-spread-resource-first.json", "star4-concentrate.json"]
    )
    def test_still_verify(self, name):
        doc = load_trace(str(DATA / name))
        verdict = verify_trace(doc)
        assert verdict["hash_match"]
        assert verdict["passed"]

    @pytest.mark.parametrize(
        "event, key, value",
        [
            (1, "outcome", "0"),
            (1, "outcome", 0.9),
            (1, "outcome", 0.0),
            (1, "outcome", True),
            (1, "outcome", [0]),
            (1, "probability", "0.25"),
            (1, "probability", True),
            (2, "outcome", 7),
            (2, "outcome", False),
        ],
    )
    def test_reader_refuses_malformed_values(self, event, key, value):
        # star4-concentrate.json: event 1 is a measurement of 0, event 2 its broadcast
        doc = load_trace(str(DATA / "star4-concentrate.json"))
        assert [doc["events"][i]["type"] for i in (1, 2)] == ["measurement", "broadcast"]
        doc["events"][event][key] = value
        with pytest.raises(SchemaError):
            verify_trace(doc)

    def test_reader_refuses_a_broadcast_without_its_measurement(self):
        doc = load_trace(str(DATA / "star4-concentrate.json"))
        early = dict(doc, events=[doc["events"][2]] + doc["events"])
        with pytest.raises(SchemaError, match="announces 0, but the measurement gave None"):
            verify_trace(early)
        flipped = json.loads(json.dumps(doc))
        flipped["events"][1]["outcome"] = 1
        with pytest.raises(SchemaError, match="announces 0, but the measurement gave 1"):
            verify_trace(flipped)

    def test_spread_blocks_are_resource_first(self):
        doc = load_trace(str(DATA / "star4-spread-resource-first.json"))
        assert [e["type"] for e in doc["events"][1:3]] == [
            "resource-consumed",
            "local-isometry",
        ]


class TestTamperDetection:
    def tampered(self, doc, mutate):
        copy = json.loads(trace_json(doc))
        mutate(copy)
        return copy

    def test_outcome_flip_breaks_the_hash(self, five_line, five_concentrate):
        code, tree = five_line
        doc = concentrate_trace(code, tree, five_concentrate)

        def flip(d):
            # the measurement and its broadcast, so the trace still reads
            at = next(i for i, e in enumerate(d["events"]) if e["type"] == "measurement")
            for ev in d["events"][at : at + 2]:
                ev["outcome"] = 1 - ev["outcome"]

        verdict = verify_trace(self.tampered(doc, flip))
        assert not verdict["passed"]
        assert not verdict["hash_match"]

    def test_probability_tamper_is_caught(self, five_line, five_concentrate):
        code, tree = five_line
        doc = concentrate_trace(code, tree, five_concentrate)

        def bump(d):
            ev = next(e for e in d["events"] if e["type"] == "measurement")
            ev["probability"] = 0.75

        verdict = verify_trace(self.tampered(doc, bump))
        assert not verdict["passed"]
        assert verdict["hash_match"]  # state replay unaffected
        assert verdict["max_probability_deviation"] == pytest.approx(0.25)

    def test_cost_tamper_is_caught(self, five_line, five_spread):
        code, tree = five_line
        doc = spread_trace(code, tree, five_spread)

        def bump(d):
            d["cost_report"]["edges"][0]["k"] = 16

        verdict = verify_trace(self.tampered(doc, bump))
        assert not verdict["passed"]
        assert not verdict["cost_consistent"]

    def test_operator_tamper_breaks_the_hash(self, five_line, five_spread):
        code, tree = five_line
        doc = spread_trace(code, tree, five_spread)

        def corrupt(d):
            ref = d["events"][0]["matrix"]
            d["operators"][ref]["data"][0] = [0.7, 0.1]

        verdict = verify_trace(self.tampered(doc, corrupt))
        assert not verdict["hash_match"]


class TestSerializationAndHash:
    def test_hash_ignores_register_order(self, five_line, five_spread):
        code, tree = five_line
        doc = spread_trace(code, tree, five_spread)
        state = replay_trace(doc)["final_state"]
        shuffled = permute_registers(state, sorted(state.ids, reverse=True))
        assert state_hash(state) == state_hash(shuffled)

    def test_rebuilds_are_byte_identical(self, five_line):
        code, tree = five_line
        a = trace_json(
            concentrate_trace(code, tree, run_concentrating(code, tree), seed=3)
        )
        b = trace_json(
            concentrate_trace(code, tree, run_concentrating(code, tree), seed=3)
        )
        assert a == b
        sa = trace_json(spread_trace(code, tree, run_spreading(code, tree), seed=3))
        sb = trace_json(spread_trace(code, tree, run_spreading(code, tree), seed=3))
        assert sa == sb

    def test_save_load_round_trip(self, tmp_path, five_line, five_concentrate):
        code, tree = five_line
        doc = concentrate_trace(code, tree, five_concentrate)
        path = tmp_path / "trace.json"
        save_trace(doc, str(path))
        loaded = load_trace(str(path))
        assert trace_json(loaded) == trace_json(doc)
        assert verify_trace(loaded)["passed"]

    def test_malformed_documents_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            verify_trace({"format": "nope"})
        p = tmp_path / "bad.json"
        p.write_text("{]")
        with pytest.raises(SchemaError):
            load_trace(str(p))
        p2 = tmp_path / "empty.json"
        p2.write_text("{}")
        with pytest.raises(SchemaError):
            load_trace(str(p2))


def dense_pairs_loop(values):
    """Reference: ``[[re, im], …]`` entry by entry, as format /1 wrote them."""
    return [[float(x.real), float(x.imag)] for x in np.asarray(values).reshape(-1)]


def state_hash_loop(state):
    """Reference: the per-entry state hash of format /1."""
    ordered = permute_registers(state, sorted(state.ids))
    amps = np.round(ordered.amplitudes, HASH_DECIMALS)
    payload = {
        "registers": [[r.id, r.dim] for r in ordered.registers],
        "amplitudes": [[float(x.real) + 0.0, float(x.imag) + 0.0] for x in amps],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def as_dense_v1(doc):
    """``doc`` with every ``{"bell": K}`` expanded by the loop oracle, as format /1."""
    out = json.loads(trace_json(doc))
    for item in out["operators"].values():
        if "bell" in item:
            bell = bell_columns_loop(item.pop("bell"))
            item.update(shape=list(bell.shape), data=dense_pairs_loop(bell))
    out["format"] = "treecast.trace/1"
    return out


def awkward_values(rng, shape):
    """Random complex entries, the first four replaced by signed zeros and rounding edges."""
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = vals.reshape(-1)
    flat[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-1e-15, -4e-13), 0.5 + 5e-13j]
    return vals


class TestSerializerParity:
    """The whole-array serializers give the bytes of the per-entry loops."""

    def test_operator_table_matches_the_loop(self):
        rng = np.random.default_rng(3)
        table = _OpTable()
        mats = [awkward_values(rng, (5, 3)), awkward_values(rng, (4, 6)).T, np.eye(1)]
        refs = [table.add(m) for m in mats]
        doc = table.to_doc()
        for ref, mat in zip(refs, mats):
            assert doc[ref] == {"shape": list(mat.shape), "data": dense_pairs_loop(mat)}
        parsed = _ops_from_doc(json.loads(json.dumps(doc)), named=True)
        for ref, mat in zip(refs, mats):
            want = np.array([complex(re, im) for re, im in doc[ref]["data"]]).reshape(mat.shape)
            assert parsed[ref].tobytes() == want.tobytes()

    def test_state_serializers_and_hash_match_the_loop(self):
        rng = np.random.default_rng(4)
        regs = (_reg_from({"id": "b", "dim": 3, "owner": "x"}), _reg_from({"id": "a", "dim": 4, "owner": "y"}))
        for vals in (awkward_values(rng, 12), -np.eye(12)[5] * 1e-14 + np.eye(12)[0]):
            state = PureState(regs, vals)
            doc = _state_doc(state)
            assert doc["amplitudes"] == dense_pairs_loop(state.amplitudes)
            back = _state_from_doc(json.loads(json.dumps(doc)))
            assert back.amplitudes.tobytes() == state.amplitudes.tobytes()
            assert state_hash(state) == state_hash_loop(state)

    def test_replayed_hash_matches_the_loop(self, five_line, five_spread):
        code, tree = five_line
        doc = spread_trace(code, tree, five_spread, outcomes=(5, 0, 11, 3))
        state = replay_trace(doc)["final_state"]
        assert state_hash(state) == state_hash_loop(state) == doc["final_state"]["hash"]


def bell_compat_cases():
    """Builtins, and seeded random codes whose splits reach K = 18."""
    cases = [
        ("five_qubit", five_qubit_code(), line_tree(5)),
        ("star4", star4_code(), star_tree(4)),
        ("ghz4", ghz_code(4), line_tree(4)),
        ("identity", identity_code(2, 3), line_tree(3)),
        ("qutrits-line", random_code(np.random.default_rng(71), 2, (3,) * 5), line_tree(5)),
        ("qubits-line", random_code(np.random.default_rng(72), 4, (2,) * 7), line_tree(7)),
        ("qutrits-star", random_code(np.random.default_rng(73), 2, (3,) * 5), star_tree(5)),
    ]
    return [pytest.param(name, code, tree, id=name) for name, code, tree in cases]


class TestBellNaming:
    def test_split_bases_are_named_by_k(self, five_line, five_spread):
        code, tree = five_line
        doc = spread_trace(code, tree, five_spread)
        assert doc["format"] == TRACE_FORMAT
        bases = {e["basis"] for e in events_of(doc, "measurement")}
        named = {ref: item["bell"] for ref, item in doc["operators"].items() if "bell" in item}
        assert set(named) == bases
        assert sorted(named.values()) == [2, 4, 8]
        for ref, item in doc["operators"].items():
            assert ("bell" in item) == (ref in bases)

    @pytest.mark.parametrize("name,code,tree", bell_compat_cases())
    def test_dense_v1_form_verifies_with_the_same_hash(self, name, code, tree):
        result = run_spreading(code, tree)
        outcomes = [s.protocol.k**2 - 1 for s in result.steps]
        doc = spread_trace(code, tree, result, outcomes=outcomes)
        if name == "qutrits-line":
            assert max(s.protocol.k for s in result.steps) == 18
        named = verify_trace(doc)
        dense = verify_trace(as_dense_v1(doc))
        assert named["passed"] and dense["passed"]
        assert dense["replayed_hash"] == named["replayed_hash"] == doc["final_state"]["hash"]

    def test_bytes_do_not_hang_on_the_table_cache(self, five_line):
        code, tree = five_line
        warm = trace_json(spread_trace(code, tree, run_spreading(code, tree)))
        merge_split._shared.cache_clear()
        cold = spread_trace(code, tree, run_spreading(code, tree))
        assert trace_json(cold) == warm
        merge_split._shared.cache_clear()
        assert verify_trace(json.loads(warm))["passed"]

    def test_reader_resolves_names_to_the_shared_basis(self, five_line, five_spread):
        code, tree = five_line
        doc = spread_trace(code, tree, five_spread)
        ops = _ops_from_doc(doc["operators"], named=True)
        named = {ref: item["bell"] for ref, item in doc["operators"].items() if "bell" in item}
        assert named and all(ops[ref] is _bell_basis(k) for ref, k in named.items())
        assert trace_mod._bell_basis is _bell_basis and trace_mod.MAX_BELL_ENTRIES is config.MAX_BELL_ENTRIES

    def test_writer_and_reader_share_the_bound(self, monkeypatch, five_line, five_spread):
        assert _bell_k(32**2, 32**2) == 32 and 32**4 == MAX_BELL_ENTRIES
        assert _bell_k(33**2, 33**2) is None
        assert _bell_k(1, 1) is None and _bell_k(16, 8) is None
        code, tree = five_line
        monkeypatch.setattr(trace_mod, "MAX_BELL_ENTRIES", 4**4 - 1)
        doc = spread_trace(code, tree, five_spread)
        assert sorted(i["bell"] for i in doc["operators"].values() if "bell" in i) == [2]
        assert verify_trace(doc)["passed"]
        ref = next(r for r, i in doc["operators"].items() if "bell" in i)
        doc["operators"][ref] = {"bell": 4}
        with pytest.raises(SchemaError, match="bell must be an integer"):
            verify_trace(doc)
