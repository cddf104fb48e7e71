"""Command-line interface: golden outputs, exit codes, determinism."""

import argparse
import json
import math

import numpy as np
import pytest

import treecast.cli as cli
import treecast.trace as trace_mod
from treecast.cli import main
from treecast.errors import SynthesisFailed

FIVE_SPREAD_KS = {"v2": 4, "v3": 8, "v4": 4, "v5": 2}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out)


def edge_ks(doc):
    return {e["child"]: e["k"] for e in doc["cost_report"]["edges"]}


@pytest.fixture
def star_labeled_tree(tmp_path):
    path = tmp_path / "star.json"
    path.write_text(
        json.dumps(
            {
                "root": "v1",
                "edges": [["v1", "v2"], ["v1", "v3"], ["v1", "v4"]],
                "labeling": ["v1", "v3", "v2", "v4"],
            }
        )
    )
    return str(path)


class TestCostCommands:
    def test_cost_spread_golden(self, capsys):
        code, doc = run_json(
            capsys, "cost-spread", "--code", "five_qubit", "--tree", "line:5"
        )
        assert code == 0
        assert doc["format"] == "treecast.report/1"
        assert edge_ks(doc) == FIVE_SPREAD_KS
        logs = [e["log2"] for e in doc["cost_report"]["edges"]]
        assert logs == [2, 3, 2, 1]
        assert all(isinstance(v, int) for v in logs)
        assert isinstance(doc["cost_report"]["total_log2"], int)
        assert doc["cost_report"]["total_log2"] == 8
        assert doc["lower_bound"]["verdict"] == "tight"
        assert doc["labeling"] == ["v1", "v2", "v3", "v4", "v5"]
        assert doc["config"]["seed"] == 0

    def test_cost_spread_human(self, capsys):
        code, out, _ = run(
            capsys, "cost-spread", "--code", "five_qubit", "--tree", "line:5"
        )
        assert code == 0
        assert "total log2: 8" in out
        assert "lower bound: tight" in out

    def test_cost_concentrate_star_default(self, capsys):
        code, doc = run_json(
            capsys, "cost-concentrate", "--code", "star4", "--tree", "star:4"
        )
        assert code == 0
        assert edge_ks(doc) == {"v2": 2, "v3": 1, "v4": 1}
        assert doc["cost_report"]["total_log2"] == 1

    def test_cost_concentrate_given_labeling(self, capsys, star_labeled_tree):
        code, doc = run_json(
            capsys,
            "cost-concentrate",
            "--code",
            "star4",
            "--tree",
            star_labeled_tree,
            "--labeling",
            "given",
        )
        assert code == 0
        assert doc["labeling"] == ["v1", "v3", "v2", "v4"]
        assert edge_ks(doc) == {"v2": 1, "v3": 2, "v4": 1}

    def test_cost_concentrate_search(self, capsys):
        code, doc = run_json(
            capsys,
            "cost-concentrate",
            "--code",
            "star4",
            "--tree",
            "star:4",
            "--labeling",
            "search",
        )
        assert code == 0
        assert doc["labeling_search"]["candidates"] == 6
        assert doc["labeling_search"]["best_total_log2"] == 1
        assert doc["cost_report"]["total_log2"] == 1

    @pytest.mark.parametrize("task", ["cost-concentrate", "compare"])
    def test_search_report_is_reused(self, capsys, monkeypatch, task):
        # the winner's report comes from the search; no second synthesis runs
        from treecast import cli

        def no_rerun(*args, **kwargs):
            raise AssertionError("concentrating_cost ran again after the search")

        monkeypatch.setattr(cli, "concentrating_cost", no_rerun)
        argv = (task, "--code", "star4", "--tree", "star:4", "--labeling", "search")
        code, doc = run_json(capsys, *argv)
        assert code == 0
        report = doc["cost_report"] if task == "cost-concentrate" else doc["concentrate"]
        assert report["total_log2"] == 1
        assert doc["labeling"] == ["v1", "v2", "v3", "v4"]

    def test_search_ignores_branches_and_seed(self, capsys):
        # the search follows one branch per merged set, so the branch policy
        # and seed are checked and echoed but change no part of the result
        argv = ("cost-concentrate", "--code", "five_qubit", "--tree", "star:5",
                "--labeling", "search")
        docs = []
        for extra in (("--branches", "all"), ("--branches", "sample:2", "--seed", "9")):
            code, doc = run_json(capsys, *argv, *extra)
            assert code == 0
            docs.append(doc)
        for key in ("cost_report", "labeling_search", "labeling"):
            assert docs[0][key] == docs[1][key]
        assert (docs[1]["config"]["branches"], docs[1]["config"]["seed"]) == ("sample:2", 9)
        code, doc = run_json(capsys, *argv, "--branches", "sample:0")
        assert code == 2
        assert doc["error"]["type"] == "InputError"

    def test_paren_builtins_parse(self, capsys):
        code, doc = run_json(
            capsys, "cost-spread", "--code", "ghz(3)", "--tree", "line:3"
        )
        assert code == 0
        assert doc["cost_report"]["total_log2"] == 2


class TestRunCommands:
    def test_run_spread_with_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "spread.trace.json"
        code, doc = run_json(
            capsys,
            "run-spread",
            "--code",
            "five_qubit",
            "--tree",
            "line:5",
            "--trace-out",
            str(trace_path),
        )
        assert code == 0
        assert doc["verification"]["passed"] is True
        assert doc["verification"]["channel"]["samples"] == 20
        assert doc["trace"]["verify"]["passed"] is True
        assert doc["trace"]["written_to"] == str(trace_path)
        assert edge_ks(doc) == FIVE_SPREAD_KS
        assert trace_path.exists()
        code2, _, _ = run(capsys, "verify-trace", str(trace_path))
        assert code2 == 0

    def test_run_spread_labeling_out_of_party_order(self, capsys, tmp_path):
        # the splits leave the registers in labeling order (v1 v4 v2 v3 v5);
        # the channel check must compare marginals in one order
        path = tmp_path / "star5.json"
        path.write_text(
            json.dumps(
                {
                    "root": "v1",
                    "edges": [["v1", "v2"], ["v1", "v3"], ["v1", "v4"], ["v1", "v5"]],
                    "labeling": ["v1", "v4", "v2", "v3", "v5"],
                }
            )
        )
        code, doc = run_json(
            capsys, "run-spread", "--code", "five_qubit", "--tree", str(path), "--labeling", "given"
        )
        assert code == 0
        assert doc["labeling"] == ["v1", "v4", "v2", "v3", "v5"]
        assert doc["verification"]["channel"]["max_trace_distance"] < 1e-12
        assert doc["verification"]["passed"] is True

    def test_run_concentrate_sampled(self, capsys):
        code, doc = run_json(
            capsys,
            "run-concentrate",
            "--code",
            "five_qubit",
            "--tree",
            "line:5",
            "--branches",
            "sample:5",
            "--seed",
            "7",
        )
        assert code == 0
        assert doc["mode"] == "tight"
        assert doc["branches"]["count"] == 5
        assert doc["branches"]["explored_all"] is False
        assert doc["branches"]["coverage"] == pytest.approx(5 / 16)
        assert doc["branches"]["min_fidelity"] == pytest.approx(1.0)
        assert doc["verification"]["passed"] is True

    def test_run_concentrate_exhaustive(self, capsys):
        code, doc = run_json(
            capsys, "run-concentrate", "--code", "star4", "--tree", "star:4"
        )
        assert code == 0
        assert doc["branches"]["explored_all"] is True
        assert doc["branches"]["coverage"] == pytest.approx(1.0)
        assert doc["branches"]["fallback_edges"] == []
        assert doc["cost_report"]["total_log2"] == 1

    def test_compare(self, capsys):
        code, doc = run_json(
            capsys, "compare", "--code", "star4", "--tree", "star:4"
        )
        assert code == 0
        assert doc["concentrate_never_exceeds"] is True
        for row in doc["edges"]:
            assert row["concentrate_leq_spread"] is True
            assert row["concentrate_k"] <= row["spread_k"]
        assert doc["spread"]["total_log2"] == 3
        assert doc["concentrate"]["total_log2"] == 1


class TestKi:
    def test_ki_from_prefix_nontrivial_block(self, capsys):
        code, doc = run_json(
            capsys,
            "ki",
            "--code",
            "star4",
            "--tree",
            "star:4",
            "--prefix",
            "0,0",
        )
        assert code == 0
        assert doc["K"] == 2
        assert doc["log2_K"] == 1
        (block,) = doc["blocks"]
        assert block["dimL_A"] == 1
        assert block["dimR_A"] == 2
        assert block["lambda0"] == pytest.approx(1.0)

    def test_ki_from_prefix_scalar_blocks(self, capsys):
        code, doc = run_json(
            capsys,
            "ki",
            "--code",
            "five_qubit",
            "--tree",
            "line:5",
            "--prefix",
            "0,0,0",
        )
        assert code == 0
        assert doc["K"] == 1
        assert len(doc["blocks"]) == 2
        for block in doc["blocks"]:
            assert block["p"] == pytest.approx(0.5)
            assert block["dimL_A"] == block["dimR_A"] == 1
            assert block["dimL_B"] == block["dimR_B"] == 1

    def test_ki_state_file_full_qubit_on_a(self, capsys, tmp_path):
        # A holds the entire logical qubit: merging it away costs a teleport
        s = 0.5 ** 0.5
        spec = {
            "registers": [
                {"id": "R", "dim": 2, "owner": "reference"},
                {"id": "a", "dim": 2, "owner": "A"},
                {"id": "b", "dim": 2, "owner": "B"},
            ],
            "amplitudes": [
                [s, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                [0.0, 0.0], [0.0, 0.0], [s, 0.0], [0.0, 0.0],
            ],
            "roles": {"R": ["R"], "A": ["a"], "B": ["b"]},
        }
        path = tmp_path / "state.json"
        path.write_text(json.dumps(spec))
        code, doc = run_json(capsys, "ki", "--state", str(path))
        assert code == 0
        assert doc["A"] == ["a"]
        assert doc["K"] == 2
        assert doc["log2_K"] == 1
        (block,) = doc["blocks"]
        assert block["dimR_A"] == 2
        assert block["lambda0"] == pytest.approx(1.0)

    def test_ki_state_file_junk_bell_pair_is_free(self, capsys, tmp_path):
        # logical qubit already at B; A only holds half of a junk Bell
        # pair, whose maximally mixed redundancy merges for free
        spec = {
            "registers": [
                {"id": "R", "dim": 2, "owner": "reference"},
                {"id": "a", "dim": 2, "owner": "A"},
                {"id": "bl", "dim": 2, "owner": "B"},
                {"id": "bj", "dim": 2, "owner": "B"},
            ],
            "amplitudes": [
                [0.5, 0.0] if idx in (0, 5, 10, 15) else [0.0, 0.0]
                for idx in range(16)
            ],
            "roles": {"R": ["R"], "A": ["a"], "B": ["bl", "bj"]},
        }
        path = tmp_path / "state.json"
        path.write_text(json.dumps(spec))
        code, doc = run_json(capsys, "ki", "--state", str(path))
        assert code == 0
        assert doc["K"] == 1
        assert doc["log2_K"] == 0
        (block,) = doc["blocks"]
        assert block["lambda0"] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--branches", "bogus"),
            ("--mode", "fallback"),
            ("--labeling", "search"),
            ("--prefix", "1,0"),
            ("--seed", "5"),
            ("--code", "five_qubit"),
            ("--tree", "line:5"),
        ],
    )
    def test_ki_state_refuses_unread_flags(self, capsys, tmp_path, flag, value):
        # the --state path reads only the state file and --tol-rank; a flag
        # it would ignore is refused instead of echoed in the report
        s = 0.5 ** 0.5
        spec = {
            "registers": [
                {"id": "R", "dim": 2, "owner": "reference"},
                {"id": "a", "dim": 2, "owner": "A"},
                {"id": "b", "dim": 2, "owner": "B"},
            ],
            "amplitudes": [[s, 0.0]] + [[0.0, 0.0]] * 6 + [[s, 0.0]],
            "roles": {"R": ["R"], "A": ["a"], "B": ["b"]},
        }
        path = tmp_path / "state.json"
        path.write_text(json.dumps(spec))
        code, doc = run_json(capsys, "ki", "--state", str(path), flag, value)
        assert code == 2
        assert doc["format"] == "treecast.error/1"
        assert doc["error"]["type"] == "InputError"
        assert flag in doc["error"]["message"]
        code, doc = run_json(capsys, "ki", "--state", str(path), "--tol-rank", "1e-9")
        assert code == 0
        assert doc["K"] == 1

    @pytest.mark.parametrize(
        "damage",
        [
            lambda spec: spec["registers"][1].pop("id"),
            lambda spec: spec["registers"][1].update(dim="x"),
            lambda spec: spec["registers"][1].update(dim=2.7),
            lambda spec: spec.update(registers=5),
            lambda spec: spec["amplitudes"].__setitem__(0, ["a", "b"]),
        ],
        ids=["no-id", "dim-string", "dim-float", "registers-int", "amplitude-strings"],
    )
    def test_ki_state_file_schema_errors(self, capsys, tmp_path, damage):
        # a malformed state file is a schema error (exit 2), not a traceback
        s = 0.5 ** 0.5
        spec = {
            "registers": [
                {"id": "R", "dim": 2, "owner": "reference"},
                {"id": "a", "dim": 2, "owner": "A"},
                {"id": "b", "dim": 2, "owner": "B"},
            ],
            "amplitudes": [[s, 0.0]] + [[0.0, 0.0]] * 6 + [[s, 0.0]],
            "roles": {"R": ["R"], "A": ["a"], "B": ["b"]},
        }
        damage(spec)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(spec))
        code, doc = run_json(capsys, "ki", "--state", str(path))
        assert code == 2
        assert doc["format"] == "treecast.error/1"
        assert doc["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("extra", [58, 70])
    def test_ki_state_file_register_bound(self, capsys, tmp_path, monkeypatch, extra):
        # a Bell pair on (a, b), R trivial, plus dimension-1 registers: 61
        # or more registers are refused before any state is built (73 axes
        # crashed NumPy's reshape); 60 still decompose
        s = 0.5 ** 0.5
        trivial = [{"id": f"t{k}", "dim": 1} for k in range(extra)]
        spec = {
            "registers": [{"id": "R", "dim": 1}, {"id": "a", "dim": 2}, {"id": "b", "dim": 2}, *trivial],
            "amplitudes": [[s, 0.0], 0.0, 0.0, [s, 0.0]],
            "roles": {"R": ["R"], "A": ["a"], "B": ["b", *(t["id"] for t in trivial)]},
        }
        path = tmp_path / "state.json"
        path.write_text(json.dumps(spec))
        if extra + 3 <= 60:
            code, doc = run_json(capsys, "ki", "--state", str(path))
            assert (code, doc["K"]) == (0, 1)
            return
        built = []
        monkeypatch.setattr(cli, "PureState", lambda *args: built.append(args))
        code, doc = run_json(capsys, "ki", "--state", str(path))
        assert code == 2
        assert doc["format"] == "treecast.error/1"
        assert doc["error"]["type"] == "TooLarge"
        assert "more than 60 registers" in doc["error"]["message"]
        assert built == []

    def test_ki_requires_inputs(self, capsys):
        code, doc = run_json(capsys, "ki")
        assert code == 2
        assert "needs either" in doc["error"]["message"]

    def test_ki_prefix_too_long(self, capsys):
        code, doc = run_json(
            capsys,
            "ki",
            "--code",
            "star4",
            "--tree",
            "star:4",
            "--prefix",
            "0,0,0",
        )
        assert code == 2
        # not a number, negative, and outside the first stage's two outcomes
        for prefix in ("a", "-1", "5"):
            code, doc = run_json(
                capsys, "ki", "--code", "ghz:3", "--tree", "line:3", "--prefix", prefix
            )
            assert code == 2
            assert doc["error"]["type"] == "InputError"

    def test_ki_prefix_of_zero_probability(self, capsys):
        # v3 of product:2,2,2 holds a fixed |0>: outcome 1 of its merge never occurs
        code, doc = run_json(
            capsys, "ki", "--code", "product:2,2,2", "--tree", "line:3", "--prefix", "1"
        )
        assert code == 2
        assert doc["error"]["type"] == "InputError"
        assert doc["error"]["message"] == "stage 3 outcome 1 has zero probability"

    @pytest.mark.parametrize("prefix", [(), ("--prefix", "0")])
    def test_ki_refuses_a_code_that_does_not_fit_the_tree(self, capsys, prefix):
        # five_qubit has five parties and line:4 four vertices
        code, doc = run_json(capsys, "ki", "--code", "five_qubit", "--tree", "line:4", *prefix)
        assert code == 2
        assert doc["error"]["type"] == "UnknownEdge"

    def test_ki_ignores_branches_and_seed(self, capsys):
        # ki follows the branch --prefix names, so a branch sample that would
        # not keep it changes nothing; both flags are still checked
        argv = ("ki", "--code", "five_qubit", "--tree", "line:5", "--prefix", "1,1")
        docs = []
        for extra in ((), ("--branches", "sample:2"), ("--branches", "sample:1", "--seed", "5")):
            code, doc = run_json(capsys, *argv, *extra)
            assert code == 0
            docs.append({k: doc[k] for k in ("A", "K", "blocks", "stage")})
        assert docs[1:] == docs[:1] * 2
        code, doc = run_json(capsys, *argv, "--branches", "sample:0")
        assert code == 2


class TestErrorsAndExitCodes:
    def test_unknown_builtin(self, capsys):
        code, doc = run_json(
            capsys, "cost-spread", "--code", "magic(3)", "--tree", "line:3"
        )
        assert code == 2
        assert doc["format"] == "treecast.error/1"
        assert doc["error"]["type"] == "UnknownBuiltin"

    def test_non_isometry_code_file(self, capsys, tmp_path):
        path = tmp_path / "bad-code.json"
        path.write_text(
            json.dumps(
                {
                    "D": 2,
                    "parties": [{"name": "p1", "dim": 2}],
                    "entries": [[0, 0, 1.0, 0.0], [1, 1, 0.7, 0.0]],
                }
            )
        )
        code, doc = run_json(
            capsys, "cost-spread", "--code", str(path), "--tree", "line:1"
        )
        assert code == 2
        assert doc["error"]["type"] == "NotIsometry"

    def test_oversized_builtin_refused(self, capsys):
        # 2·2**64 entries: refused by the size cap before any array is built
        code, doc = run_json(capsys, "cost-spread", "--code", "ghz:64", "--tree", "line:64")
        assert code == 2
        assert doc["format"] == "treecast.error/1"
        assert doc["error"]["type"] == "TooLarge"

    def test_search_past_the_merged_set_bound_refused(self, capsys, monkeypatch):
        # star:12 has 2^11 merged sets, one past the search's bound of 1,024
        from treecast import protocols

        monkeypatch.setattr(protocols, "_concentrate_stage", None)  # any stage would fail
        for task in ("cost-concentrate", "compare", "run-concentrate", "ki"):
            code, doc = run_json(capsys, task, "--code", "ghz:12", "--tree", "star:12", "--labeling", "search")
            assert code == 2
            assert doc["format"] == "treecast.error/1"
            assert doc["error"]["type"] == "TooLarge"
            assert "2048 merged sets" in doc["error"]["message"]

    def test_oversized_code_file_refused(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        parties = [{"name": "p1", "dim": 2**32}, {"name": "p2", "dim": 2**32}]
        path.write_text(json.dumps({"D": 2, "parties": parties, "entries": []}))
        code, doc = run_json(capsys, "cost-spread", "--code", str(path), "--tree", "p1-p2")
        assert code == 2
        assert doc["error"]["type"] == "TooLarge"

    def test_code_past_the_party_bound_refused(self, capsys, tmp_path):
        # product:2,1,…,1 with 70 parties: a 2 × 2 matrix, but rows over R
        # and 70 parties have 72 axes, past NumPy's 64; refused at load
        path = tmp_path / "wide.json"
        parties = [{"name": f"v{k}", "dim": 2 if k == 1 else 1} for k in range(1, 71)]
        entries = [[0, 0, 1.0, 0.0], [1, 1, 1.0, 0.0]]
        path.write_text(json.dumps({"D": 2, "parties": parties, "entries": entries}))
        code, doc = run_json(capsys, "cost-spread", "--code", str(path), "--tree", "line:70")
        assert code == 2
        assert doc["format"] == "treecast.error/1"
        assert doc["error"]["type"] == "TooLarge"
        assert "more than 60 parties" in doc["error"]["message"]

    def test_tree_past_the_party_bound_refused(self, capsys, tmp_path):
        # a tree needs one code party per vertex, so 61 vertices can never
        # run: refused as TooLarge, not as a party mismatch with the code
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"root": "v1", "edges": [["v1", f"v{k}"] for k in range(2, 63)]}))
        edge_list = ",".join(f"v{k}-v{k + 1}" for k in range(1, 61))
        for tree in ("line:61", "star:61", edge_list, str(path)):
            code, doc = run_json(capsys, "cost-spread", "--code", "ghz:3", "--tree", tree)
            assert code == 2
            assert doc["format"] == "treecast.error/1"
            assert doc["error"]["type"] == "TooLarge"
            assert "more than 60 vertices" in doc["error"]["message"]

    @pytest.mark.parametrize("tree", ["line:60", "star:60"])
    def test_code_at_the_party_bound_runs(self, capsys, tmp_path, tree):
        # 60 parties, a GHZ pair on v1 and v60: the K = 2 split to v60 holds
        # rows over R, 59 parties, the buffer, A₀ and B₀ (64 axes)
        path = tmp_path / "wide.json"
        parties = [{"name": f"v{k}", "dim": 2 if k in (1, 60) else 1} for k in range(1, 61)]
        entries = [[0, 0, 1.0, 0.0], [3, 1, 1.0, 0.0]]
        path.write_text(json.dumps({"D": 2, "parties": parties, "entries": entries}))
        trace = str(tmp_path / "spread.json")
        code, doc = run_json(capsys, "run-spread", "--code", str(path), "--tree", tree, "--trace-out", trace)
        assert code == 0 and edge_ks(doc)["v60"] == 2
        code, doc = run_json(capsys, "verify-trace", trace)
        assert code == 0

    def test_labeling_given_violations(self, capsys, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(
            json.dumps(
                {
                    "root": "v1",
                    "edges": [["v1", "v2"], ["v2", "v3"]],
                    "labeling": ["v2", "v1", "v3"],
                }
            )
        )
        code, doc = run_json(
            capsys,
            "cost-spread",
            "--code",
            "ghz(3)",
            "--tree",
            str(path),
            "--labeling",
            "given",
        )
        assert code == 2
        assert doc["error"]["type"] == "NotAscending"

    def test_labeling_given_requires_field(self, capsys):
        code, doc = run_json(
            capsys,
            "cost-spread",
            "--code",
            "ghz(3)",
            "--tree",
            "line:3",
            "--labeling",
            "given",
        )
        assert code == 2

    def test_bad_branches_and_seed(self, capsys):
        code, doc = run_json(
            capsys,
            "run-concentrate",
            "--code",
            "star4",
            "--tree",
            "star:4",
            "--branches",
            "sample:0",
        )
        assert code == 2
        code, doc = run_json(
            capsys,
            "cost-spread",
            "--code",
            "star4",
            "--tree",
            "star:4",
            "--seed",
            str(2**64),
        )
        assert code == 2

    def test_dimension_mismatch(self, capsys):
        code, doc = run_json(
            capsys, "cost-spread", "--code", "five_qubit", "--tree", "line:3"
        )
        assert code == 2
        for spec in ("product:0,2", "product:2,0", "identity:0:1"):
            code, doc = run_json(capsys, "cost-spread", "--code", spec, "--tree", "line:2")
            assert code == 2
            assert doc["error"]["type"] == "DimensionMismatch"

    def test_synthesis_failure_maps_to_3(self, capsys, monkeypatch):
        from treecast import cli as cli_mod

        def boom(args):
            raise SynthesisFailed("no exact strategy under budget")

        monkeypatch.setitem(cli_mod._HANDLERS, "cost-spread", boom)
        code, doc = run_json(
            capsys, "cost-spread", "--code", "star4", "--tree", "star:4"
        )
        assert code == 3
        assert doc["error"]["type"] == "SynthesisFailed"

    def test_memory_error_maps_to_2(self, capsys, monkeypatch):
        from treecast import cli as cli_mod

        def boom(args):
            raise MemoryError("Unable to allocate 97.0 GiB")

        monkeypatch.setitem(cli_mod._HANDLERS, "run-concentrate", boom)
        code, doc = run_json(capsys, "run-concentrate", "--code", "star4", "--tree", "star:4")
        assert code == 2
        assert doc == {
            "format": "treecast.error/1",
            "error": {"type": "MemoryError", "message": "Unable to allocate 97.0 GiB"},
            "exit_code": 2,
        }

    def test_tampered_trace_fails_verification(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        code, _ = run_json(
            capsys,
            "run-spread",
            "--code",
            "star4",
            "--tree",
            "star:4",
            "--trace-out",
            str(trace_path),
        )
        assert code == 0
        doc = json.loads(trace_path.read_text())
        # the measurement and its broadcast, so the trace still reads
        at = next(i for i, e in enumerate(doc["events"]) if e["type"] == "measurement")
        for ev in doc["events"][at : at + 2]:
            ev["outcome"] = (ev["outcome"] + 1) % 4
        trace_path.write_text(json.dumps(doc))
        code, out = run_json(capsys, "verify-trace", str(trace_path))
        assert code == 4
        assert out["verdict"]["passed"] is False

    def test_malformed_trace(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{\"format\": \"other\"}")
        code, doc = run_json(capsys, "verify-trace", str(path))
        assert code == 2
        assert doc["error"]["type"] == "SchemaError"

    @pytest.fixture
    def spread_trace_doc(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        code, _ = run_json(
            capsys, "run-spread", "--code", "star4", "--tree", "star:4", "--trace-out", str(path)
        )
        assert code == 0
        return json.loads(path.read_text())

    @staticmethod
    def missing_operator(doc):
        ev = next(e for e in doc["events"] if e["type"] == "measurement")
        ev["basis"] = "op99"

    @staticmethod
    def event_not_an_object(doc):
        doc["events"][1] = 7

    @pytest.mark.parametrize("damage", ["missing_operator", "event_not_an_object"])
    def test_malformed_event_structured(self, capsys, tmp_path, spread_trace_doc, damage):
        getattr(self, damage)(spread_trace_doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spread_trace_doc))
        code, doc = run_json(capsys, "verify-trace", str(path))
        assert code == 2
        assert doc["format"] == "treecast.error/1"
        assert doc["error"]["type"] == "SchemaError"
        assert "malformed trace event" in doc["error"]["message"]

    @pytest.mark.parametrize("damage", ["missing_operator", "event_not_an_object"])
    def test_malformed_event_human(self, capsys, tmp_path, spread_trace_doc, damage):
        getattr(self, damage)(spread_trace_doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spread_trace_doc))
        code, out, err = run(capsys, "verify-trace", str(path))
        assert code == 2
        assert out == ""
        assert "SchemaError" in err and "malformed trace event" in err
        assert "Traceback" not in err

    @staticmethod
    def operator_without_shape(doc):
        del doc["operators"]["op0"]["shape"]

    @staticmethod
    def operators_as_list(doc):
        doc["operators"] = list(doc["operators"].values())

    @staticmethod
    def cost_report_without_edges(doc):
        del doc["cost_report"]["edges"]

    @staticmethod
    def final_state_without_hash(doc):
        del doc["final_state"]["hash"]

    @pytest.mark.parametrize(
        "damage, section",
        [
            ("operator_without_shape", "operators"),
            ("operators_as_list", "operators"),
            ("cost_report_without_edges", "cost_report"),
            ("final_state_without_hash", "final_state"),
        ],
    )
    def test_malformed_section(self, capsys, tmp_path, spread_trace_doc, damage, section):
        getattr(self, damage)(spread_trace_doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spread_trace_doc))
        code, doc = run_json(capsys, "verify-trace", str(path))
        assert code == 2
        assert doc["format"] == "treecast.error/1"
        assert doc["error"]["type"] == "SchemaError"
        assert f"malformed trace section {section!r}" in doc["error"]["message"]

    def test_events_must_be_a_list(self, capsys, tmp_path, spread_trace_doc):
        spread_trace_doc["events"] = 7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spread_trace_doc))
        code, doc = run_json(capsys, "verify-trace", str(path))
        assert code == 2
        assert doc["error"]["type"] == "SchemaError"

    @staticmethod
    def refused(capsys, tmp_path, trace_doc):
        """verify-trace exits 2 with a treecast.error/1 document and no traceback."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(trace_doc))
        code, out, err = run(capsys, "verify-trace", str(path), "--format", "structured")
        assert code == 2
        assert json.loads(out)["format"] == "treecast.error/1"
        assert "Traceback" not in err
        return json.loads(out)["error"]

    ENTRY_DAMAGE = {
        "string": lambda d: [["0.5", "0.0"]] + d[1:],
        "all-strings": lambda d: [[str(a), str(b)] for a, b in d],
        "null": lambda d: [None] + d[1:],
        "null-part": lambda d: [[None, 0.0]] + d[1:],
        "triple": lambda d: [[0.5, 0.0, 0.0]] + d[1:],
        "singleton": lambda d: [[0.5]] + d[1:],
        "deeper": lambda d: [[pair] for pair in d],
        "short": lambda d: d[:-1],
    }

    @pytest.mark.parametrize("damage", sorted(ENTRY_DAMAGE))
    def test_bad_operator_entries_refused(self, capsys, tmp_path, spread_trace_doc, damage):
        encoder = spread_trace_doc["operators"][spread_trace_doc["events"][0]["matrix"]]
        encoder["data"] = self.ENTRY_DAMAGE[damage](encoder["data"])
        error = self.refused(capsys, tmp_path, spread_trace_doc)
        assert error["type"] == "SchemaError"
        assert "operator" in error["message"]

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("measurement", "outcome", True),
            ("measurement", "outcome", "0"),
            ("measurement", "outcome", 0.9),
            ("measurement", "probability", "0.25"),
            ("broadcast", "outcome", 7),
        ],
    )
    def test_bad_outcomes_and_probabilities_refused(
        self, capsys, tmp_path, spread_trace_doc, kind, key, value
    ):
        # an outcome is a JSON integer that its broadcast repeats, and a
        # probability a JSON number
        next(e for e in spread_trace_doc["events"] if e["type"] == kind)[key] = value
        error = self.refused(capsys, tmp_path, spread_trace_doc)
        assert error["type"] == "SchemaError"

    @pytest.mark.parametrize("damage", sorted(ENTRY_DAMAGE))
    def test_bad_state_entries_refused(self, capsys, tmp_path, spread_trace_doc, damage):
        state = spread_trace_doc["initial_state"]
        state["amplitudes"] = self.ENTRY_DAMAGE[damage](state["amplitudes"])
        self.refused(capsys, tmp_path, spread_trace_doc)

    @staticmethod
    def named_bell(doc):
        return next(item for item in doc["operators"].values() if "bell" in item)

    @pytest.mark.parametrize("value", [0, -1, 2.5, "4", True])
    def test_bad_bell_values_refused(self, capsys, tmp_path, spread_trace_doc, value):
        self.named_bell(spread_trace_doc)["bell"] = value
        error = self.refused(capsys, tmp_path, spread_trace_doc)
        assert error["type"] == "SchemaError"
        assert "bell must be an integer" in error["message"]

    @staticmethod
    def size_fields(doc):
        """Where a trace records a size: (container, key) for each kind."""
        encoder = doc["operators"][doc["events"][0]["matrix"]]
        resource = next(e for e in doc["events"] if e["type"] == "resource-consumed")
        return {
            "state-dim": (doc["initial_state"]["registers"][0], "dim"),
            "event-dim": (doc["events"][0]["out"][0], "dim"),
            "shape": (encoder["shape"], 1),
            "resource-k": (resource, "k"),
            "edge-k": (doc["cost_report"]["edges"][0], "k"),
        }

    @pytest.mark.parametrize("value", [2.7, 2.0, "2", True, None, 0, -1])
    @pytest.mark.parametrize("field", ["state-dim", "event-dim", "shape", "resource-k", "edge-k"])
    def test_bad_sizes_refused(self, capsys, tmp_path, spread_trace_doc, field, value):
        container, key = self.size_fields(spread_trace_doc)[field]
        container[key] = value
        error = self.refused(capsys, tmp_path, spread_trace_doc)
        assert error["type"] == "SchemaError"
        assert f"must be an integer >= 1, got {value!r}" in error["message"]

    def test_numeric_string_and_float_shape_refused(self, capsys, tmp_path, spread_trace_doc):
        encoder = spread_trace_doc["operators"][spread_trace_doc["events"][0]["matrix"]]
        assert encoder["shape"] == [16, 2]
        encoder["shape"] = ["16", 2.9]
        error = self.refused(capsys, tmp_path, spread_trace_doc)
        assert error["type"] == "SchemaError"
        assert "shape must be an integer >= 1, got '16'" in error["message"]

    @pytest.mark.parametrize("value", [33, 10**9])
    def test_bell_past_the_bound_refused_before_allocating(
        self, capsys, tmp_path, monkeypatch, spread_trace_doc, value
    ):
        def allocate(k):
            raise AssertionError(f"Bell basis K = {k} was built")

        monkeypatch.setattr(trace_mod, "_bell_basis", allocate)
        self.named_bell(spread_trace_doc)["bell"] = value
        error = self.refused(capsys, tmp_path, spread_trace_doc)
        assert error["type"] == "SchemaError"
        assert "bell must be an integer" in error["message"]

    def test_bell_entry_in_format_1_refused(self, capsys, tmp_path, spread_trace_doc):
        assert spread_trace_doc["format"] == "treecast.trace/2"
        spread_trace_doc["format"] = "treecast.trace/1"
        error = self.refused(capsys, tmp_path, spread_trace_doc)
        assert error["type"] == "SchemaError"
        assert "has no bell entries" in error["message"]

    def test_human_errors_go_to_stderr(self, capsys):
        code, out, err = run(
            capsys, "cost-spread", "--code", "magic(3)", "--tree", "line:3"
        )
        assert code == 2
        assert out == ""
        assert "UnknownBuiltin" in err


class TestNumericalErrorsExitThree:
    def degenerate_state_file(self, tmp_path):
        # marginal eigenvalue ratio 1e-8 sits on the default rank cutoff
        eps = 1e-8 / (1 + 1e-8)
        spec = {
            "registers": [
                {"id": "R", "dim": 2, "owner": "reference"},
                {"id": "a", "dim": 2, "owner": "A"},
                {"id": "b", "dim": 2, "owner": "B"},
            ],
            "amplitudes": [
                [math.sqrt(1 - eps), 0.0] if idx == 0
                else [math.sqrt(eps), 0.0] if idx == 7
                else [0.0, 0.0]
                for idx in range(8)
            ],
            "roles": {"R": ["R"], "A": ["a"], "B": ["b"]},
        }
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_numerical_degeneracy_structured(self, capsys, tmp_path):
        code, doc = run_json(capsys, "ki", "--state", self.degenerate_state_file(tmp_path))
        assert code == 3
        assert doc["format"] == "treecast.error/1"
        assert doc["exit_code"] == 3
        assert doc["error"]["type"] == "NumericalDegeneracy"

    def test_numerical_degeneracy_human(self, capsys, tmp_path):
        code, out, err = run(capsys, "ki", "--state", self.degenerate_state_file(tmp_path))
        assert code == 3
        assert out == ""
        assert "NumericalDegeneracy" in err

    def test_linalg_error_maps_to_3(self, capsys, monkeypatch):
        from treecast import cli as cli_mod

        def boom(args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(cli_mod._HANDLERS, "cost-spread", boom)
        code, doc = run_json(capsys, "cost-spread", "--code", "star4", "--tree", "star:4")
        assert code == 3
        assert doc["format"] == "treecast.error/1"
        assert doc["error"] == {"type": "LinAlgError", "message": "SVD did not converge"}


class TestRankTolerance:
    """--tol-rank reaches compare and --labeling search, not only cost-*."""

    @pytest.fixture
    def sliver_code(self, tmp_path):
        # v2's share carries a 5e-11-weight sliver of the logical qubit: it
        # counts at --tol-rank 1e-14 and is cut at the default 1e-8
        a, b = math.sqrt(1 - 5e-11), math.sqrt(5e-11)
        path = tmp_path / "sliver.json"
        path.write_text(
            json.dumps(
                {
                    "D": 2,
                    "parties": [{"name": "v1", "dim": 2}, {"name": "v2", "dim": 2}],
                    "entries": [[0, 0, a, 0.0], [3, 0, b, 0.0], [2, 1, a, 0.0], [1, 1, b, 0.0]],
                }
            )
        )
        return str(path)

    def test_compare(self, capsys, sliver_code):
        argv = ("compare", "--code", sliver_code, "--tree", "line:2")
        code, doc = run_json(capsys, *argv, "--tol-rank", "1e-14")
        assert code == 0
        assert doc["edges"] == [
            {
                "parent": "v1",
                "child": "v2",
                "spread_k": 2,
                "concentrate_k": 2,
                "concentrate_leq_spread": True,
            }
        ]
        _, spread = run_json(capsys, "cost-spread", *argv[1:])
        assert edge_ks(spread) == {"v2": 1}
        code, doc = run_json(capsys, *argv)
        assert code == 3
        assert doc["error"]["type"] == "NumericalDegeneracy"

    def test_labeling_search(self, capsys, sliver_code):
        argv = ("cost-concentrate", "--code", sliver_code, "--tree", "line:2",
                "--labeling", "search")
        code, doc = run_json(capsys, *argv, "--tol-rank", "1e-14")
        assert code == 0
        assert edge_ks(doc) == {"v2": 2}
        assert doc["labeling_search"]["best_total_log2"] == 1
        code, doc = run_json(capsys, *argv)
        assert code == 3


class TestLossyRankCut:
    """A --tol-rank that cuts real weight is refused alike by every command."""

    @pytest.fixture
    def heavy_sliver_code(self, tmp_path):
        # v2's share carries a 1e-5-weight sliver: --tol-rank 1e-3 would cut it
        a, b = math.sqrt(1 - 1e-5), math.sqrt(1e-5)
        path = tmp_path / "heavy.json"
        path.write_text(
            json.dumps(
                {
                    "D": 2,
                    "parties": [{"name": "v1", "dim": 2}, {"name": "v2", "dim": 2}],
                    "entries": [[0, 0, a, 0.0], [3, 0, b, 0.0], [2, 1, a, 0.0], [1, 1, b, 0.0]],
                }
            )
        )
        return str(path)

    @pytest.mark.parametrize(
        "command",
        [
            ("cost-spread",),
            ("compare",),
            ("cost-concentrate", "--labeling", "search"),
            ("cost-concentrate", "--mode", "fallback"),
            ("run-spread",),
            ("run-concentrate",),
        ],
    )
    # at 1.5e-4 the sliver also sits inside Koashi-Imoto's ambiguity band
    # (cut/16, 16·cut): the lossy cut is refused before the band is tested
    @pytest.mark.parametrize("tol", ["1e-3", "1.5e-4"])
    def test_every_command_exits_2(self, capsys, heavy_sliver_code, command, tol):
        argv = (*command, "--code", heavy_sliver_code, "--tree", "line:2")
        code, doc = run_json(capsys, *argv, "--tol-rank", tol)
        assert code == 2
        assert doc["format"] == "treecast.error/1"
        assert doc["error"]["type"] == "InputError"
        assert "rank tolerance" in doc["error"]["message"]
        # a tolerance below the sliver counts it, and every command runs
        code, _ = run_json(capsys, *argv, "--tol-rank", "1e-7")
        assert code == 0


class TestSliverInsideRankBand:
    """A lossless cut with an eigenvalue inside (cut/16, 16·cut) is refused alike by every command."""

    # the 1e-5 sliver sits inside the band of a 5e-6 cut, which keeps it
    heavy_sliver_code = TestLossyRankCut.heavy_sliver_code

    @pytest.mark.parametrize(
        "command",
        [
            ("cost-spread",),
            ("compare",),
            ("cost-concentrate", "--labeling", "search"),
            ("cost-concentrate", "--mode", "fallback"),
            ("run-spread",),
            ("run-concentrate",),
        ],
    )
    def test_every_command_exits_3(self, capsys, heavy_sliver_code, command):
        argv = (*command, "--code", heavy_sliver_code, "--tree", "line:2", "--tol-rank", "5e-6")
        code, doc = run_json(capsys, *argv)
        assert code == 3
        assert doc["format"] == "treecast.error/1"
        assert doc["error"]["type"] == "NumericalDegeneracy"
        assert "rank tolerance band" in doc["error"]["message"]


class TestToleranceFlags:
    """Each tolerance flag is registered only on the subcommands that read it."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [("cost-spread", "--tol-rank", v) for v in ("nan", "inf", "-1", "0", "1")]
        + [("run-spread", "--tol-verify", v) for v in ("nan", "inf", "-1e-9", "0")],
    )
    def test_out_of_range_tolerance_exits_2(self, capsys, command, flag, value):
        code, doc = run_json(
            capsys, command, "--code", "star4", "--tree", "star:4", f"{flag}={value}"
        )
        assert code == 2
        assert doc["error"]["type"] == "InputError"
        assert flag in doc["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("cost-spread", "--code", "star4", "--tree", "star:4", "--tol-verify", "0.5"),
            ("cost-concentrate", "--code", "star4", "--tree", "star:4", "--tol-verify", "0.5"),
            ("compare", "--code", "star4", "--tree", "star:4", "--tol-verify", "0.5"),
            ("ki", "--code", "star4", "--tree", "star:4", "--tol-verify", "0.5"),
            ("verify-trace", "t.json", "--tol-rank", "0.9"),
        ],
    )
    def test_unread_flag_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_config_echoes_only_read_tolerances(self, capsys, tmp_path):
        trace = str(tmp_path / "t.json")
        _, doc = run_json(
            capsys, "run-spread", "--code", "star4", "--tree", "star:4",
            "--tol-verify", "1e-7", "--tol-rank", "1e-9", "--trace-out", trace,
        )
        assert doc["config"]["tol_verify"] == 1e-7
        assert doc["config"]["tol_rank"] == 1e-9
        _, doc = run_json(capsys, "verify-trace", trace, "--tol-verify", "1e-7")
        assert doc["config"]["tol_verify"] == 1e-7
        assert "tol_rank" not in doc["config"]
        _, doc = run_json(capsys, "compare", "--code", "star4", "--tree", "star:4")
        assert "tol_verify" not in doc["config"]
        assert "tol_rank" in doc["config"]


class TestConfigEcho:
    def test_config_holds_exactly_the_parsed_flags(self, capsys, tmp_path):
        # each subcommand's config echoes every flag its parser defines, by
        # destination, and nothing else: not the subcommand name, and not
        # the note ki keeps of the flags that were passed
        inputs = ("--code", "ghz:3", "--tree", "line:3")
        trace = str(tmp_path / "t.json")
        argvs = {
            "cost-spread": inputs,
            "cost-concentrate": inputs,
            "run-spread": (*inputs, "--trace-out", trace),
            "run-concentrate": inputs,
            "compare": inputs,
            "ki": (*inputs, "--seed", "3", "--tol-rank", "1e-9"),
            "verify-trace": (trace,),
        }
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(argvs)
        for command, argv in argvs.items():
            code, doc = run_json(capsys, command, *argv)
            assert code == 0
            dests = {
                a.dest for a in sub.choices[command]._actions if not isinstance(a, argparse._HelpAction)
            }
            assert set(doc["config"]) == dests, command
            assert "command" not in doc["config"] and "given" not in doc["config"]


class TestDeterminism:
    def test_structured_output_is_byte_stable(self, capsys):
        argv = (
            "run-concentrate",
            "--code",
            "five_qubit",
            "--tree",
            "line:5",
            "--branches",
            "sample:4",
            "--seed",
            "11",
        )
        _, out1, _ = run(capsys, *argv, "--format", "structured")
        _, out2, _ = run(capsys, *argv, "--format", "structured")
        assert out1 == out2

    def test_trace_files_are_byte_stable(self, capsys, tmp_path):
        paths = []
        for tag in ("a", "b"):
            p = tmp_path / f"{tag}.json"
            run(
                capsys,
                "run-spread",
                "--code",
                "five_qubit",
                "--tree",
                "line:5",
                "--seed",
                "3",
                "--trace-out",
                str(p),
                "--format",
                "structured",
            )
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestOneParserPerProcess:
    def test_reused_parser_prints_what_a_new_one_prints(self, capsys, monkeypatch, tmp_path):
        s = 0.5 ** 0.5
        spec = {
            "registers": [
                {"id": "R", "dim": 2, "owner": "reference"},
                {"id": "a", "dim": 2, "owner": "A"},
                {"id": "b", "dim": 2, "owner": "B"},
            ],
            "amplitudes": [[s, 0.0]] + [[0.0, 0.0]] * 6 + [[s, 0.0]],
            "roles": {"R": ["R"], "A": ["a"], "B": ["b"]},
        }
        path = tmp_path / "state.json"
        path.write_text(json.dumps(spec))
        calls = [
            ["ki", "--code", "five_qubit", "--tree", "line:5", "--prefix", "0"],
            # flags the call before passed must not count as passed here
            ["ki", "--state", str(path)],
            ["cost-spread", "--code", "five_qubit", "--tree", "line:5", "--labeling", "every"],
            ["cost-spread", "--code", "five_qubit", "--tree", "line:5"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects by exiting
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        reused = [outcome(argv) for argv in calls]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert cli._parser() is not cli._parser()
        assert reused == [outcome(argv) for argv in calls]
        assert [code for code, _, _ in reused] == [0, 0, ("exit", 2), 0]
        assert "invalid choice" in reused[2][2]
