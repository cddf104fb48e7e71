"""Random-input channel replay checks for stored protocols."""

import numpy as np
import oracles
import pytest

from treecast.codes import (
    five_qubit_code,
    ghz_code,
    identity_code,
    random_code,
    star4_code,
)
from treecast.errors import InputError
from treecast.network import line_tree, star_tree
from treecast.protocols import run_concentrating, run_spreading
from treecast.verification import (
    trace_distance,
    verify_channels,
    verify_concentrating_channel,
    verify_spreading_channel,
)

TOL = 1e-8


class TestChannelReplay:
    def test_five_qubit_both_directions(self):
        checks = verify_channels(five_qubit_code(), line_tree(5), samples=6)
        for check in checks.values():
            assert check.passed
            assert check.max_trace_distance <= 1e-10
            assert check.max_probability_deviation <= 1e-10
            assert check.paths_per_sample == 3
        assert checks["spread"].direction == "spread"
        assert checks["concentrate"].direction == "concentrate"

    def test_star4_both_directions(self):
        checks = verify_channels(star4_code(), star_tree(4), samples=6)
        assert all(c.passed for c in checks.values())

    def test_ghz_both_directions(self):
        checks = verify_channels(ghz_code(3), line_tree(3), samples=6)
        assert all(c.passed for c in checks.values())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_codes(self, seed):
        rng = np.random.default_rng(seed)
        code = random_code(rng, 2, (2, 2, 2))
        checks = verify_channels(code, line_tree(3), samples=5, seed=seed)
        assert all(c.passed for c in checks.values())

    def test_single_vertex(self):
        checks = verify_channels(identity_code(2, 1), line_tree(1), samples=4)
        assert all(c.passed for c in checks.values())

    def test_accepts_prebuilt_results(self):
        code, tree = star4_code(), star_tree(4)
        sp = run_spreading(code, tree)
        con = run_concentrating(code, tree)
        assert verify_spreading_channel(code, tree, sp, samples=3).passed
        assert verify_concentrating_channel(code, tree, con, samples=3).passed


    def test_spreading_labelings_out_of_party_order(self):
        # mixed party dimensions, so a register mix-up changes the marginal's shape
        code = random_code(np.random.default_rng(31), 2, (2, 3, 2, 2))
        tree = star_tree(4)
        for labeling in tree.ascending_labelings():
            check = verify_spreading_channel(code, tree, labeling=labeling, samples=2)
            assert check.max_trace_distance <= 1e-10, labeling
        check = verify_spreading_channel(
            five_qubit_code(), star_tree(5), labeling=("v1", "v4", "v2", "v3", "v5"), samples=3
        )
        assert check.max_trace_distance <= 1e-10


def _wrong_five():
    return random_code(np.random.default_rng(9), 2, (2,) * 5)


# (stored code, tree, run options, code the check is given)
STACKED_INPUTS = {
    "five_qubit-line": (five_qubit_code, lambda: line_tree(5), {}, None),
    "five_qubit-line-fallback-sampled": (
        five_qubit_code,
        lambda: line_tree(5),
        {"mode": "fallback", "branch_budget": 20, "seed": 2},
        None,
    ),
    "star4": (star4_code, lambda: star_tree(4), {}, None),
    "ghz3-line": (lambda: ghz_code(3), lambda: line_tree(3), {"mode": "fallback"}, None),
    "single-vertex": (lambda: identity_code(2, 1), lambda: line_tree(1), {}, None),
    "random-line3": (
        lambda: random_code(np.random.default_rng(0), 2, (2, 2, 2)), lambda: line_tree(3), {}, None
    ),
    "random-qutrit-star3": (
        lambda: random_code(np.random.default_rng(5), 3, (3, 3, 2)),
        lambda: star_tree(3),
        {"mode": "fallback"},
        None,
    ),
    "wrong-code": (five_qubit_code, lambda: line_tree(5), {}, _wrong_five),
}


class TestStackedConcentratingCheck:
    @pytest.mark.parametrize("name", STACKED_INPUTS)
    def test_matches_the_per_sample_walk(self, name, monkeypatch):
        # the samples ride the reference register; the former walk, one per
        # (sample, path), must report the same figures from the same draws
        make_code, make_tree, kwargs, make_checked = STACKED_INPUTS[name]
        code, tree = make_code(), make_tree()
        stored = run_concentrating(code, tree, **kwargs)
        checked = make_checked() if make_checked else code
        generators = []
        real = np.random.default_rng

        def recording(seed):
            generators.append(real(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recording)
        got = verify_concentrating_channel(checked, tree, stored, samples=5, seed=7)
        ref = oracles.verify_concentrating_channel(checked, tree, stored, samples=5, seed=7)
        monkeypatch.undo()
        assert abs(got.max_trace_distance - ref.max_trace_distance) <= 1e-12
        assert abs(got.max_probability_deviation - ref.max_probability_deviation) <= 1e-12
        assert (got.passed, got.paths_per_sample, got.samples) == (
            ref.passed,
            ref.paths_per_sample,
            ref.samples,
        )
        assert got.passed == (make_checked is None)
        first, second = generators
        assert first.bit_generator.state == second.bit_generator.state

    def test_refuses_zero_samples(self):
        # both channel checks, and the branch budget: none of them may
        # pass having checked nothing
        code, tree = star4_code(), star_tree(4)
        for check in (verify_spreading_channel, verify_concentrating_channel):
            for samples in (0, -3):
                with pytest.raises(InputError, match="at least one sample"):
                    check(code, tree, samples=samples)
        for budget in (0, -3):
            with pytest.raises(InputError, match=f"at least one branch, not {budget}"):
                run_concentrating(code, tree, branch_budget=budget)


class TestNegativeControls:
    def test_wrong_code_spreading_fails(self):
        tree = line_tree(5)
        stored = run_spreading(five_qubit_code(), tree)
        wrong = random_code(np.random.default_rng(9), 2, (2,) * 5)
        check = verify_spreading_channel(wrong, tree, stored, samples=3)
        assert not check.passed
        assert check.max_trace_distance >= 0.1

    def test_wrong_code_concentrating_fails(self):
        tree = line_tree(5)
        stored = run_concentrating(five_qubit_code(), tree)
        wrong = random_code(np.random.default_rng(9), 2, (2,) * 5)
        check = verify_concentrating_channel(wrong, tree, stored, samples=3)
        assert not check.passed
        assert check.max_trace_distance >= 0.1


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert abs(trace_distance(a, b) - 1.0) <= 1e-12

    def test_identical(self):
        rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        assert trace_distance(rho, rho) == 0.0
