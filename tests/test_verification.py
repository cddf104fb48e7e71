"""Random-input channel replay checks for stored protocols."""

import numpy as np
import pytest

from treecast.codes import (
    five_qubit_code,
    ghz_code,
    identity_code,
    random_code,
    star4_code,
)
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
