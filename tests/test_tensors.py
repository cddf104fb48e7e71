"""Tensor-layer tests: oracles are naive loop implementations."""

import numpy as np
import pytest

from oracles import (
    canonical_phase,
    marginal_matrix,
    orthonormal_completion,
    random_state,
    same_bytes,
    states_equal_up_to_phase,
    tensor_product,
)
from treecast.errors import (
    BadPermutation,
    DuplicateRegister,
    ShapeMismatch,
    UnknownRegister,
)
from treecast.tensors import (
    LinearMap,
    PureState,
    Register,
    apply_event,
    apply_map,
    apply_rows,
    max_entangled_pair,
    overlap,
    permute_registers,
    project_onto,
    range_trace_distance,
    trace_distance,
)


def regs(*spec):
    return tuple(Register(i, d, o) for (i, d, o) in spec)


def test_mixed_radix_first_register_slowest():
    amps = np.zeros(6, dtype=complex)
    amps[5] = 1.0
    st = PureState(regs(("a", 2, "v1"), ("b", 3, "v1")), amps)
    # label (1,2) with dims (2,3): flat index 1*3 + 2 = 5
    assert st.tensor()[1, 2] == 1.0
    assert np.count_nonzero(st.tensor()) == 1


def test_tensor_product_against_naive_loops():
    rng = np.random.default_rng(7)
    a = random_state(regs(("a", 2, "v1"), ("b", 3, "v1")), rng)
    b = random_state(regs(("c", 2, "v2")), rng)
    joint = tensor_product(a, b)
    naive = np.zeros(12, dtype=complex)
    for i in range(6):
        for j in range(2):
            naive[i * 2 + j] = a.amplitudes[i] * b.amplitudes[j]
    assert np.allclose(joint.amplitudes, naive)
    assert joint.ids == ("a", "b", "c")


def test_tensor_product_rejects_duplicate_ids():
    rng = np.random.default_rng(0)
    a = random_state(regs(("a", 2, "v1")), rng)
    with pytest.raises(DuplicateRegister):
        tensor_product(a, a)


def test_permutation_round_trip_and_amplitude_relocation():
    rng = np.random.default_rng(11)
    st = random_state(regs(("a", 2, "v1"), ("b", 3, "v1"), ("c", 2, "v2")), rng)
    p = permute_registers(st, ["c", "a", "b"])
    assert p.ids == ("c", "a", "b")
    # entry lookup oracle: amplitude of joint label must be invariant
    for la in range(2):
        for lb in range(3):
            for lc in range(2):
                orig = st.amplitudes[(la * 3 + lb) * 2 + lc]
                perm = p.amplitudes[(lc * 2 + la) * 3 + lb]
                assert orig == pytest.approx(perm)
    back = permute_registers(p, ["a", "b", "c"])
    assert np.allclose(back.amplitudes, st.amplitudes)


def test_permutation_rejects_non_bijections():
    rng = np.random.default_rng(1)
    st = random_state(regs(("a", 2, "v1"), ("b", 2, "v1")), rng)
    with pytest.raises(BadPermutation):
        permute_registers(st, ["a", "a"])
    with pytest.raises(BadPermutation):
        permute_registers(st, ["a"])


def test_partial_trace_against_naive_sum():
    rng = np.random.default_rng(3)
    st = random_state(regs(("a", 2, "v1"), ("b", 3, "v1"), ("c", 2, "v2")), rng)
    rho = marginal_matrix(st, ["c", "a"])
    t = st.tensor()
    naive = np.zeros((4, 4), dtype=complex)
    for a1 in range(2):
        for c1 in range(2):
            for a2 in range(2):
                for c2 in range(2):
                    acc = 0.0 + 0.0j
                    for b in range(3):
                        acc += t[a1, b, c1] * np.conj(t[a2, b, c2])
                    naive[a1 * 2 + c1, a2 * 2 + c2] = acc
    assert np.allclose(rho, naive)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.allclose(rho, rho.conj().T)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_partial_trace_keeps_original_register_order():
    rng = np.random.default_rng(5)
    st = random_state(regs(("a", 2, "v1"), ("b", 2, "v1")), rng)
    rho = marginal_matrix(st, ["b", "a"])  # request order must not matter
    assert np.allclose(rho, np.outer(st.amplitudes, st.amplitudes.conj()))
    with pytest.raises(UnknownRegister):
        marginal_matrix(st, ["z"])


def test_apply_map_splices_outputs():
    rng = np.random.default_rng(17)
    st = random_state(regs(("a", 2, "v1"), ("b", 2, "v1"), ("c", 2, "v2")), rng)
    # unitary on b alone, output register renamed
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    m = LinearMap(regs(("b", 2, "v1")), regs(("b2", 2, "v1")), h)
    out = apply_map(st, m)
    assert out.ids == ("a", "b2", "c")
    t, t2 = st.tensor(), out.tensor()
    for a in range(2):
        for c in range(2):
            assert np.allclose(t2[a, :, c], h @ t[a, :, c])


def test_apply_map_multi_register_input_and_dim_growth():
    rng = np.random.default_rng(19)
    st = random_state(regs(("a", 2, "v1"), ("b", 2, "v1"), ("c", 2, "v2")), rng)
    # isometry C^4 -> C^8 consuming (c, a), producing (x, y, z)
    iso = np.linalg.qr(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))[0]
    m = LinearMap(
        regs(("c", 2, "v2"), ("a", 2, "v1")),
        regs(("x", 2, "v2"), ("y", 2, "v2"), ("z", 2, "v2")),
        iso,
    )
    out = apply_map(st, m)
    # earliest input position was a's slot (index 0) -> outputs lead
    assert out.ids == ("x", "y", "z", "b")
    assert out.norm() == pytest.approx(1.0)
    # oracle: permute inputs to front, multiply, compare
    reordered = permute_registers(st, ["c", "a", "b"])
    expect = (iso @ reordered.amplitudes.reshape(4, 2)).reshape(-1)
    assert np.allclose(out.amplitudes, expect)


def test_apply_map_dimension_mismatch_and_unknown_register():
    rng = np.random.default_rng(23)
    st = random_state(regs(("a", 2, "v1")), rng)
    m = LinearMap(regs(("a", 3, "v1")), regs(("a2", 3, "v1")), np.eye(3))
    with pytest.raises(ShapeMismatch):
        apply_map(st, m)
    m2 = LinearMap(regs(("q", 2, "v1")), regs(("q2", 2, "v1")), np.eye(2))
    with pytest.raises(UnknownRegister):
        apply_map(st, m2)


def test_project_onto_contracts_group():
    a, b = regs(("a", 2, "v1"), ("b", 2, "v2"))
    bell = max_entangled_pair(a, b)
    got = project_onto(bell, ["a"], np.array([1.0, 0.0]))
    assert got.ids == ("b",)
    assert np.allclose(got.amplitudes, [1 / np.sqrt(2), 0.0])


def test_equality_up_to_phase_aligns_by_id():
    rng = np.random.default_rng(29)
    st = random_state(regs(("a", 2, "v1"), ("b", 3, "v1")), rng)
    rot = PureState(st.registers, st.amplitudes * np.exp(1j * 0.7))
    assert states_equal_up_to_phase(st, rot)
    assert states_equal_up_to_phase(st, permute_registers(rot, ["b", "a"]))
    other = random_state(st.registers, rng)
    assert not states_equal_up_to_phase(st, other)


def test_overlap_refuses_different_registers():
    # (x, y) and (x, z) have equal dims, so a positional <a|b> would read 1
    zero = np.array([1, 0, 0, 0], dtype=complex)
    a = PureState(regs(("x", 2, "v1"), ("y", 2, "v1")), zero)
    b = PureState(regs(("x", 2, "v1"), ("z", 2, "v1")), zero)
    assert overlap(a, permute_registers(a, ["y", "x"])) == 1
    with pytest.raises(UnknownRegister, match="cannot be compared"):
        overlap(a, b)
    with pytest.raises(UnknownRegister):
        states_equal_up_to_phase(a, b)


def test_trace_distance_basics():
    assert trace_distance(np.eye(2) / 2, np.eye(2) / 2) == pytest.approx(0.0)
    z0 = np.diag([1.0, 0.0])
    z1 = np.diag([0.0, 1.0])
    assert trace_distance(z0, z1) == pytest.approx(1.0)


def _factors(rng, rows, cols):
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return g / np.linalg.norm(g)


@pytest.mark.parametrize(
    "rows, cols_a, cols_b",
    [
        (6, 6, 6),  # full rank
        (243, 2, 2),  # rank-deficient marginals, as in the spreading check
        (128, 4, 4),
        (12, 1, 3),  # unequal ranks
        (3, 4, 5),  # more columns than rows
    ],
)
def test_range_trace_distance_matches_full_marginals(rows, cols_a, cols_b):
    rng = np.random.default_rng(rows + cols_a + cols_b)
    for _ in range(3):
        a, b = _factors(rng, rows, cols_a), _factors(rng, rows, cols_b)
        want = trace_distance(a @ a.conj().T, b @ b.conj().T)
        assert abs(range_trace_distance(a, b) - want) <= 1e-12


def test_range_trace_distance_rank_deficient_factors():
    # four columns spanning only two directions: R has zero rows to carry
    rng = np.random.default_rng(11)
    a = _factors(rng, 20, 2) @ _factors(rng, 2, 4)
    b = _factors(rng, 20, 4)
    for x, y in [(a, b), (b, a), (a, a[:, :2] * 2)]:
        want = trace_distance(x @ x.conj().T, y @ y.conj().T)
        assert abs(range_trace_distance(x, y) - want) <= 1e-12


def test_range_trace_distance_extremes():
    rng = np.random.default_rng(3)
    a = _factors(rng, 40, 2)
    assert range_trace_distance(a, a) <= 1e-12
    # the same marginal from a different purification: a unitary on the columns
    u = np.linalg.qr(_factors(rng, 2, 2))[0]
    assert range_trace_distance(a, a @ u) <= 1e-12
    # orthogonal supports
    a, b = np.zeros((10, 2), dtype=complex), np.zeros((10, 2), dtype=complex)
    a[:2] = _factors(rng, 2, 2)
    b[5:7] = _factors(rng, 2, 2)
    assert abs(range_trace_distance(a, b) - 1.0) <= 1e-12


def _factor_stacks(rng, kind):
    """(A, B) stacks of 5 slices, 24 × 3 and 24 × 2 each, of one kind."""
    a = np.stack([_factors(rng, 24, 3) for _ in range(5)])
    b = np.stack([_factors(rng, 24, 2) for _ in range(5)])
    if kind == "rank-deficient":
        # three columns spanning two directions
        a = b @ np.stack([_factors(rng, 2, 3) for _ in range(5)])
    elif kind == "equal":
        b = a.copy()
    elif kind == "orthogonal":
        a[:, 12:], b[:, :12] = 0.0, 0.0
        a, b = (x / np.linalg.norm(x, axis=(1, 2), keepdims=True) for x in (a, b))
    return a, b


@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "equal", "orthogonal"])
def test_stacked_distances_are_the_slices_bits(kind):
    a, b = _factor_stacks(np.random.default_rng(17), kind)
    got = range_trace_distance(a, b)
    assert got.shape == (5,)
    for x, y, dist in zip(a, b, got):
        single = range_trace_distance(x, y)
        assert type(single) is float
        same_bytes(np.float64(single), dist)
    rho, sigma = a @ a.conj().swapaxes(1, 2), b @ b.conj().swapaxes(1, 2)
    got = trace_distance(rho, sigma)
    assert got.shape == (5,)
    for x, y, dist in zip(rho, sigma, got):
        single = trace_distance(x, y)
        assert type(single) is float
        same_bytes(np.float64(single), dist)
    if kind == "equal":
        assert (got == 0.0).all()
    if kind == "orthogonal":
        assert np.abs(got - 1.0).max() <= 1e-12


def test_trace_distance_broadcasts_over_leading_axes():
    # (path, sample) pairs against one target per sample, as the concentrating check has them
    rng = np.random.default_rng(23)
    rho = np.stack([[f @ f.conj().T for f in (_factors(rng, 4, 4) for _ in range(3))] for _ in range(2)])
    sigma = rho[0]
    got = trace_distance(rho, sigma)
    assert got.shape == (2, 3)
    assert (got[0] == 0.0).all()
    for s in range(3):
        same_bytes(np.float64(trace_distance(rho[1, s], sigma[s])), got[1, s])


def test_is_isometry_and_completion():
    rng = np.random.default_rng(31)
    q = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))[0]
    assert np.abs(q.conj().T @ q - np.eye(3)).max() < 1e-10
    extra = orthonormal_completion(q, 5)
    full = np.hstack([q, extra])
    assert full.shape == (5, 5)
    assert np.abs(full.conj().T @ full - np.eye(5)).max() < 1e-10


def test_canonical_phase_pins_largest_entry():
    v = np.array([0.3j, -0.9, 0.1])
    w = canonical_phase(v)
    assert w[1] == pytest.approx(0.9)
    assert np.allclose(np.abs(w), np.abs(v))
    # idempotent and phase-invariant
    assert np.allclose(canonical_phase(v * np.exp(0.3j)), w)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_resource_attach_is_the_pair_product_bit_for_bit(k):
    # the stride-(K + 1) write gives the bytes of the product of the rows
    # with Φ⁺_K's column, signed zeros included; the pair is appended last
    rng = np.random.default_rng(k)
    amps = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    flat = amps.reshape(-1)
    flat.real[::3], flat.imag[1::4], flat[2::5] = -0.0, -0.0, complex(-0.0, -0.0)
    rows = regs(("x", 4, "a"), ("y", 2, "b"))
    a0, b0 = Register("a0", k, "a"), Register("b0", k, "b")
    pair = max_entangled_pair(a0, b0)
    want = apply_rows(amps, rows, (), pair.registers, pair.amplitudes[:, None])
    event = {"type": "resource-consumed", "edge": ["b", "a"], "k": k, "a0": a0, "b0": b0}
    got, got_regs, probs = apply_event(amps, rows, event)
    assert (got_regs, probs) == (want[1], None)
    same_bytes(got, want[0])


def test_resource_attach_refuses_unequal_or_repeated_registers():
    rows, amps = regs(("x", 2, "a")), np.ones((1, 2), dtype=complex)
    event = {"type": "resource-consumed", "edge": ["b", "a"], "k": 2}
    with pytest.raises(ShapeMismatch):
        apply_event(amps, rows, event | {"a0": Register("a0", 2, "a"), "b0": Register("b0", 3, "b")})
    with pytest.raises(DuplicateRegister):
        apply_event(amps, rows, event | {"a0": Register("x", 2, "a"), "b0": Register("b0", 2, "b")})
