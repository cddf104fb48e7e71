"""Reference helpers the tests share: random states, phase-blind equality,
Bell bases, the column phase rule, the per-branch stage expansion, the
per-leaf root replay and the per-sample concentrating channel check."""

from __future__ import annotations

import math

import numpy as np

from treecast.codes import IsometryCode, reference_pair
from treecast.config import PROB_TOL
from treecast.merge_split import apply_merge_correction, merge_post_state, merge_post_states
from treecast.protocols import run_concentrating
from treecast.tensors import (
    LinearMap,
    PureState,
    Register,
    apply_map,
    marginal_matrix,
    overlap,
    trace_distance,
)
from treecast.verification import (
    DEFAULT_CHANNEL_TOL,
    ChannelCheck,
    _encoded_input,
    _pick_branch_paths,
    random_input,
)


def random_state(registers, rng) -> PureState:
    """Haar-distributed pure state on the given registers."""
    regs = tuple(registers)
    dim = math.prod(r.dim for r in regs)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(regs, v / np.linalg.norm(v))


def states_equal_up_to_phase(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    """True iff |<a|b>| = |a||b| within ``tol`` (identical up to global phase).

    Register orders are aligned by id; states over different id sets
    raise UnknownRegister.
    """
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        return False
    return abs(abs(overlap(a, b)) / (na * nb) - 1.0) <= tol


def shift_loop(k, p, q):
    """Reference: X^p Z^q entry by entry."""
    omega = np.exp(2j * np.pi / k)
    m = np.zeros((k, k), dtype=complex)
    for j in range(k):
        m[(j + p) % k, j] = omega ** (q * j)
    return m


def bell_columns_loop(k):
    """Reference: the Bell basis column by column, (X^p Z^q ⊗ 1)|Φ⁺_K⟩."""
    phi = np.eye(k, dtype=complex).reshape(-1) / math.sqrt(k)
    cols = [np.kron(shift_loop(k, p, q), np.eye(k)) @ phi for p in range(k) for q in range(k)]
    return np.column_stack(cols)


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest entry is real positive."""
    vec = np.asarray(v, dtype=complex)
    if not vec.size:
        return vec
    mags = np.abs(vec)
    # earliest entry within a relative whisker of the max, so that exact
    # ties broken only by floating-point noise pick a stable pivot
    k = int(np.argmax(mags >= mags.max() * (1.0 - 1e-9)))
    piv = vec[k]
    if abs(piv) == 0.0:
        return vec.copy()
    return vec * (abs(piv) / piv)


def expanded_branches(live, records):
    """Reference: a concentrating stage's outcomes, one post-state per branch outcome.

    ``live`` holds (outcome path, path probability, state) triples; each
    branch is measured by its record's protocol on the outcomes its
    ``zero_mask`` leaves live, and every post-state of probability at
    least PROB_TOL is normalized on its own.
    """
    out = []
    for prefix, p_acc, state in live:
        proto = records[prefix].protocol
        wanted = [m for m, dead in enumerate(proto.zero_mask) if not dead]
        for m, (p_m, post) in zip(wanted, merge_post_states(proto, state, wanted)):
            if p_m >= PROB_TOL:
                out.append((prefix + (m,), p_acc * p_m, post.normalized()))
    return out


def replay_root_corrections(
    code: IsometryCode,
    order,
    store,
    outcomes: tuple[int, ...],
    state: PureState,
) -> PureState:
    """Reference: one leaf's ascending replay of the deferred isometries, then decode."""
    n = len(order)
    for j in range(2, n + 1):
        prefix = outcomes[: n - j]
        m_j = outcomes[n - j]
        proto = store[j][prefix].protocol
        state = apply_merge_correction(proto, m_j, state)
    phys = tuple(state.register(p) for p in code.parties)
    logical = Register("L", code.logical_dim, order[0])
    decoder = LinearMap(phys, (logical,), code.matrix.conj().T)
    return apply_map(state, decoder)


def fidelity_to_reference(code: IsometryCode, final: PureState) -> float:
    """Reference: |<final|Φ⁺_D>| on (R, L), 0 when the decoded norm is off."""
    target = reference_pair(code.logical_dim)
    norm = final.norm()
    if abs(norm - 1.0) > 1e-6:
        return 0.0
    return abs(overlap(final.normalized(), target))


def verify_concentrating_channel(
    code,
    tree,
    result=None,
    *,
    samples: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_CHANNEL_TOL,
    labeling=None,
) -> ChannelCheck:
    """Reference: the concentrating channel check with one walk per (sample, path)."""
    if result is None:
        result = run_concentrating(code, tree, labeling)
    rng = np.random.default_rng(seed)
    order = result.labeling
    n = len(order)
    by_path = {br.outcomes: br.probability for br in result.branches}
    paths = _pick_branch_paths(result, rng)
    worst_td = 0.0
    worst_pdev = 0.0
    for _ in range(samples):
        psi = random_input(rng, code.logical_dim)
        start = _encoded_input(code, psi)
        rho_target = np.einsum("rl,rm->lm", psi, psi.conj())
        for path in paths:
            state = start
            p_acc = 1.0
            for k in range(n, 1, -1):
                rec = result.steps[k][path[: n - k]]
                p_m, post = merge_post_state(rec.protocol, state, path[n - k])
                p_acc *= p_m
                state = post.normalized()
            final = replay_root_corrections(code, order, result.steps, path, state)
            worst_pdev = max(worst_pdev, abs(p_acc - by_path[path]))
            rho_out = marginal_matrix(final.normalized(), ["L"])
            worst_td = max(worst_td, trace_distance(rho_out, rho_target))
    return ChannelCheck(
        direction="concentrate",
        samples=samples,
        paths_per_sample=len(paths),
        max_trace_distance=worst_td,
        max_probability_deviation=worst_pdev,
        tol=tol,
    )
