"""Reference helpers the tests share: random states, phase-blind and byte
equality, Bell bases, the column phase rule, the solved fallback merge, the
stored closed-form fallback arrays and dense corrections, the measured
fallback post rows, the per-branch stage expansion, the branch budget's
draw, the per-leaf root replay (on B₀ alone or dense), the per-state event
interpreter, the per-sample channel checks, the per-row trace distances,
the per-outcome spreading run, the ascending-labeling enumeration, the
depth-first labeling search, the QR completion of a column set and
acceptance criterion 5's codes."""

from __future__ import annotations

import math

import numpy as np

from treecast.codes import (
    REFERENCE_ID,
    IsometryCode,
    five_qubit_code,
    ghz_code,
    identity_code,
    product_code,
    random_code,
    reference_pair,
    star4_code,
)
from treecast.config import PROB_TOL, RANK_RTOL, VERIFY_TOL
from treecast.errors import (
    SchemaError,
    TooLarge,
    UnknownRegister,
    VerificationFailed,
    ZeroProbabilityBranch,
)
from treecast.koashi_imoto import _parse_roles
from treecast.merge_split import (
    MergeProtocol,
    _bell_folded,
    _completed_basis,
    _joint_tensor,
    _shift_injection,
    _solve_corrections,
    _support,
    apply_merge_correction,
    build_split_protocol,
    execute_split,
    measurement_matrix,
    merge_post_state,
    merge_post_states,
)
from treecast import protocols
from treecast.network import line_tree, star_tree
from treecast.protocols import (
    MERGED_SET_LIMIT,
    CostReport,
    EdgeCost,
    SpreadResult,
    SpreadStep,
    _check_parties,
    _first_branch,
    _ordered,
    _root_held,
    _sorted_edge_costs,
    run_concentrating,
    run_spreading,
)
from treecast.tensors import (
    LinearMap,
    PureState,
    Register,
    _check_unique,
    _group_rows,
    apply_map,
    max_entangled_pair,
    overlap,
    permute_registers,
    project_onto,
    range_trace_distance,
    trace_distance,
)
from treecast.verification import (
    DEFAULT_CHANNEL_TOL,
    EXTRA_PATHS,
    ChannelCheck,
    _encoded_input,
    _pick_branch_paths,
    random_input,
)

LABELING_ENUMERATION_LIMIT = 100_000


def random_state(registers, rng) -> PureState:
    """Haar-distributed pure state on the given registers."""
    regs = tuple(registers)
    dim = math.prod(r.dim for r in regs)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(regs, v / np.linalg.norm(v))


def marginal_matrix(state: PureState, keep) -> np.ndarray:
    """Reduced density matrix on ``keep`` (ids; the state's register order is kept)."""
    keep_set = set(keep)
    ordered = [r.id for r in state.registers if r.id in keep_set]
    missing = keep_set - set(ordered)
    if missing:
        raise UnknownRegister(f"no register {sorted(missing)[0]!r} in state")
    mat = _group_rows(state.amplitudes[None], state.registers, ordered)[0][0]
    return mat @ mat.conj().T


def same_bytes(got, want):
    """Equal under ``np.array_equal`` and in every byte, so a signed-zero flip shows."""
    assert np.array_equal(got, want)
    assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


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


def fallback_merge_reference(psi: PureState, roles, k=None) -> MergeProtocol:
    """Reference: the fallback merge with every outcome's correction solved.

    The phase-fixed shift injection of supp(ρ^A)'s eigenframe, completed
    to a basis, and ``_solve_corrections`` over all outcomes, as
    ``build_merge_protocol`` built the fallback before its closed form.
    """
    r_ids, a_ids, b_ids = _parse_roles(psi, roles)
    perm = permute_registers(psi.normalized(), list(r_ids) + list(a_ids) + list(b_ids))
    a_regs = [perm.register(i) for i in a_ids]
    b_regs = [perm.register(i) for i in b_ids]
    dr = math.prod(perm.register(i).dim for i in r_ids)
    da = math.prod(r.dim for r in a_regs)
    db = math.prod(r.dim for r in b_regs)
    psi3 = perm.amplitudes.reshape(dr, da, db)
    g_mat = psi3.reshape(dr, da * db)
    (rank,), (frame,) = _support(psi.amplitudes[None], psi.registers, a_ids, RANK_RTOL)
    k_eff = rank if k is None else int(k)
    big = _joint_tensor(psi3, k_eff)
    qcols = _completed_basis(_shift_injection(frame[:, :rank].T[None], k_eff), da * k_eff)
    corrections, probs, zero_mask, resid = _solve_corrections(big, g_mat, qcols, da, db, k_eff)
    assert resid <= VERIFY_TOL
    return MergeProtocol(
        r_ids=r_ids,
        a_ids=tuple(a_ids),
        b_ids=tuple(b_ids),
        a_dims=tuple(r.dim for r in a_regs),
        b_dims=tuple(r.dim for r in b_regs),
        k=k_eff,
        kmin=rank,
        strategy="fallback-teleport",
        measurement=qcols,
        corrections=corrections,
        probs=probs,
        zero_mask=zero_mask,
        a0_id="merge:A0",
        b0_id="merge:B0",
        sender=a_regs[0].owner,
        receiver="B",
        b0_owner="B",
    )


def fallback_closed_form(protocol: MergeProtocol) -> tuple[np.ndarray, np.ndarray]:
    """Reference: a fallback record's measurement columns and (K·n, dA, K) teleport blocks w_m.

    The closed form ``_fallback_rows`` stored in each record before records
    kept the frame f alone, unchanged, on a stack of one row.
    """
    f, n, k = protocol.frame[None], protocol.kmin, protocol.k
    rows, da, live = 1, f.shape[1], k * n
    tail = (f[:, :, None, n:, None] * np.eye(k)[:, None, :]).reshape(rows, da * k, -1)
    qcols = np.concatenate([_shift_injection(f[:, None, :, :n].swapaxes(2, 3), k), tail], axis=2)
    p, q = np.divmod(np.arange(live), n)
    a = (np.arange(k) - p[:, None]) % k  # (live, K): the frame column t reads
    w = f[:, :, a] * np.where(a < n, np.exp(2j * np.pi * (q[:, None] * a % n) / n), 1.0)
    w = w.transpose(0, 2, 1, 3)  # (rows, live, dA, K)
    return qcols[0], w[0]


def dense_fallback_corrections(protocol: MergeProtocol) -> np.ndarray:
    """Reference: a fallback protocol's dense U_m stack, from its closed-form w_m blocks.

    The zeros and diagonal write ``_fallback_rows`` stored each record's
    corrections with before it kept w_m alone, on a stack of one row.
    """
    w = fallback_closed_form(protocol)[1][None]
    rows, live, da, k = w.shape
    db = math.prod(protocol.b_dims)
    corrections = np.zeros((rows, live, da, db, db, k), dtype=complex)
    corrections[..., np.arange(db), np.arange(db), :] = w[:, :, :, None]
    corrections = corrections.reshape(rows, live, da * db, db * k)
    return corrections[0]


def measured_post_rows(protocol: MergeProtocol, psi: PureState) -> tuple[np.ndarray, tuple[Register, ...]]:
    """Reference: every outcome's uncorrected post row, (outcomes, rest·K), and its registers.

    One contraction of the measurement columns with ψ grouped as X = (A…, rest)
    and Φ⁺_K folded in (``_bell_folded``), as ``merge_post_states`` expanded
    every record before fallback rows were gathered from f† X.
    """
    mat, rest = _group_rows(psi.amplitudes[None], psi.registers, protocol.a_ids)
    posts = _bell_folded(measurement_matrix(protocol)[None], mat, protocol.k)
    if protocol.k > 1:
        rest.append(Register(protocol.b0_id, protocol.k, protocol.b0_owner))
    return posts.reshape(posts.shape[1], -1), tuple(rest)


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
    *,
    dense: bool = False,
) -> PureState:
    """Reference: one leaf's ascending replay of the deferred isometries, then decode.

    A fallback record's U_m = w_m ⊗ 1_B acts as its closed-form w_m on B₀
    alone, as the row replay applies a stage whose records all fell back;
    with ``dense``, every record applies its dense U_m, as the row replay
    did before.
    """
    n = len(order)
    for j in range(2, n + 1):
        proto = store[j][outcomes[: n - j]].protocol
        m_j = outcomes[n - j]
        if dense or proto.frame is None:
            state = apply_merge_correction(proto, m_j, state)
            continue
        b0 = (Register(proto.b0_id, proto.k, proto.b0_owner),) if proto.k > 1 else ()
        a_copy = tuple(Register(i, d, proto.receiver) for i, d in zip(proto.a_ids, proto.a_dims))
        state = apply_map(state, LinearMap(b0, a_copy, fallback_closed_form(proto)[1][m_j]))
    phys = tuple(state.register(p) for p in code.parties)
    logical = Register("L", code.logical_dim, order[0])
    decoder = LinearMap(phys, (logical,), code.matrix.conj().T)
    return apply_map(state, decoder)


def _sampled(paths, budget: int, seed: int, level: int) -> list[int]:
    """Reference: indices of ``budget`` of the expanded ``paths``, in order, the all-zero one kept if live.

    The others are drawn from a generator made from ``seed`` and ``level``
    alone: the draw ``run_concentrating`` made on a stage's expanded rows
    before it drew them ahead of the expansion.
    """
    keep = [i for i, path in enumerate(paths) if not any(path)]
    rest = [i for i, path in enumerate(paths) if any(path)]
    take = min(len(rest), max(0, budget - len(keep)))
    sampler = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(level,)))
    picked = sampler.choice(len(rest), size=take, replace=False)
    return keep + [rest[int(i)] for i in sorted(picked)]


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


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Joint state with ``a``'s registers first (slowest-varying)."""
    _check_unique(a.registers + b.registers)
    return PureState(a.registers + b.registers, np.kron(a.amplitudes, b.amplitudes))


def apply_event(state: PureState, event: dict) -> tuple[PureState, float | None]:
    """Reference: the event interpreter on one state, through tensor_product,
    apply_map and project_onto, as it ran before it ran on rows."""
    kind = event.get("type")
    if kind == "resource-consumed":
        if "a0" in event:
            state = tensor_product(state, max_entangled_pair(event["a0"], event["b0"]))
        return state, None
    if kind in ("local-isometry", "root-correction"):
        op = LinearMap(tuple(event["in"]), tuple(event["out"]), event["matrix"])
        return apply_map(state, op), None
    if kind == "measurement":
        basis, outcome = event["basis"], int(event["outcome"])
        if not 0 <= outcome < basis.shape[1]:
            raise SchemaError(f"measurement outcome {outcome} outside basis")
        post = project_onto(state, [r.id for r in event["targets"]], basis[:, outcome])
        prob = float(post.norm() ** 2)
        if prob < PROB_TOL:
            raise ZeroProbabilityBranch(
                f"outcome {outcome} at {event.get('party')!r} has zero probability"
            )
        return post, prob
    if kind == "broadcast":
        return state, None
    raise SchemaError(f"unknown event type {kind!r}")


def verify_spreading_channel(
    code,
    tree,
    result=None,
    *,
    samples: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_CHANNEL_TOL,
    labeling=None,
) -> ChannelCheck:
    """Reference: the spreading channel check with one walk per (sample, path)."""
    if result is None:
        result = run_spreading(code, tree, labeling)
    rng = np.random.default_rng(seed)
    phys_set = set(code.parties)
    phys = [r.id for r in result.final_state.registers if r.id in phys_set]
    worst_td = 0.0
    worst_pdev = 0.0
    n_paths = 1 + EXTRA_PATHS
    for _ in range(samples):
        psi = random_input(rng, code.logical_dim)
        target = _encoded_input(code, psi)
        start = PureState(
            tuple(
                r if r.id == REFERENCE_ID else r.with_owner(tree.root)
                for r in target.registers
            ),
            target.amplitudes,
        )
        target_amps = _group_rows(target.amplitudes[None], target.registers, phys)[0][0]
        for p in range(n_paths):
            state = start
            for step in result.steps:
                n_out = step.protocol.k**2
                m = 0 if p == 0 else int(rng.integers(n_out))
                (branch,) = execute_split(step.protocol, state, outcomes=[m])
                worst_pdev = max(worst_pdev, abs(branch.probability - 1.0 / n_out))
                state = branch.state
            out_amps = _group_rows(state.amplitudes[None], state.registers, phys)[0][0]
            worst_td = max(worst_td, range_trace_distance(out_amps, target_amps))
    return ChannelCheck(
        direction="spread",
        samples=samples,
        paths_per_sample=n_paths,
        max_trace_distance=worst_td,
        max_probability_deviation=worst_pdev,
        tol=tol,
    )


def trace_distance_2d(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Reference: the trace distance of one pair of matrices, as it was before it took stacks."""
    delta = np.asarray(rho) - np.asarray(sigma)
    delta = (delta + delta.conj().T) / 2
    return float(0.5 * np.abs(np.linalg.eigvalsh(delta)).sum())


def range_trace_distance_2d(a: np.ndarray, b: np.ndarray) -> float:
    """Reference: the range trace distance of one pair of factors, as it was before it took stacks."""
    r = np.linalg.qr(np.hstack([a, b]), mode="r")
    ra, rb = r[:, : a.shape[1]], r[:, a.shape[1] :]
    return trace_distance_2d(ra @ ra.conj().T, rb @ rb.conj().T)


def per_row(distance):
    """Reference: ``distance`` of each pair of 2-D slices, a list in a Python loop, as the channel
    checks took their distances before one stacked call; the leading axes broadcast."""

    def looped(a, b):
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        a, b = (np.broadcast_to(x, lead + x.shape[-2:]).reshape(-1, *x.shape[-2:]) for x in (a, b))
        return [distance(x, y) for x, y in zip(a, b)]

    return looped


def run_spreading_per_outcome(code, tree, labeling=None, *, k_overrides=None, rank_rtol=RANK_RTOL):
    """Reference: ``run_spreading`` as one ``execute_split`` per Pauli row and an ``overlap``
    per outcome, each outcome a ``PureState``.  Its Python ``max`` skips a NaN deviation."""
    _check_parties(code, tree)
    order = _ordered(tree, labeling)
    state, target = _root_held(code, tree)
    overrides = dict(k_overrides or {})
    steps, items, worst_dev = [], [], 0.0
    for child in order[1:]:
        parent = tree.parent(child)
        block = [v for v in order if v in set(tree.subtree(child))]
        proto = build_split_protocol(state, block, overrides.get(child), receiver=child, rank_rtol=rank_rtol)
        for p in range(proto.k):
            row = range(p * proto.k, (p + 1) * proto.k)
            for br in execute_split(proto, state, outcomes=row):
                if br.outcome == 0:
                    ref = br.state
                else:
                    worst_dev = max(worst_dev, abs(abs(overlap(br.state, ref)) - 1.0))
        if worst_dev > VERIFY_TOL:
            raise VerificationFailed(f"split outcomes at edge ({parent}, {child}) disagree by {worst_dev:.2e}")
        state = ref
        steps.append(SpreadStep(parent, child, tuple(block), proto))
        items.append(EdgeCost(parent, child, proto.k))
    return SpreadResult(
        cost_report=_sorted_edge_costs("spread", items),
        steps=tuple(steps),
        final_state=state,
        fidelity=abs(overlap(state, target.normalized())),
        branch_deviation=worst_dev,
        labeling=order,
    )


def acceptance_corpus():
    """Acceptance criterion 5's codes: five named, then 50 random ones drawn as it draws them."""
    cases = [
        (identity_code(2, 1), line_tree(1)),
        (product_code([2, 2]), line_tree(2)),
        (star4_code(), star_tree(4)),
        (five_qubit_code(), line_tree(5)),
        (ghz_code(3), line_tree(3)),
    ]
    rng = np.random.default_rng(20260821)
    while len(cases) < 55:
        n = int(rng.choice((2, 3, 4)))
        code = random_code(rng, 2, (2,) * n)
        cases.append((code, line_tree(n) if n == 2 or int(rng.integers(2)) == 0 else star_tree(n)))
    return cases


def ascending_labelings(tree, limit: int = LABELING_ENUMERATION_LIMIT):
    """All ascending labelings, lexicographically by vertex name.

    Raises TooLarge when the count exceeds ``limit`` — callers that
    search over labelings must bound the enumeration up front.
    """
    total = tree.count_ascending_labelings()
    if total > limit:
        raise TooLarge(
            f"{total} ascending labelings exceed the enumeration limit {limit}"
        )
    out: list[tuple[str, ...]] = []

    def grow(prefix: list[str], available: set[str]):
        if not available:
            out.append(tuple(prefix))
            return
        for v in sorted(available):
            nxt = available - {v} | set(tree.children(v))
            prefix.append(v)
            grow(prefix, nxt)
            prefix.pop()

    grow([tree.root], set(tree.children(tree.root)))
    return out


def depth_first_labeling(
    code: IsometryCode,
    tree,
    *,
    mode: str = "tight",
    rank_rtol: float = RANK_RTOL,
) -> tuple[tuple[str, ...], CostReport]:
    """The ascending labeling of least concentrating cost, and its cost report.

    A stage's K depends on the set merged before it and its vertex alone
    (``_branch_walk``), so one depth-first walk over merged sets builds
    each (set, vertex) stage once, on the first live branch, and keeps
    per set the cheapest way to merge the vertices left: the least exact
    product of K, ties going to the lexicographically first labeling.
    The report equals ``concentrating_cost`` on the winner in the same
    mode.  A stage is freed once the walk has moved past it, so at most
    n − 1 are alive at once.  Raises TooLarge, before any stage is built,
    when the tree has more than ``MERGED_SET_LIMIT`` merged sets.

    The reference for ``optimize_labeling``'s level walk: one stage, and
    one merge build, at a time, in depth-first order.
    """
    sets = tree.count_merged_sets()
    if sets > MERGED_SET_LIMIT:
        raise TooLarge(f"{sets} merged sets exceed the labeling search limit {MERGED_SET_LIMIT}")
    _check_parties(code, tree)
    best: dict[frozenset[str], tuple[int, tuple[str, ...], tuple[EdgeCost, ...]]] = {}

    def walk(merged, branch):
        """(product of K, labeling of the vertices left, their edges) at its least."""
        options = []
        for vertex in tree.vertices:
            # mergeable: not the root, not merged yet, every child merged
            kids = tree.children(vertex)
            if vertex == tree.root or vertex in merged or not merged.issuperset(kids):
                continue
            stage = protocols._concentrate_stage(branch, tree, vertex, mode=mode, rank_rtol=rank_rtol)
            grown = merged | {vertex}
            if grown not in best:
                best[grown] = walk(grown, stage.live.take([0]))
            product, head, edges = best[grown]
            options.append((stage.edge.k * product, head + (vertex,), (stage.edge, *edges)))
        return min(options, default=(1, (tree.root,), ()))

    _, labeling, edges = walk(frozenset(), _first_branch(code))
    return labeling, _sorted_edge_costs("concentrate", edges)


def orthonormal_completion(cols: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the complement of ``cols``'s column space in C^dim.

    Deterministic: the trailing columns of one complete QR of ``cols``,
    which must have full column rank (orthonormal columns always do).
    """
    have = 0 if cols.size == 0 else cols.shape[1]
    if dim <= have:
        return np.zeros((dim, 0), dtype=complex)
    q = np.linalg.qr(np.reshape(cols, (dim, have)).astype(complex), mode="complete")[0]
    return np.ascontiguousarray(q[:, have:])
