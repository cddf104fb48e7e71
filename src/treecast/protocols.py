"""Network-level protocols: spread an encoded share out over a tree, or
concentrate it back to the root.

Spreading starts with every physical register of the encoded pair held
by the root and walks the tree top-down: crossing edge (u, w) splits off
the block of registers belonging to the subtree under w, at the exact
cost of that block's marginal rank.  Every split outcome reproduces the
same global state, which the driver checks exhaustively.

Concentrating walks an ascending labeling v₁…v_N backwards.  At stage k
the vertex v_k merges everything it currently holds — its own register
plus any resource halves parked on it by earlier stages — into the
collective of v₁…v_{k−1}, consuming a maximally entangled pair of
dimension K on the tree edge (parent(v_k), v_k).  Outcome-conditioned
corrections are deferred: the branch state is just the projected,
uncorrected leftover, and after the last stage the root replays the
correction isometries in ascending order, resurrecting every register
locally, and finally inverts the encoding; all leaves share one register
layout, so they are replayed together as rows of one array.  The per-edge cost is the
worst tight K over all measurement branches, and every branch's
protocol is rebuilt at that dimension so the provisioned resource is
consumed in full.  Every branch of a stage has the same K, so the cost
reports (``concentrating_cost``, ``compare_costs``, the labeling search)
follow one branch per stage; only ``run_concentrating`` builds them all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codes import REFERENCE_ID, IsometryCode, encoded_pair, reference_pair
from .config import PROB_TOL, RANK_RTOL, VERIFY_TOL
from .errors import (
    InputError,
    InsufficientResource,
    SynthesisFailed,
    UnknownEdge,
    VerificationFailed,
)
from .merge_split import (
    MergeProtocol,
    SplitProtocol,
    build_merge_protocol,
    build_split_protocol,
    correction_event,
    execute_split,
    merge_post_states,
    split_cost,
)
from .network import LABELING_ENUMERATION_LIMIT, RootedTree
from .tensors import PureState, Register, _group_rows, overlap

# leaves replayed at once by run_concentrating: bounds the replay's arrays
REPLAY_ROWS = 1024

# -- cost reports -------------------------------------------------------------


@dataclass(frozen=True)
class EdgeCost:
    parent: str
    child: str
    k: int

    @property
    def log2(self) -> float:
        return math.log2(self.k)


@dataclass(frozen=True)
class CostReport:
    """Per-edge resource dimensions, edges sorted by child vertex name."""

    direction: str  # "spread" | "concentrate"
    edges: tuple[EdgeCost, ...]

    @property
    def total_log2(self) -> float:
        return float(sum(e.log2 for e in self.edges))

    def by_child(self) -> dict[str, int]:
        return {e.child: e.k for e in self.edges}

    def cost_of(self, child: str) -> int:
        for e in self.edges:
            if e.child == child:
                return e.k
        raise UnknownEdge(f"no tree edge ends at vertex {child!r}")


def _sorted_edge_costs(direction: str, items) -> CostReport:
    edges = tuple(sorted(items, key=lambda e: e.child))
    return CostReport(direction=direction, edges=edges)


# -- spreading ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpreadStep:
    parent: str
    child: str
    moved_ids: tuple[str, ...]
    protocol: SplitProtocol


@dataclass(frozen=True, eq=False)
class SpreadResult:
    cost_report: CostReport
    steps: tuple[SpreadStep, ...]
    final_state: PureState
    fidelity: float
    branch_deviation: float  # worst disagreement between split outcomes
    labeling: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.fidelity >= 1.0 - 1e-9


def _root_held(code: IsometryCode, tree: RootedTree) -> tuple[PureState, PureState]:
    """(initial state with all shares at the root, target spread state)."""
    target = encoded_pair(code)
    regs = tuple(
        r if r.id == REFERENCE_ID else r.with_owner(tree.root)
        for r in target.registers
    )
    return PureState(regs, target.amplitudes), target


def spreading_cost(
    code: IsometryCode, tree: RootedTree, rank_rtol: float = RANK_RTOL
) -> CostReport:
    """Exact spreading cost: the subtree-cut marginal rank, per edge."""
    psi = encoded_pair(code)
    _check_parties(code, tree)
    items = []
    for parent, child in tree.edges():
        block = list(tree.subtree(child))
        items.append(EdgeCost(parent, child, split_cost(psi, block, rank_rtol)))
    return _sorted_edge_costs("spread", items)


def _check_parties(code: IsometryCode, tree: RootedTree) -> None:
    if sorted(code.parties) != sorted(tree.vertices):
        raise UnknownEdge(
            f"code parties {sorted(code.parties)!r} do not match tree "
            f"vertices {sorted(tree.vertices)!r}"
        )


def _ordered(tree: RootedTree, labeling) -> tuple[str, ...]:
    """``labeling`` checked to be ascending, or the tree's default one."""
    return tree.check_ascending(labeling) if labeling is not None else tree.default_labeling()


def run_spreading(
    code: IsometryCode,
    tree: RootedTree,
    labeling=None,
    *,
    k_overrides: dict[str, int] | None = None,
    rank_rtol: float = RANK_RTOL,
) -> SpreadResult:
    """Execute the spreading protocol with exhaustive per-split checking.

    ``k_overrides`` maps a child vertex name to a forced resource
    dimension for its edge; below the marginal rank this raises
    InsufficientResource (no exact protocol exists there).
    """
    _check_parties(code, tree)
    order = _ordered(tree, labeling)
    state, target = _root_held(code, tree)
    overrides = dict(k_overrides or {})
    steps = []
    items = []
    worst_dev = 0.0
    for child in order[1:]:
        parent = tree.parent(child)
        block = [v for v in order if v in set(tree.subtree(child))]
        proto = build_split_protocol(
            state,
            block,
            overrides.get(child),
            receiver=child,
            rank_rtol=rank_rtol,
        )
        # each outcome against outcome 0, one Pauli-shift row of K at a time,
        # so the K² branch states are never held at once
        for p in range(proto.k):
            row = range(p * proto.k, (p + 1) * proto.k)
            for br in execute_split(proto, state, outcomes=row):
                if br.outcome == 0:
                    ref = br.state
                else:
                    worst_dev = max(worst_dev, abs(abs(overlap(br.state, ref)) - 1.0))
        if worst_dev > VERIFY_TOL:
            raise VerificationFailed(
                f"split outcomes at edge ({parent}, {child}) disagree by {worst_dev:.2e}"
            )
        state = ref
        steps.append(SpreadStep(parent, child, tuple(block), proto))
        items.append(EdgeCost(parent, child, proto.k))
    fid = abs(overlap(state, target.normalized()))
    return SpreadResult(
        cost_report=_sorted_edge_costs("spread", items),
        steps=tuple(steps),
        final_state=state,
        fidelity=fid,
        branch_deviation=worst_dev,
        labeling=order,
    )


def spreading_lower_bound_check(
    code: IsometryCode,
    tree: RootedTree,
    report: CostReport,
    *,
    rank_rtol: float = RANK_RTOL,
) -> dict:
    """Audit a spreading cost report against the per-edge rank floor.

    Schmidt rank across an edge cut cannot grow under LOCC, so any
    protocol must consume M_e at least the rank of the encoded pair
    across that cut; the bundled algorithm consumes exactly the rank.
    Returns per-edge rank/consumed/slack plus an overall verdict string.
    """
    psi = encoded_pair(code)
    _check_parties(code, tree)
    edges = {}
    feasible = True
    slack_total = 0.0
    for parent, child in tree.edges():
        rank = split_cost(psi, list(tree.subtree(child)), rank_rtol)
        consumed = report.cost_of(child)
        slack = math.log2(consumed) - math.log2(rank)
        feasible = feasible and consumed >= rank
        slack_total += max(slack, 0.0)
        edges[child] = {"rank": rank, "consumed": consumed, "slack_log2": slack}
    if not feasible:
        verdict = "infeasible: some edge consumes less than its rank floor"
    elif slack_total == 0.0:
        verdict = "tight"
    else:
        amount = int(slack_total) if slack_total == int(slack_total) else slack_total
        unit = "ebit" if amount == 1 else "ebits"
        verdict = f"feasible, suboptimal by {amount} {unit}"
    return {
        "feasible": feasible,
        "tight": feasible and slack_total == 0.0,
        "slack_log2": slack_total,
        "edges": edges,
        "verdict": verdict,
    }


# -- concentrating ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MergeStepRecord:
    """The merge of one branch, stored at ``steps[k][outcomes of stages N..k+1]``."""

    vertex: str
    kmin: int  # tight minimum for this branch
    protocol: MergeProtocol  # built at the edge-wide resource dimension


@dataclass(frozen=True)
class ConcentrateBranch:
    outcomes: tuple[int, ...]  # (m_N, …, m_2)
    probability: float
    fidelity: float


@dataclass(frozen=True, eq=False)
class ConcentrateResult:
    cost_report: CostReport
    labeling: tuple[str, ...]
    steps: dict[int, dict[tuple[int, ...], MergeStepRecord]]
    branches: tuple[ConcentrateBranch, ...]
    coverage: float  # total probability of the explored branches
    explored_all: bool
    min_fidelity: float
    mode: str
    fallback_edges: tuple[str, ...]  # children whose edge needed the fallback

    @property
    def passed(self) -> bool:
        return self.min_fidelity >= 1.0 - 1e-9


def _holdings(state: PureState, party: str) -> list[str]:
    return [r.id for r in state.registers if r.owner == party]


def _roles_for(state: PureState, party: str):
    a_ids = _holdings(state, party)
    r_ids = [REFERENCE_ID]
    b_ids = [r.id for r in state.registers if r.id != REFERENCE_ID and r.id not in a_ids]
    return (tuple(r_ids), tuple(a_ids), tuple(b_ids))


def _build_step(state, roles, *, mode, k, rank_rtol, ids, receiver, b0_owner):
    """Tight protocol with fallback on synthesis failure; returns (proto, fell_back)."""
    a0_id, b0_id = ids
    common = dict(
        k=k,
        rank_rtol=rank_rtol,
        a0_id=a0_id,
        b0_id=b0_id,
        receiver=receiver,
        b0_owner=b0_owner,
    )
    if mode == "fallback":
        return build_merge_protocol(state, roles, mode="fallback", **common), True
    try:
        return build_merge_protocol(state, roles, mode="tight", **common), False
    except SynthesisFailed:
        return build_merge_protocol(state, roles, mode="fallback", **common), True


@dataclass(frozen=True, eq=False)
class _Stage:
    edge: EdgeCost
    records: dict[tuple[int, ...], MergeStepRecord]
    fell_back: bool
    live: list[tuple[tuple[int, ...], float, PureState]]  # branches entering stage k−1


def _concentrate_stage(
    live, tree: RootedTree, vertex: str, *, mode: str, rank_rtol: float
) -> _Stage:
    """``vertex`` merges what it holds into the root's collective, on every live branch.

    Every live branch gets a tight protocol first (to discover the edge's
    worst-case resource dimension), then all branch protocols are rebuilt
    at that dimension so each branch consumes the same, fully-provisioned
    resource.  Protocols depend only on the branch states, so the stage
    is a function of (live, vertex).  Post-states are built only for the
    outcomes a protocol's ``zero_mask`` leaves live.  Costs pass a single
    branch (``_branch_walk``), since every branch of a stage has the same K.
    """
    parent = tree.parent(vertex)

    def build(state, k):
        return _build_step(
            state,
            _roles_for(state, vertex),
            mode=mode,
            k=k,
            rank_rtol=rank_rtol,
            ids=(f"ent:{vertex}:A0", f"ent:{vertex}:B0"),
            receiver=tree.root,
            b0_owner=parent,
        )

    tight = [build(state, None) for _, _, state in live]
    k_edge = max(p.k for p, _ in tight)
    edge_fell = any(f for _, f in tight)
    share_dim = math.prod(r.dim for r in live[0][2].registers if r.owner == vertex)

    # rebuild every branch at the shared, fully provisioned dimension
    records: dict[tuple[int, ...], MergeStepRecord] = {}
    while True:
        try:
            for (prefix, _, state), (tight_proto, _) in zip(live, tight):
                if tight_proto.k == k_edge:
                    proto, fell = tight_proto, False
                else:
                    proto, fell = build(state, k_edge)
                edge_fell = edge_fell or fell
                records[prefix] = MergeStepRecord(vertex, tight_proto.kmin, proto)
            break
        except InsufficientResource:
            # a fallback rebuild needed more than another branch's tight
            # maximum; raise the edge dimension and redo the stage, up to
            # dim H^A, past which no correction isometry exists
            k_edge += 1
            records.clear()
            if k_edge > share_dim:
                raise SynthesisFailed(
                    f"edge ({parent}, {vertex}) has no exact protocol at any "
                    f"K ≤ {share_dim}, the merged share's dimension"
                )

    next_live = []
    for prefix, p_acc, state in live:
        proto = records[prefix].protocol
        wanted = [m for m, dead in enumerate(proto.zero_mask) if not dead]
        for m, (p_m, post) in zip(wanted, merge_post_states(proto, state, wanted)):
            if p_m < PROB_TOL:
                continue
            next_live.append((prefix + (m,), p_acc * p_m, post.normalized()))
    return _Stage(EdgeCost(parent, vertex, k_edge), records, edge_fell, next_live)


def run_concentrating(
    code: IsometryCode,
    tree: RootedTree,
    labeling=None,
    *,
    mode: str = "tight",
    branch_budget: int | None = None,
    seed: int = 0,
    rank_rtol: float = RANK_RTOL,
) -> ConcentrateResult:
    """Synthesize and execute the concentrating protocol on every branch.

    Stages run from the last label to the second (``_concentrate_stage``).
    ``branch_budget`` caps how many branches stay live after each stage:
    the all-zero outcome path is always kept, and the others are drawn
    from a generator made from ``seed`` and the stage alone.  With no
    budget the walk is exhaustive.  Every leaf is replayed and decoded,
    ``REPLAY_ROWS`` leaves at a time (``_replay_root_corrections``).  The
    cost report equals ``concentrating_cost``, which follows one branch.
    """
    _check_parties(code, tree)
    order = _ordered(tree, labeling)
    live = [_first_branch(code)]
    store: dict[int, dict[tuple[int, ...], MergeStepRecord]] = {}
    items = []
    explored_all = True
    fallback_edges = []

    for level in range(len(order), 1, -1):
        stage = _concentrate_stage(live, tree, order[level - 1], mode=mode, rank_rtol=rank_rtol)
        if stage.fell_back:
            fallback_edges.append(stage.edge.child)
        items.append(stage.edge)
        store[level], live = stage.records, stage.live
        del stage  # so a sampled-out branch is freed before the next stage
        if branch_budget is not None and len(live) > branch_budget:
            explored_all = False
            live = _sampled(live, branch_budget, seed, level)

    layout = live[0][2].registers  # every leaf ends in the same register layout
    branches = []
    for lo in range(0, len(live), REPLAY_ROWS):
        chunk = live[lo : lo + REPLAY_ROWS]
        paths = [prefix for prefix, _, _ in chunk]
        amps = np.stack([state.amplitudes for _, _, state in chunk])
        final, regs = _replay_root_corrections(code, order, store, paths, amps, layout)
        fids = _fidelities(code, final, regs).tolist()
        branches += [ConcentrateBranch(br[0], br[1], fid) for br, fid in zip(chunk, fids)]

    return ConcentrateResult(
        cost_report=_sorted_edge_costs("concentrate", items),
        labeling=order,
        steps=store,
        branches=tuple(branches),
        coverage=float(sum(p for _, p, _ in live)),
        explored_all=explored_all,
        min_fidelity=min([1.0] + [br.fidelity for br in branches]),
        mode=mode,
        fallback_edges=tuple(sorted(set(fallback_edges))),
    )


def _sampled(live, budget: int, seed: int, level: int):
    """``budget`` of the ``live`` branches, in their order, the all-zero one kept if live.

    The others are drawn from a generator made from ``seed`` and ``level`` alone.
    """
    keep = [br for br in live if all(m == 0 for m in br[0])]
    rest = [br for br in live if not all(m == 0 for m in br[0])]
    take = min(len(rest), max(0, budget - len(keep)))
    sampler = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(level,)))
    picked = sampler.choice(len(rest), size=take, replace=False)
    return keep + [rest[int(i)] for i in sorted(picked)]


def _replay_root_corrections(code: IsometryCode, order, store, paths, amps, regs):
    """Ascending replay of the deferred isometries on rows, then decode at the root.

    Row b of ``amps`` is a branch state over the registers ``regs`` that
    followed the outcomes ``paths[b]`` = (m_N, …, m_2).  No correction
    acts on the reference register.  Per stage the rows are regrouped once
    as (rows, in, rest), and each record's corrections act on the run of
    consecutive rows it recorded in one matmul.  Returns the decoded rows
    and their registers, the logical register first.
    """
    n = len(order)
    count = len(paths)
    for j in range(2, n + 1):
        event = correction_event(store[j][paths[0][: n - j]].protocol, 0)
        grouped, _, rest = _group_rows(amps, regs, [r.id for r in event["in"]])
        out = np.empty((count, event["matrix"].shape[0], grouped.shape[2]), dtype=complex)
        prefixes = [path[: n - j] for path in paths]
        for prefix, run in itertools.groupby(range(count), key=prefixes.__getitem__):
            rows = list(run)
            ms = [paths[b][n - j] for b in rows]
            lo, hi = rows[0], rows[-1] + 1
            out[lo:hi] = store[j][prefix].protocol.corrections[ms] @ grouped[lo:hi]
        amps, regs = out.reshape(count, -1), (*event["out"], *rest)
    grouped, _, rest = _group_rows(amps, regs, code.parties)
    decoded = code.matrix.conj().T @ grouped
    logical = Register("L", code.logical_dim, order[0])
    return decoded.reshape(count, -1), (logical, *rest)


def _fidelities(code: IsometryCode, final: np.ndarray, regs) -> np.ndarray:
    """|⟨leaf|Φ⁺_D⟩| per decoded row, 0 where the row's norm is off by over 1e-6.

    Norms and overlaps are one-row dot products on (R, L), so every digit
    equals that of ``np.linalg.norm`` and ``np.vdot`` on the leaf alone.
    """
    x = _group_rows(final, regs, [REFERENCE_ID, "L"])[0].reshape(len(final), 1, -1)
    norms = np.sqrt(x.real @ x.real.swapaxes(1, 2) + x.imag @ x.imag.swapaxes(1, 2))
    held = np.abs(norms - 1.0) <= 1e-6
    target = reference_pair(code.logical_dim).amplitudes[:, None]
    overlaps = np.abs((x / np.where(held, norms, 1.0)).conj() @ target)
    return np.where(held, overlaps, 0.0).reshape(-1)


def _first_branch(code: IsometryCode):
    """The branch entering the first stage: no outcomes yet, the encoded pair."""
    return ((), 1.0, encoded_pair(code).normalized())


def _branch_walk(
    code: IsometryCode, tree: RootedTree, order, outcomes=None, *, mode: str, rank_rtol: float
):
    """Stages of ``order`` on one branch: (their edge costs, the branch reached).

    After a set S has merged, each branch holds ψ with S's registers
    regrouped at their nearest unmerged ancestors, up to local unitaries
    and product junk.  Koashi–Imoto block structure, and so the tight K,
    is invariant under local unitaries, as is the fallback's marginal
    rank.  So a stage's K depends on S and the vertex, not on the order
    S merged in nor on the branch, and each stage is built on the one
    branch the walk carries.  With ``outcomes`` None the walk runs all
    N − 1 stages, carrying each one's first live outcome; otherwise it
    runs one stage per outcome named and carries that outcome.  An
    outcome outside a stage's range, or of zero probability, raises
    InputError.
    """
    _check_parties(code, tree)
    if outcomes is None:
        outcomes = (None,) * (len(order) - 1)
    branch = _first_branch(code)
    edges = []
    for level, m in zip(range(len(order), 1, -1), outcomes):
        stage = _concentrate_stage([branch], tree, order[level - 1], mode=mode, rank_rtol=rank_rtol)
        edges.append(stage.edge)
        if m is None:
            branch = stage.live[0]
            continue
        count = stage.records[branch[0]].protocol.measurement.shape[1]
        if not 0 <= m < count:
            raise InputError(f"stage {level} has outcomes 0..{count - 1}, not {m}")
        taken = [br for br in stage.live if br[0][-1] == m]
        if not taken:
            raise InputError(f"stage {level} outcome {m} has zero probability")
        branch = taken[0]
    return edges, branch


def concentrating_cost(
    code: IsometryCode,
    tree: RootedTree,
    labeling=None,
    *,
    mode: str = "tight",
    rank_rtol: float = RANK_RTOL,
) -> CostReport:
    """Concentrating cost report, one branch per stage (``_branch_walk``).

    A labeling of N vertices builds N − 1 merge protocols.  The report
    equals the ``cost_report`` of ``run_concentrating`` in the same mode,
    under any branch budget and seed.
    """
    order = _ordered(tree, labeling)
    edges, _ = _branch_walk(code, tree, order, mode=mode, rank_rtol=rank_rtol)
    return _sorted_edge_costs("concentrate", edges)


# -- comparisons and labeling search -------------------------------------------


@dataclass(frozen=True)
class CostComparison:
    spread: CostReport
    concentrate: CostReport
    labeling: tuple[str, ...]

    @property
    def concentrate_never_exceeds(self) -> bool:
        sp = self.spread.by_child()
        return all(e.k <= sp[e.child] for e in self.concentrate.edges)


def compare_costs(
    code: IsometryCode,
    tree: RootedTree,
    labeling=None,
    *,
    mode: str = "tight",
    rank_rtol: float = RANK_RTOL,
) -> CostComparison:
    order = _ordered(tree, labeling)
    return CostComparison(
        spread=spreading_cost(code, tree, rank_rtol),
        concentrate=concentrating_cost(code, tree, order, mode=mode, rank_rtol=rank_rtol),
        labeling=order,
    )


def _set_stage_costs(
    code: IsometryCode, tree: RootedTree, *, mode: str, rank_rtol: float
) -> dict[tuple[frozenset[str], str], EdgeCost]:
    """Edge cost of every stage, keyed by (set merged before it, its vertex).

    A stage's K depends on the set and the vertex alone
    (``_branch_walk``), so the walk carries only the first live outcome
    of each stage, and builds one merge protocol per (set, vertex) stage.
    It goes no deeper from a set it has already walked.  Only the costs
    are kept, and a stage is freed once the walk has moved past it, so at
    most n − 1 stages are alive at once.
    """
    edges: dict[tuple[frozenset[str], str], EdgeCost] = {}
    walked: set[frozenset[str]] = set()

    def walk(merged, branch):
        for vertex in tree.vertices:
            # mergeable: not the root, not merged yet, every child merged
            kids = tree.children(vertex)
            if vertex == tree.root or vertex in merged or not merged.issuperset(kids):
                continue
            stage = _concentrate_stage([branch], tree, vertex, mode=mode, rank_rtol=rank_rtol)
            edges[merged, vertex] = stage.edge
            grown = merged | {vertex}
            if grown not in walked:
                walked.add(grown)
                walk(grown, stage.live[0])

    walk(frozenset(), _first_branch(code))
    return edges


def optimize_labeling(
    code: IsometryCode,
    tree: RootedTree,
    *,
    mode: str = "tight",
    limit: int = LABELING_ENUMERATION_LIMIT,
    rank_rtol: float = RANK_RTOL,
) -> tuple[tuple[str, ...], CostReport, dict[tuple[str, ...], float]]:
    """Search all ascending labelings for the cheapest concentrating total.

    Returns the winner, its cost report (equal to ``concentrating_cost``
    on it in the same mode) and every candidate's total.  Ties break
    lexicographically on the labeling tuple.  Raises TooLarge when the labeling count exceeds ``limit``.
    Each candidate's edges are read from the per-set stage costs of
    ``_set_stage_costs``, which follow one branch per merged set.
    """
    candidates = tree.ascending_labelings(limit)
    _check_parties(code, tree)
    edges = _set_stage_costs(code, tree, mode=mode, rank_rtol=rank_rtol)
    best = None
    totals: dict[tuple[str, ...], float] = {}
    for cand in candidates:
        suffix = cand[:0:-1]
        report = _sorted_edge_costs(
            "concentrate",
            [edges[frozenset(suffix[:i]), suffix[i]] for i in range(len(suffix))],
        )
        totals[cand] = report.total_log2
        key = (report.total_log2, cand)
        if best is None or key < best[0]:
            best = (key, cand, report)
    assert best is not None
    return best[1], best[2], totals
