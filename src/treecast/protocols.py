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
locally, and finally inverts the encoding.  All branches of a stage
share one register layout, so they are carried, and replayed, as rows of
one array, and a stage builds their merges together, a chunk of rows at
a time.  Every branch of a stage needs the same K, so the per-edge
cost is the K of the first branch's protocol, and every other branch's
protocol is built at that K, consuming the provisioned resource in full.
The cost reports (``concentrating_cost``, ``compare_costs``, the
labeling search) follow one branch per stage; only
``run_concentrating`` builds them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import REFERENCE_ID, IsometryCode, encoded_pair, reference_pair
from .config import PROB_TOL, RANK_RTOL, VERIFY_TOL
from .errors import (
    InputError,
    InsufficientResource,
    SynthesisFailed,
    TooLarge,
    TreecastError,
    UnknownEdge,
    VerificationFailed,
)
from .merge_split import (
    MergeProtocol,
    SplitProtocol,
    _fallback_rows,
    _merge_post_rows,
    _post_registers,
    _split_compress,
    _split_fan_out,
    _tight_rows,
    build_split_protocol,
    correction_rows_event,
    isometry_event,
    split_cost,
)
from .network import RootedTree
from .tensors import PureState, Register, _group_rows, apply_event, overlap, row_norms

# leaves replayed at once by run_concentrating: bounds the replay's arrays
REPLAY_ROWS = 1024
# live rows a stage builds at once: bounds the build's arrays
STAGE_ROWS = 16
# merged sets the labeling search walks at most: star:11 has 1,024
MERGED_SET_LIMIT = 1024
# squared amplitude counts of the rows one stacked labeling-search build
# takes: bounds its arrays, which grow with each row's squared dimension
STACK_ENTRIES = 2**16

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

    Each edge compresses the state once (``_split_compress``), then fans
    out one Pauli-shift row of K outcomes at a time (``_split_fan_out``),
    so at most K branch states are alive at once, and compares each
    outcome with outcome 0 by ``np.vdot`` on the rows.  A deviation above
    ``VERIFY_TOL``, or a NaN one, raises VerificationFailed.
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
        mat, regs = _split_compress(proto, state.amplitudes[None], state.registers)
        k, ref, devs = mat.shape[1], None, [0.0]  # the buffer: K, or 1 for trivial registers
        for row in np.arange(k * k).reshape(k, 1, k):
            out = _split_fan_out(proto, mat, row)[1][0]
            if ref is None:
                ref, out = out[0], out[1:]
            devs += [abs(abs(np.vdot(branch, ref)) - 1.0) for branch in out]
        dev = float(np.max(devs))
        if not dev <= VERIFY_TOL:
            raise VerificationFailed(f"split outcomes at edge ({parent}, {child}) disagree by {dev:.2e}")
        worst_dev = max(worst_dev, dev)
        state = PureState(regs, ref)
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


@dataclass(frozen=True, eq=False)
class _Rows:
    """Live branches as rows of one array, all over the register layout ``regs``."""

    paths: list[tuple[int, ...]]  # outcomes so far, (m_N, …), per row
    probs: np.ndarray  # path probability per row
    amps: np.ndarray  # (rows, dim): the normalized branch states
    regs: tuple[Register, ...]

    def take(self, rows) -> _Rows:
        """The rows at the indices ``rows``, in that order."""
        rows = list(rows)
        return _Rows([self.paths[i] for i in rows], self.probs[rows], self.amps[rows], self.regs)


def _roles_for(regs, party: str):
    """(R, A, B) register ids for ``party`` merging what it holds in ``regs``."""
    a_ids = tuple(r.id for r in regs if r.owner == party)
    b_ids = tuple(r.id for r in regs if r.id != REFERENCE_ID and r.owner != party)
    return ((REFERENCE_ID,), a_ids, b_ids)


def _stage_ids(tree: RootedTree, vertex: str) -> dict:
    """The ids of ``vertex``'s merges: the root receives, and the parent holds B₀."""
    return dict(receiver=tree.root, b0_owner=tree.parent(vertex),
                a0_id=f"ent:{vertex}:A0", b0_id=f"ent:{vertex}:B0")


def _stage_protocols(amps, regs, roles, *, mode, k, **common):
    """Each row's merge protocol at K = ``k``, or its own K when None.

    Fallback mode builds the rows together (``_fallback_rows``) and also
    returns their live post rows.  Tight mode builds them together too
    (:func:`_tight_merges`) and returns None for the post rows; the first
    row's error, if any, is raised.
    """
    if mode == "fallback":
        return _fallback_rows(amps, regs, roles, k=k, **common)
    rank_rtol = common.pop("rank_rtol")
    protos = _tight_merges([(row, regs, roles, common) for row in amps], k=k, rank_rtol=rank_rtol)
    for proto in protos:
        if isinstance(proto, TreecastError):
            raise proto
    return protos, None


def _tight_merges(rows, *, k, rank_rtol):
    """``_tight_rows``, with each row whose tight build fails synthesis built by the fallback alone."""
    protos = _tight_rows(rows, k=k, rank_rtol=rank_rtol)
    for b, ((amps, regs, roles, ids), proto) in enumerate(zip(rows, protos)):
        if isinstance(proto, SynthesisFailed):
            try:
                protos[b] = _fallback_rows(amps[None], regs, roles, k=k, rank_rtol=rank_rtol, **ids)[0][0]
            except TreecastError as exc:
                protos[b] = exc
    return protos


def _merged_rows(protos, posts, amps, regs):
    """Row b measured by ``protos[b]`` on each outcome its ``zero_mask`` leaves live.

    ``posts`` holds (rows, live outcomes, probabilities, post rows) per
    group of rows when the build gave them; otherwise rows of one kind
    (tight or fallback) with the same live outcomes are measured together
    (``_merge_post_rows``).  Returns (source row, outcome, probability,
    unnormalized post row) per branch, in row order then outcome order,
    and the post rows' registers.
    """
    if posts is None:
        groups: dict[tuple, list[int]] = {}
        for b, proto in enumerate(protos):
            groups.setdefault((proto.zero_mask, proto.frame is None), []).append(b)
        posts = []
        for (mask, _), rows in groups.items():
            wanted = [m for m, dead in enumerate(mask) if not dead]
            picked = amps if len(rows) == len(amps) else amps[rows]
            probs, block, _ = _merge_post_rows([protos[b] for b in rows], picked, regs, wanted)
            posts.append((rows, wanted, probs, block))
    parts = [(np.array(rows).repeat(len(wanted)), np.array(wanted * len(rows)),
              probs.reshape(-1), block.reshape(probs.size, -1))
             for rows, wanted, probs, block in posts]
    if len(parts) > 1:
        order = np.argsort(np.concatenate([part[0] for part in parts]), kind="stable")
        parts = [[np.concatenate(column)[order] for column in zip(*parts)]]
    return (*parts[0], _post_registers(protos[0], regs))


@dataclass(frozen=True, eq=False)
class _Stage:
    edge: EdgeCost
    records: dict[tuple[int, ...], MergeStepRecord]
    live: _Rows  # branches entering stage k−1
    explored_all: bool = True  # no branch was sampled out


def _concentrate_stage(
    live: _Rows, tree: RootedTree, vertex: str, *, mode: str, rank_rtol: float,
    budget: int | None = None, seed: int = 0, level: int = 0, built=None,
) -> _Stage:
    """``vertex`` merges what it holds into the root's collective, on every live branch.

    The first branch's protocol is built as the cost walk builds it, and
    its K is the edge's: every branch of a stage needs the same K
    (``_branch_walk``), so every other branch is built at that K, and
    one that needs more raises SynthesisFailed.  Protocols depend only
    on the branch states, so the stage is a function of (live, vertex).
    After the first, rows are built ``STAGE_ROWS`` at a time, and
    post-states are built only for the outcomes a protocol's
    ``zero_mask`` leaves live.  When more than ``budget`` branches are
    live, ``budget`` of them are kept before any gets its path,
    probability or normalized row: the all-zero path if live, and others
    drawn from a generator made from ``seed`` and ``level`` alone.
    ``built`` holds the rows' protocols when the caller built them.
    """
    parent = tree.parent(vertex)
    roles = _roles_for(live.regs, vertex)
    common = dict(rank_rtol=rank_rtol, **_stage_ids(tree, vertex))
    k_edge = None
    records: dict[tuple[int, ...], MergeStepRecord] = {}
    chunks = []  # (source row, outcome, probability, unnormalized post row) per live branch
    # the first row alone, as the cost walk builds it, then the rest at its K
    bounds = [0, *range(1, len(live.paths), STAGE_ROWS), len(live.paths)]
    for lo, hi in zip(bounds, bounds[1:]):
        prefixes, amps = live.paths[lo:hi], live.amps[lo:hi]
        try:
            protos, posts = (built[lo:hi], None) if built is not None else _stage_protocols(
                amps, live.regs, roles, mode=mode, k=k_edge, **common)
        except InsufficientResource:
            msg = f"edge ({parent}, {vertex}): a branch needs more than the first's K={k_edge}"
            raise SynthesisFailed(msg) from None
        k_edge = protos[0].k
        records.update((prefix, MergeStepRecord(vertex, proto)) for prefix, proto in zip(prefixes, protos))
        src, outcomes, p_m, posts, regs = _merged_rows(protos, posts, amps, live.regs)
        kept = p_m >= PROB_TOL
        chunks.append((lo + src, outcomes, p_m, posts) if kept.all() else
                      (lo + src[kept], outcomes[kept], p_m[kept], posts[kept]))
    *columns, blocks = zip(*chunks)
    src, outcomes, p_m = map(np.concatenate, columns)
    explored_all = budget is None or len(src) <= budget
    if not explored_all:
        zero = np.array([not any(path) for path in live.paths])[src] & (outcomes == 0)
        keep, rest = np.flatnonzero(zero), np.flatnonzero(~zero)
        sampler = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(level,)))
        drawn = sampler.choice(len(rest), size=min(len(rest), max(0, budget - len(keep))), replace=False)
        # rows keep lexicographic path order, so the all-zero path, if live, is the first
        picked = np.concatenate([keep, rest[np.sort(drawn)]])
        ends = np.cumsum([len(block) for block in blocks])
        parts = np.split(picked, np.searchsorted(picked, ends[:-1]))
        blocks = [block[part - end + len(block)] for block, part, end in zip(blocks, parts, ends)]
        src, outcomes, p_m = src[picked], outcomes[picked], p_m[picked]
    posts = np.concatenate(blocks)
    posts /= row_norms(posts)
    paths = [live.paths[b] + (m,) for b, m in zip(src.tolist(), outcomes.tolist())]
    rows = _Rows(paths, live.probs[src] * p_m, posts, regs)
    return _Stage(EdgeCost(parent, vertex, k_edge), records, rows, explored_all)


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
    ``branch_budget`` (at least 1) caps how many branches stay live after
    each stage: the all-zero outcome path is always kept, and the others
    are drawn from a generator made from ``seed`` and the stage alone,
    before the stage expands them.  With no budget the walk is
    exhaustive.  Every leaf is replayed and decoded, ``REPLAY_ROWS``
    leaves at a time (``_replay_root_corrections``).  The cost report
    equals ``concentrating_cost``, which follows one branch.
    """
    if branch_budget is not None and branch_budget < 1:
        raise InputError(f"a branch budget keeps at least one branch, not {branch_budget}")
    _check_parties(code, tree)
    order = _ordered(tree, labeling)
    live = _first_branch(code)
    store: dict[int, dict[tuple[int, ...], MergeStepRecord]] = {}
    items = []
    explored_all = True
    fallback_edges = []

    for level in range(len(order), 1, -1):
        stage = _concentrate_stage(live, tree, order[level - 1], mode=mode, rank_rtol=rank_rtol,
                                   budget=branch_budget, seed=seed, level=level)
        if any(rec.protocol.strategy == "fallback-teleport" for rec in stage.records.values()):
            fallback_edges.append(stage.edge.child)
        items.append(stage.edge)
        store[level], live = stage.records, stage.live
        explored_all = explored_all and stage.explored_all

    branches = []
    for lo in range(0, len(live.paths), REPLAY_ROWS):
        chunk = live.take(range(lo, min(lo + REPLAY_ROWS, len(live.paths))))
        paths, probs = chunk.paths, chunk.probs.tolist()
        final, regs = _replay_root_corrections(code, order, store, paths, chunk.amps, chunk.regs)
        fids = _fidelities(code, final, regs).tolist()
        branches += map(ConcentrateBranch, paths, probs, fids)

    return ConcentrateResult(
        cost_report=_sorted_edge_costs("concentrate", items),
        labeling=order,
        steps=store,
        branches=tuple(branches),
        coverage=float(sum(live.probs.tolist())),
        explored_all=explored_all,
        min_fidelity=min([1.0] + [br.fidelity for br in branches]),
        mode=mode,
        fallback_edges=tuple(sorted(fallback_edges)),
    )


def _replay_root_corrections(code: IsometryCode, order, store, paths, amps, regs):
    """Ascending replay of the deferred isometries on rows, then decode at the root.

    Row b of ``amps`` is a branch state over the registers ``regs`` that
    followed the outcomes ``paths[b]`` = (m_N, …, m_2).  No correction
    acts on the reference register.  Each stage is one event
    (``correction_rows_event``): the one correction every row walks, or
    else a stack of each row's own.  A stage whose records all fell back
    acts on B₀ alone, by w_m, with U_m = w_m ⊗ 1_B never formed; a tight
    or mixed stage carries the dense U_m.  The decoder is one more event.
    Returns the decoded rows and their registers.
    """
    n = len(order)
    # the reference register last, so every event's outputs splice in at
    # the front, with no transposed copy
    front = [r for r in regs if r.id != REFERENCE_ID]
    grouped, rest = _group_rows(amps, regs, [r.id for r in front])
    amps, regs = grouped.reshape(len(amps), -1), (*front, *rest)
    table = np.array(paths).reshape(len(paths), n - 1)
    for j in range(2, n + 1):
        outcomes = table[:, n - j]
        # the first row of each run of rows through the same record
        heads = [0, *(np.flatnonzero((table[1:, : n - j] != table[:-1, : n - j]).any(axis=1)) + 1)]
        bounds = zip(heads, [*heads[1:], len(paths)])
        runs = [(store[j][paths[lo][: n - j]].protocol, outcomes[lo:hi]) for lo, hi in bounds]
        amps, regs, _ = apply_event(amps, regs, correction_rows_event(runs))
    held = {r.id: r for r in regs}
    phys, logical = [held[p] for p in code.parties], Register("L", code.logical_dim, order[0])
    decode = isometry_event(order[0], code.matrix.conj().T, phys, [logical], kind="root-correction")
    return apply_event(amps, regs, decode)[:2]


def _fidelities(code: IsometryCode, final: np.ndarray, regs) -> np.ndarray:
    """|⟨leaf|Φ⁺_D⟩| per decoded row, 0 where the row's norm is off by over 1e-6.

    Norms and overlaps are one-row dot products on (R, L), so every digit
    equals that of ``np.linalg.norm`` and ``np.vdot`` on the leaf alone.
    """
    x = _group_rows(final, regs, [REFERENCE_ID, "L"])[0].reshape(len(final), 1, -1)
    norms = row_norms(x)[:, :, None]
    held = np.abs(norms - 1.0) <= 1e-6
    target = reference_pair(code.logical_dim).amplitudes[:, None]
    overlaps = np.abs((x / np.where(held, norms, 1.0)).conj() @ target)
    return np.where(held, overlaps, 0.0).reshape(-1)


def _first_branch(code: IsometryCode) -> _Rows:
    """The branch entering the first stage: no outcomes yet, the encoded pair."""
    psi = encoded_pair(code).normalized()
    return _Rows([()], np.ones(1), psi.amplitudes[None], psi.registers)


def _branch_walk(
    code: IsometryCode, tree: RootedTree, order, outcomes=None, *, mode: str, rank_rtol: float
):
    """Stages of ``order`` on one branch: (their edge costs, the one-row branch reached).

    A stage's K depends only on the merged set S and the vertex, not on
    the order S merged in nor on the branch; the tests check this on
    every order of their search inputs.  It is not that a branch equals
    the regrouped code state up to local unitaries: tight K can change
    under a local unitary on one party.  So each stage is built on the
    one branch the walk carries.  With ``outcomes`` None the walk runs all
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
        stage = _concentrate_stage(branch, tree, order[level - 1], mode=mode, rank_rtol=rank_rtol)
        edges.append(stage.edge)
        if m is None:
            branch = stage.live.take([0])
            continue
        count = len(stage.records[branch.paths[0]].protocol.probs)
        if not 0 <= m < count:
            raise InputError(f"stage {level} has outcomes 0..{count - 1}, not {m}")
        taken = [row for row, path in enumerate(stage.live.paths) if path[-1] == m]
        if not taken:
            raise InputError(f"stage {level} outcome {m} has zero probability")
        branch = stage.live.take(taken)
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


def optimize_labeling(
    code: IsometryCode,
    tree: RootedTree,
    *,
    mode: str = "tight",
    rank_rtol: float = RANK_RTOL,
) -> tuple[tuple[str, ...], CostReport]:
    """The ascending labeling of least concentrating cost, and its cost report.

    A stage's K depends on the set merged before it and its vertex alone
    (``_branch_walk``), so each (set, vertex) stage is built once, on one
    branch, in two phases.  First the merged sets are walked level by
    level from ∅ (:func:`_level_stages`): a level's tight merges are built
    together (:func:`_tight_merges`), and each new set carries the first
    live branch of the first stage that reaches it.  Stages are taken in
    order of set, then vertex, so that is the branch of the set's
    lexicographically least merge sequence, the one a depth-first walk in
    vertex order carries.  Then a pass over the recorded K keeps per set
    the cheapest way to merge the vertices left: the least exact product
    of K, ties going to the lexicographically first labeling.  The report
    equals ``concentrating_cost`` on the winner in the same mode.  Memory
    is bounded by one level's branches, one row per merged set (at most
    252 on star:11), with the next level's growing beside it, and by one
    stacked call's protocols: no stage outlives its turn.  An error is the one the depth-first walk meets
    first.  Raises TooLarge, before any stage is built, when the tree has
    more than ``MERGED_SET_LIMIT`` merged sets.
    """
    sets = tree.count_merged_sets()
    if sets > MERGED_SET_LIMIT:
        raise TooLarge(f"{sets} merged sets exceed the labeling search limit {MERGED_SET_LIMIT}")
    _check_parties(code, tree)
    edges = _level_stages(code, tree, mode=mode, rank_rtol=rank_rtol)
    best: dict[frozenset[str], tuple[int, tuple[str, ...], tuple[EdgeCost, ...]]] = {}
    for merged in reversed(edges):  # every set after the sets it grows into
        options = []
        for edge in edges[merged]:
            product, head, rest = best[merged | {edge.child}]
            options.append((edge.k * product, head + (edge.child,), (edge, *rest)))
        best[merged] = min(options, default=(1, (tree.root,), ()))
    _, labeling, chosen = best[frozenset()]
    return labeling, _sorted_edge_costs("concentrate", chosen)


def _level_stages(code: IsometryCode, tree: RootedTree, *, mode: str, rank_rtol: float):
    """Every merged set's stage edges, in vertex order, built level by level.

    Each set holds one branch, and a set's stages are built on it; a
    level's tight merges are built together (:func:`_level_merges`).  Sets
    come out level by level, each level in the order its sets were first
    reached.  When a stage raises, only stages of lexicographically smaller
    merge sequences, which a depth-first walk in vertex order builds
    first, still run, and the error of the least failing one is raised.
    """
    edges: dict[frozenset[str], list[EdgeCost]] = {}
    level = {frozenset(): ((), _first_branch(code))}  # per set: its merge sequence and branch
    failed = None  # (merge sequence, error) of the least failing stage
    while level:
        edges.update((merged, []) for merged in level)
        pairs = [(merged, vertex) for merged, (order, _) in level.items() for vertex in tree.vertices
                 if vertex != tree.root and vertex not in merged and merged.issuperset(tree.children(vertex))
                 and (failed is None or order + (vertex,) < failed[0])]
        built = [None] * len(pairs)
        if mode == "tight":
            built = _level_merges([(level[merged][1], vertex) for merged, vertex in pairs], tree, rank_rtol)
        grown = {}
        for (merged, vertex), proto in zip(pairs, built):
            order, branch = level[merged]
            try:
                if isinstance(proto, TreecastError):
                    raise proto
                stage = _concentrate_stage(branch, tree, vertex, mode=mode, rank_rtol=rank_rtol,
                                           built=None if proto is None else [proto])
            except TreecastError as exc:
                failed = (order + (vertex,), exc)  # the level's later stages come later depth-first
                break
            edges[merged].append(stage.edge)
            if merged | {vertex} not in grown:
                grown[merged | {vertex}] = (order + (vertex,), stage.live.take([0]))
        level = grown
    if failed is not None:
        raise failed[1]
    return edges


def _level_merges(rows, tree: RootedTree, rank_rtol: float):
    """The tight merge of each (branch, vertex) in ``rows``, as its stage builds it, in stacked calls.

    Each call takes consecutive rows while their squared amplitude counts
    sum to at most ``STACK_ENTRIES``, and at least one row.  Calls are
    made as the protocols are read, so one call's are held at a time.
    """
    chunk, held = [], 0
    for branch, vertex in rows:
        size = branch.amps[0].size ** 2
        if chunk and held + size > STACK_ENTRIES:
            yield from _tight_merges(chunk, k=None, rank_rtol=rank_rtol)
            chunk, held = [], 0
        chunk.append((branch.amps[0], branch.regs, _roles_for(branch.regs, vertex), _stage_ids(tree, vertex)))
        held += size
    if chunk:
        yield from _tight_merges(chunk, k=None, rank_rtol=rank_rtol)
