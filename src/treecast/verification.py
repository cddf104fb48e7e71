"""Channel-level checks: replay stored protocols on fresh random inputs.

The tree drivers certify themselves branch-exhaustively on the encoded
maximally entangled state.  Because any linear map is determined by its
action on that state, the exhaustive check already pins every branch's
Kraus operator on the code subspace — so the induced channel is exact
on *every* input.  This module witnesses that conclusion directly: it
draws random density operators, purifies them through the reference
register, pushes the purification through the stored protocol operators
along sampled outcome paths, and measures the trace distance between
the output density operator and the target.

A spreading run ends in a pure state on (R, physical registers), so both
physical marginals are A A† and B B† for amplitude matrices A and B with
at most D = dim R columns.  Their trace distance is taken in the range
of [A B] (:func:`~treecast.tensors.range_trace_distance`): one reduced
QR and one eigvalsh of side ≤ 2D, never a dense marginal.  Each sampled
split outcome comes from :func:`~treecast.merge_split.split_post_states`
(through ``execute_split``): one compression and one Bell contraction
with Φ⁺_K folded in, never the state with the resource attached.

The concentrating check stacks its samples on the reference register,
which no merge or correction touches: each sampled path is one walk and
one replayed row for all samples at once.

Two structural facts make the replay well-defined:

* every intermediate branch state keeps the reference marginal
  maximally mixed, so outcome probabilities do not depend on the input
  (the recorded path probabilities are reproduced verbatim), and
* an outcome pruned at (numerically) zero probability during the
  encoded-pair run has a Kraus operator annihilating the whole code
  subspace, so no valid input can steer the protocol onto a missing
  branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import REFERENCE_ID, IsometryCode
from .errors import InputError, VerificationFailed
from .merge_split import execute_split, merge_post_state
from .network import RootedTree
from .protocols import (
    ConcentrateResult,
    SpreadResult,
    _replay_root_corrections,
    run_concentrating,
    run_spreading,
)
from .tensors import (
    PureState,
    Register,
    _group_first,
    _group_rows,
    range_trace_distance,
    trace_distance,
)

DEFAULT_CHANNEL_TOL = 1e-8
# outcome paths sampled per input beside the all-zero one
EXTRA_PATHS = 2


@dataclass(frozen=True)
class ChannelCheck:
    """Outcome of replaying one protocol on random inputs."""

    direction: str  # "spread" | "concentrate"
    samples: int
    paths_per_sample: int
    max_trace_distance: float
    max_probability_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_trace_distance <= self.tol


def random_input(rng, dim: int) -> np.ndarray:
    """Purification amplitudes psi[r, l] of a Hilbert-Schmidt random density.

    Tracing out the first (reference) index of the normalized Ginibre
    matrix yields a generically full-rank density operator on C^dim.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g / np.linalg.norm(g)


def _encoded_input(code: IsometryCode, psi: np.ndarray) -> PureState:
    """(1 ⊗ U)|psi⟩ on (R, physical registers), ids as in encoded_pair; R indexes psi's rows."""
    amps = np.einsum("pl,rl->rp", code.matrix, psi).reshape(-1)
    ref = Register(REFERENCE_ID, psi.shape[0], "reference")
    return PureState((ref,) + code.physical_registers(), amps)


def verify_spreading_channel(
    code: IsometryCode,
    tree: RootedTree,
    result: SpreadResult | None = None,
    *,
    samples: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_CHANNEL_TOL,
    labeling=None,
) -> ChannelCheck:
    """Replay the stored spreading protocol on random density inputs.

    Each input is purified through the reference register, pushed
    through every split along the all-zero outcome path plus
    ``EXTRA_PATHS`` uniformly sampled paths, and the reduced output on
    the physical registers is compared to U rho U† in trace distance,
    taken in the range of the two amplitude matrices.
    """
    if samples < 1:
        raise InputError("the spreading check needs at least one sample")
    if result is None:
        result = run_spreading(code, tree, labeling)
    rng = np.random.default_rng(seed)
    # the splits may leave the physical registers out of code order (a
    # labeling not in party order does); group both states in the output's
    # order, as (physical, rest) amplitude matrices with ≤ D columns
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
        target_amps = _group_first(target, phys)[0]
        for p in range(n_paths):
            state = start
            for step in result.steps:
                n_out = step.protocol.k**2
                m = 0 if p == 0 else int(rng.integers(n_out))
                (branch,) = execute_split(step.protocol, state, outcomes=[m])
                worst_pdev = max(worst_pdev, abs(branch.probability - 1.0 / n_out))
                state = branch.state
            out_amps = _group_first(state, phys)[0]
            worst_td = max(worst_td, range_trace_distance(out_amps, target_amps))
    return ChannelCheck(
        direction="spread",
        samples=samples,
        paths_per_sample=n_paths,
        max_trace_distance=worst_td,
        max_probability_deviation=worst_pdev,
        tol=tol,
    )


def _pick_branch_paths(result: ConcentrateResult, rng):
    """The all-zero branch when present, plus sampled distinct others."""
    all_paths = [br.outcomes for br in result.branches]
    if not all_paths:
        raise VerificationFailed("concentrating result holds no verified branches")
    zeros = [p for p in all_paths if all(m == 0 for m in p)]
    first = zeros[0] if zeros else all_paths[0]
    rest = [p for p in all_paths if p != first]
    take = min(EXTRA_PATHS, len(rest))
    picked = rng.choice(len(rest), size=take, replace=False) if take else []
    return [first] + [rest[int(i)] for i in sorted(picked)]


def verify_concentrating_channel(
    code: IsometryCode,
    tree: RootedTree,
    result: ConcentrateResult | None = None,
    *,
    samples: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_CHANNEL_TOL,
    labeling=None,
) -> ChannelCheck:
    """Replay the stored concentrating protocol on random density inputs.

    Each input rho is encoded as a purified U rho U†, walked down the
    stored measurement records along sampled recorded branches, replayed
    through the deferred corrections, decoded, and compared to rho on
    the logical register in trace distance.  The recorded branch
    probability must reappear identically for every input.  The inputs
    ride the reference register stacked (R has dimension samples·D), and
    each sample's path probability is its block's squared norm.
    """
    if samples < 1:
        raise InputError("the stacked concentrating check needs at least one sample")
    if result is None:
        result = run_concentrating(code, tree, labeling)
    rng = np.random.default_rng(seed)
    n = len(result.labeling)
    paths = _pick_branch_paths(result, rng)
    psis = np.stack([random_input(rng, code.logical_dim) for _ in range(samples)])
    start = _encoded_input(code, psis.reshape(-1, code.logical_dim))
    walked = []
    for path in paths:
        state = start
        for k in range(n, 1, -1):
            rec = result.steps[k][path[: n - k]]
            state = merge_post_state(rec.protocol, state, path[n - k])[1]
        walked.append(state.amplitudes)
    amps, regs = np.stack(walked), state.registers
    # sample s holds reference indices s·D … s·D + D − 1
    per_ref = _group_rows(amps, regs, [REFERENCE_ID])[0].reshape(len(paths), samples, -1)
    by_path = {br.outcomes: br.probability for br in result.branches}
    pdev = np.linalg.norm(per_ref, axis=2) ** 2 - np.array([[by_path[p]] for p in paths])
    final, regs = _replay_root_corrections(code, result.labeling, result.steps, paths, amps, regs)
    per_l = _group_rows(final, regs, ["L", REFERENCE_ID])[0]
    outs = per_l.reshape(len(paths), code.logical_dim, samples, -1).transpose(0, 2, 1, 3)
    outs = outs / np.linalg.norm(outs, axis=(2, 3), keepdims=True)
    rho_out = outs @ outs.conj().swapaxes(2, 3)
    rho_target = np.einsum("srl,srm->slm", psis, psis.conj())
    distances = [trace_distance(*pair) for row in rho_out for pair in zip(row, rho_target)]
    return ChannelCheck(
        direction="concentrate",
        samples=samples,
        paths_per_sample=len(paths),
        max_trace_distance=float(np.max(distances)),
        max_probability_deviation=float(np.abs(pdev).max()),
        tol=tol,
    )


def verify_channels(
    code: IsometryCode,
    tree: RootedTree,
    *,
    labeling=None,
    samples: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_CHANNEL_TOL,
) -> dict[str, ChannelCheck]:
    """Both directions at once, each on a fresh run."""
    common = dict(samples=samples, seed=seed, tol=tol, labeling=labeling)
    return {
        "spread": verify_spreading_channel(code, tree, **common),
        "concentrate": verify_concentrating_channel(code, tree, **common),
    }
