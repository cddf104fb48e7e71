"""The fallback merge in closed form: a teleport of A's support through Φ⁺_K.

With f the phase-fixed eigenframe of ρ^A (rank n ≤ K ≤ dA), the teleport
block w_m of each head outcome's correction is a function of (f, n, K)
alone, computed here for a stack of frames at once.  So is each outcome's
post-state: a shifted, phased copy of the frame coordinates C = f† X,
gathered with no measurement formed.  A fallback record keeps f, and the
accessors in ``merge_split`` derive the rest: its measurement columns
are the shift injection of f[:, :n] completed by f[:, n:] ⊗ C^K.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import as_strided


@cache
def _fourier(n: int) -> np.ndarray:
    """The n-point Fourier matrix, read-only: every derivation reuses it."""
    idx = np.arange(n)
    mat = np.exp(2j * np.pi * np.outer(idx, idx) / n) / math.sqrt(n)
    mat.flags.writeable = False
    return mat


@cache
def _teleport_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables over head outcome m = p·n + q and B₀ index t, with a = (t − p) mod K.

    The frame column that head entry (t, m) reads (n where a ≥ n: none), as
    (K, K·n), and the phase ω_n^{qa} of w_m[:, t] (1 where a ≥ n), as
    (K·n, K).
    """
    p, q = np.divmod(np.arange(k * n), n)
    a = (np.arange(k) - p[:, None]) % k
    phases = np.where(a < n, np.exp(2j * np.pi * (q[:, None] * a % n) / n), 1.0)
    tables = (np.where(a < n, a, n).T, phases)
    for table in tables:
        table.flags.writeable = False
    return tables


@cache
def _post_tables(n: int, k: int, da: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables over every outcome m and B₀ index t: the row of C that post entry (m, t) reads, and its factor.

    Head outcome m = p·n + q reads C[a] · conj(ω_n^{qa}) / √(n·K) at
    a = (t − p) mod K where a < n; tail outcome m = K·n + j·K + l reads
    C[n + j] / √K at t = l.  Every other entry reads row dA, a zero pad,
    at a positive real factor, so it is +0.0.
    """
    reads, phases = _teleport_tables(n, k)
    j, l = np.divmod(np.arange((da - n) * k), k)
    index = np.concatenate([np.where(reads.T < n, reads.T, da),
                            np.where(np.arange(k) == l[:, None], n + j[:, None], da)])
    scale = np.concatenate([phases.conj() / math.sqrt(n * k), np.full((len(j), k), 1 / math.sqrt(k))])
    tables = (index, scale)
    for table in tables:
        table.flags.writeable = False
    return tables


def _teleport_posts(f: np.ndarray, n: int, k: int, mat: np.ndarray, outcomes) -> tuple[np.ndarray, np.ndarray]:
    """Uncorrected post rows of each rank-n frame in the stack ``f`` at ``outcomes``, and C = f† X.

    ``mat`` holds each row's X as (rows, dA, rest).  One matmul per row
    gives C, (rows, dA + 1, rest) with a zero pad row last; the posts,
    (rows, len(outcomes), rest·K) with B₀ fastest, are a gather from it
    (:func:`_post_tables`), as ``merge_split._bell_folded`` would give them
    from the measurement columns.
    """
    rows, da, rest = mat.shape
    c = np.zeros((rows, da + 1, rest), dtype=complex)
    np.matmul(f.conj().swapaxes(1, 2), mat, out=c[:, :da])
    index, scale = (table[outcomes] for table in _post_tables(n, k, da))
    flat = index[:, None, :] * rest + np.arange(rest)[:, None]  # (outcome, rest, t) into C
    posts = np.take(c.reshape(rows, -1), flat, axis=1)
    posts *= scale[:, None, :]
    return posts.reshape(rows, len(index), -1), c


def _teleport_blocks(f: np.ndarray, n: int, k: int, rows, outcomes) -> np.ndarray:
    """w_m (dA × K) of frame ``f[rows]`` (rank n) at head outcome m = ``outcomes``, broadcast together.

    With m = p·n + q, w_m[x, t] = ω_n^{qa} f[x, a] with a = (t − p) mod K
    (phase 1 where a ≥ n): f[:, :K] composed with a shift and phases.
    """
    doubled = np.concatenate([f[..., :k]] * 2, axis=-1)
    # column t of window s is doubled[..., s + t]: window K − p holds f[:, (t − p) mod K]
    windows = as_strided(doubled, (*doubled.shape[:-1], k + 1, k), (*doubled.strides, doubled.strides[-1]),
                         writeable=False)
    w = windows[rows, :, k - outcomes // n]
    w *= _teleport_tables(n, k)[1][outcomes][..., None, :]
    return w
