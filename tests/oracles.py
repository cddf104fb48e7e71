"""Reference helpers the tests share: random states, phase-blind equality,
Bell bases and the column phase rule."""

from __future__ import annotations

import math

import numpy as np

from treecast.tensors import PureState, overlap


def random_state(registers, rng) -> PureState:
    """Haar-distributed pure state on the given registers."""
    regs = tuple(registers)
    dim = math.prod(r.dim for r in regs)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(regs, v / np.linalg.norm(v))


def states_equal_up_to_phase(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    """True iff |<a|b>| = |a||b| within ``tol`` (identical up to global phase).

    Register orders are aligned by id when both states carry the same id
    set; otherwise dims must already agree positionally.
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
