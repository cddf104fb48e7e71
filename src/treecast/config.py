"""Global numerical tolerances and size caps.

All ranks are decided relative to the largest eigenvalue (or singular
value) of the operator in question; ``RANK_RTOL`` is that relative
threshold and is the single knob most computations share.  The remaining
constants pin down when validators accept a matrix as an isometry, when
a protocol branch counts as exact, and when a probability is treated as
zero.
"""

from __future__ import annotations

# Relative eigenvalue / singular-value threshold for every rank decision.
RANK_RTOL = 1e-8

# Largest share of an operator's trace a rank cut may drop.  More is real
# weight, not rounding noise: no exact protocol exists at the cut's rank.
DISCARD_TOL = 1e-10

# Acceptance threshold for isometry validation (encodings, corrections).
ISOMETRY_TOL = 1e-9

# Maximum per-branch residual for a protocol to count as exact.
VERIFY_TOL = 1e-9

# Probability mass below this is treated as an impossible branch.
PROB_TOL = 1e-12

# Largest Bell basis, in entries (K⁴), that a trace names as {"bell": K}
# and that the split tables are kept for, once per K: K ≤ 32.
MAX_BELL_ENTRIES = 2**20

# Most parties a code may have, and so most vertices a tree may have.  NumPy
# arrays have at most 64 axes, and the most a run reshapes rows to is 4 + N:
# the rows axis, R, one per party, and the resource halves A₀ and B₀ a split
# (or a traced merge) attaches while every other register is still held.
MAX_PARTIES = 60
