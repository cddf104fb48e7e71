"""Exception hierarchy for treecast.

Errors are grouped by where they arise: malformed values and invalid
requests (input errors), failures of the numerical protocol synthesizer,
and verification failures.  The CLI maps these groups onto exit codes.
"""

from __future__ import annotations


class TreecastError(Exception):
    """Base class for all treecast errors."""


class InputError(TreecastError):
    """Invalid value, document, or request (CLI exit code 2)."""


# --- register / tensor layer -------------------------------------------------

class DuplicateRegister(InputError):
    """A state or map would contain two registers with the same id."""


class UnknownRegister(InputError):
    """A referenced register id is not present in the state."""


class BadPermutation(InputError):
    """A register permutation is not a bijection on the state's registers."""


class ShapeMismatch(InputError):
    """An operand's shape is inconsistent with its declared registers."""


# --- network layer -----------------------------------------------------------

class BadEdge(InputError):
    """An edge is malformed (self-loop, repeated, or unknown endpoint)."""


class NotConnected(InputError):
    """The graph does not connect all declared vertices."""


class HasCycle(InputError):
    """The graph contains a cycle, so it is not a tree."""


class UnknownVertex(InputError):
    """A referenced vertex name is not part of the network."""


class UnknownEdge(InputError):
    """A referenced edge is not part of the network."""


class NotAscending(InputError):
    """A labeling does not rank every parent before its children."""


class TooLarge(InputError):
    """A request exceeds a size cap: labelings to enumerate, or code matrix entries."""


# --- code layer --------------------------------------------------------------

class NotIsometry(InputError):
    """An encoding matrix fails the isometry test."""


class DimensionMismatch(InputError):
    """Declared dimensions are inconsistent with the supplied matrix."""


class UnknownBuiltin(InputError):
    """A builtin code name is not recognized."""


class PartyMismatch(InputError):
    """Code parties and network vertices do not agree."""


# --- decomposition / protocol layer -----------------------------------------

class NumericalDegeneracy(TreecastError):
    """Spectral gaps fall inside the tolerance band; block structure is ambiguous
    (CLI exit code 3)."""


class InsufficientResource(InputError):
    """The requested entangled resource is smaller than the protocol needs."""


class ZeroProbabilityBranch(InputError):
    """A fixed outcome sequence selects a branch of (numerically) zero probability."""


class SynthesisFailed(TreecastError):
    """The numerical protocol synthesizer did not converge (CLI exit code 3)."""


class VerificationFailed(TreecastError):
    """A constructed protocol deviates beyond tolerance (CLI exit code 4)."""


class SchemaError(InputError):
    """An input document does not match the expected schema."""
