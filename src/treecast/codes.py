"""Isometry codes: a logical space embedded into one register per party.

A code is an isometry U from C^D into the tensor product of the
parties' physical spaces.  Everything downstream works on the encoded
maximally entangled state (1 ⊗ U)|Phi+_D>, which carries a reference
register R of dimension D alongside one physical register per party
(register id = party name).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .config import ISOMETRY_TOL, MAX_PARTIES
from .errors import (
    DimensionMismatch,
    NotIsometry,
    PartyMismatch,
    SchemaError,
    TooLarge,
    UnknownBuiltin,
)
from .tensors import LinearMap, PureState, Register, apply_map, max_entangled_pair

REFERENCE_ID = "R"

# Largest code matrix accepted from a builtin description or a code file,
# counted as D·∏ dims entries: 2**20 complex entries are 16 MiB.  Codes
# this large are already far beyond what the protocols can decompose.
MAX_CODE_ENTRIES = 2**20


def _check_size(logical_dim: int, dims) -> None:
    """Refuse more than MAX_PARTIES dims, or a D·∏ dims code matrix past MAX_CODE_ENTRIES.

    Stops at the first factor past either, so nothing is allocated.
    """
    entries = logical_dim
    for count, d in enumerate(dims, 1):
        if count > MAX_PARTIES:
            raise TooLarge(f"code has more than {MAX_PARTIES} parties")
        entries *= d
        if entries > MAX_CODE_ENTRIES:
            raise TooLarge(
                f"code matrix has more than {MAX_CODE_ENTRIES} entries (D·∏ dims)"
            )


@dataclass(frozen=True)
class IsometryCode:
    """An isometry C^D -> H^{v1} ⊗ ... ⊗ H^{vN} (columns = encoded basis)."""

    logical_dim: int
    parties: tuple[str, ...]
    physical_dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        parties = tuple(str(p) for p in self.parties)
        dims = tuple(int(d) for d in self.physical_dims)
        if len(parties) != len(set(parties)):
            raise PartyMismatch("party names must be unique")
        if len(parties) != len(dims):
            raise DimensionMismatch(
                f"{len(parties)} parties but {len(dims)} physical dimensions"
            )
        if len(parties) > MAX_PARTIES:
            raise TooLarge(f"code has more than {MAX_PARTIES} parties")
        if self.logical_dim < 1 or any(d < 1 for d in dims):
            raise DimensionMismatch("dimensions must be positive")
        mat = np.array(self.matrix, dtype=complex)
        total = math.prod(dims)
        if mat.shape != (total, self.logical_dim):
            raise DimensionMismatch(
                f"matrix shape {mat.shape} does not match ({total}, {self.logical_dim})"
            )
        gram = mat.conj().T @ mat
        if np.abs(gram - np.eye(self.logical_dim)).max() > ISOMETRY_TOL:
            raise NotIsometry("columns are not orthonormal within tolerance")
        mat.setflags(write=False)
        object.__setattr__(self, "parties", parties)
        object.__setattr__(self, "physical_dims", dims)
        object.__setattr__(self, "matrix", mat)

    def physical_registers(self) -> tuple[Register, ...]:
        return tuple(
            Register(p, d, p)
            for p, d in zip(self.parties, self.physical_dims)
        )

    def as_map(self, logical: Register) -> LinearMap:
        if logical.dim != self.logical_dim:
            raise DimensionMismatch(
                f"logical register has dimension {logical.dim}, code expects {self.logical_dim}"
            )
        return LinearMap((logical,), self.physical_registers(), self.matrix)


def encoded_pair(code: IsometryCode) -> PureState:
    """(1 ⊗ U)|Phi+_D>: reference register first, then one per party."""
    ref = Register(REFERENCE_ID, code.logical_dim, "reference")
    logical = Register("__logical__", code.logical_dim, code.parties[0])
    pair = max_entangled_pair(ref, logical)
    return apply_map(pair, code.as_map(logical))


def reference_pair(dim: int) -> PureState:
    """Bare |Phi+_D> between the reference and a logical register L."""
    ref = Register(REFERENCE_ID, dim, "reference")
    return max_entangled_pair(ref, Register("L", dim, "logical"))


def random_code(rng, logical_dim: int, physical_dims) -> IsometryCode:
    """Haar-random isometry code over the given physical dimensions."""
    dims = tuple(int(d) for d in physical_dims)
    total = math.prod(dims)
    if total < logical_dim:
        raise DimensionMismatch(
            f"cannot embed dimension {logical_dim} into total dimension {total}"
        )
    g = rng.standard_normal((total, logical_dim)) + 1j * rng.standard_normal(
        (total, logical_dim)
    )
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))  # make distribution Haar
    return IsometryCode(logical_dim, tuple(f"v{k + 1}" for k in range(len(dims))), dims, q)


# -- builtin codes ---------------------------------------------------------------

_FIVE_QUBIT_PLUS_0 = "00000 11000 01100 00110 00011 10001"
_FIVE_QUBIT_MINUS_0 = "10100 01010 00101 10010 01001 11110 01111 10111 11011 11101"
_FIVE_QUBIT_PLUS_1 = "11111 00111 10011 11001 11100 01110"
_FIVE_QUBIT_MINUS_1 = "01011 10101 11010 01101 10110 00001 10000 01000 00100 00010"


def _ket_sum(n_qubits: int, plus: str, minus: str) -> np.ndarray:
    col = np.zeros(2**n_qubits, dtype=complex)
    for word in plus.split():
        col[int(word, 2)] += 1.0
    for word in minus.split():
        col[int(word, 2)] -= 1.0
    return col / 4.0


def five_qubit_code() -> IsometryCode:
    """The [[5,1,3]] code, one qubit per party v1..v5."""
    cols = np.stack(
        [
            _ket_sum(5, _FIVE_QUBIT_PLUS_0, _FIVE_QUBIT_MINUS_0),
            _ket_sum(5, _FIVE_QUBIT_PLUS_1, _FIVE_QUBIT_MINUS_1),
        ],
        axis=1,
    )
    return IsometryCode(2, tuple(f"v{k}" for k in range(1, 6)), (2,) * 5, cols)


def star4_code() -> IsometryCode:
    """Four-party code |0> -> |0000>, |1> -> |+111> (the |+> at v1)."""
    c0 = np.zeros(16, dtype=complex)
    c0[0b0000] = 1.0
    c1 = np.zeros(16, dtype=complex)
    c1[0b0111] = 1 / np.sqrt(2)
    c1[0b1111] = 1 / np.sqrt(2)
    return IsometryCode(2, ("v1", "v2", "v3", "v4"), (2,) * 4, np.stack([c0, c1], axis=1))


def ghz_code(n: int) -> IsometryCode:
    """|0> -> |0...0>, |1> -> |1...1> over n qubit parties."""
    if n < 1:
        raise DimensionMismatch("ghz code needs at least one party")
    _check_size(2, itertools.repeat(2, n))
    c0 = np.zeros(2**n, dtype=complex)
    c0[0] = 1.0
    c1 = np.zeros(2**n, dtype=complex)
    c1[-1] = 1.0
    return IsometryCode(2, tuple(f"v{k}" for k in range(1, n + 1)), (2,) * n, np.stack([c0, c1], axis=1))


def identity_code(dim: int, n: int) -> IsometryCode:
    """Logical space handed to v1 unchanged; v2..vN hold trivial systems."""
    if n < 1:
        raise DimensionMismatch("identity code needs at least one party")
    dims = (dim,) + (1,) * (n - 1)
    _check_size(dim, dims)
    return IsometryCode(dim, tuple(f"v{k}" for k in range(1, n + 1)), dims, np.eye(dim))


def product_code(physical_dims) -> IsometryCode:
    """v1 keeps the logical space; every other party gets a fixed |0>."""
    dims = tuple(int(d) for d in physical_dims)
    if not dims:
        raise DimensionMismatch("product code needs at least one party")
    if min(dims) < 1:
        raise DimensionMismatch(f"product code dimensions must be positive, got {dims}")
    d = dims[0]
    _check_size(d, dims)
    total = math.prod(dims)
    mat = np.zeros((total, d), dtype=complex)
    stride = total // d
    for j in range(d):
        mat[j * stride, j] = 1.0
    return IsometryCode(d, tuple(f"v{k}" for k in range(1, len(dims) + 1)), dims, mat)


def parse_code_spec(text: str) -> IsometryCode:
    """Resolve a builtin code description.

    Recognized forms: ``five_qubit``, ``star4``, ``ghz(N)``,
    ``identity(D)``, ``product(D)``, plus the extended colon forms
    ``ghz:N``, ``identity:D:N``, ``product:d1,d2,...``.
    """
    text = text.strip()
    paren = re.fullmatch(r"(\w+)\((\d+)\)", text)
    try:
        if paren:
            head, arg = paren.group(1), int(paren.group(2))
            if head == "ghz":
                return ghz_code(arg)
            if head == "identity":
                return identity_code(arg, 1)
            if head == "product":
                return product_code([arg, arg])
            raise UnknownBuiltin(f"unknown builtin code {text!r}")
        head, _, rest = text.partition(":")
        if head == "five_qubit" and not rest:
            return five_qubit_code()
        if head == "star4" and not rest:
            return star4_code()
        if head == "ghz":
            return ghz_code(int(rest))
        if head == "identity":
            d, n = rest.split(":")
            return identity_code(int(d), int(n))
        if head == "product":
            return product_code([int(x) for x in rest.split(",")])
    except (ValueError, TypeError):
        raise UnknownBuiltin(f"malformed code description {text!r}")
    raise UnknownBuiltin(f"unknown builtin code {text!r}")


def code_from_json(payload) -> IsometryCode:
    """Build a code from a parsed JSON document.

    Schema: ``{name?, builtin?, D, parties: [{name, dim}, ...],
    entries: [[row, col, re, im], ...]}``.  A ``builtin`` reference wins
    over explicit fields.
    """
    if not isinstance(payload, dict):
        raise SchemaError("code document must be a JSON object")
    if payload.get("builtin") is not None:
        builtin = payload["builtin"]
        if not isinstance(builtin, str):
            raise SchemaError("field 'builtin' must be a string")
        return parse_code_spec(builtin)
    missing = {"D", "parties", "entries"} - set(payload)
    if missing:
        raise SchemaError(f"code document is missing fields {sorted(missing)}")
    if not isinstance(payload["D"], int) or payload["D"] < 1:
        raise SchemaError("field 'D' must be a positive integer")
    d_logical = payload["D"]
    parties_field = payload["parties"]
    if not isinstance(parties_field, list) or not parties_field:
        raise SchemaError("field 'parties' must be a non-empty list")
    parties: list[str] = []
    dims: list[int] = []
    for i, item in enumerate(parties_field):
        if (
            not isinstance(item, dict)
            or not isinstance(item.get("name"), str)
            or not isinstance(item.get("dim"), int)
            or item["dim"] < 1
        ):
            raise SchemaError(
                f"field 'parties[{i}]' must be {{name: string, dim: positive int}}"
            )
        parties.append(item["name"])
        dims.append(item["dim"])
    if len(set(parties)) != len(parties):
        raise SchemaError("field 'parties' repeats a party name")
    _check_size(d_logical, dims)
    total = math.prod(dims)
    entries = payload["entries"]
    if not isinstance(entries, list):
        raise SchemaError("field 'entries' must be a list of [row, col, re, im]")
    mat = np.zeros((total, d_logical), dtype=complex)
    seen: set[tuple[int, int]] = set()
    for i, item in enumerate(entries):
        if (
            not isinstance(item, list)
            or len(item) != 4
            or not all(isinstance(x, (int, float)) for x in item)
            or isinstance(item[0], float)
            or isinstance(item[1], float)
        ):
            raise SchemaError(
                f"field 'entries[{i}]' must be [row: int, col: int, re, im]"
            )
        row, col, re_part, im_part = item
        if not 0 <= row < total:
            raise SchemaError(f"field 'entries[{i}]' row {row} outside 0..{total - 1}")
        if not 0 <= col < d_logical:
            raise SchemaError(
                f"field 'entries[{i}]' col {col} outside 0..{d_logical - 1}"
            )
        if (row, col) in seen:
            raise SchemaError(f"field 'entries[{i}]' repeats position ({row}, {col})")
        seen.add((row, col))
        mat[row, col] = complex(re_part, im_part)
    return IsometryCode(d_logical, tuple(parties), tuple(dims), mat)


def code_to_document(code: IsometryCode, name: str | None = None) -> dict:
    """Sparse JSON document for a code (inverse of code_from_json)."""
    entries = []
    for row in range(code.matrix.shape[0]):
        for col in range(code.matrix.shape[1]):
            x = code.matrix[row, col]
            if x != 0:
                entries.append([row, col, float(x.real), float(x.imag)])
    doc = {
        "D": code.logical_dim,
        "parties": [
            {"name": p, "dim": d} for p, d in zip(code.parties, code.physical_dims)
        ],
        "entries": entries,
    }
    if name is not None:
        doc["name"] = name
    return doc


def load_code_named(text: str) -> tuple[IsometryCode, str | None]:
    """Resolve a builtin description or JSON file path; keep its name."""
    if not os.path.exists(text):
        return parse_code_spec(text), text.strip()
    try:
        with open(text) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise UnknownBuiltin(f"cannot read code file {text!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bad JSON in code file {text!r}: {exc}")
    code = code_from_json(payload)
    name = payload.get("name") or payload.get("builtin") if isinstance(payload, dict) else None
    return code, name if isinstance(name, str) else None


def load_code(text: str) -> IsometryCode:
    """Builtin description, or a path to a JSON code file."""
    return load_code_named(text)[0]
