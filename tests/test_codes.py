"""Code-layer tests.

The five-qubit construction is cross-checked by properties it must have
independently of any amplitude transcription: the Knill-Laflamme
conditions for every weight-<=2 Pauli, and the transversal logical bit
flip.
"""

import itertools
import json

import numpy as np
import pytest

from treecast.codes import (
    MAX_CODE_ENTRIES,
    MAX_PARTIES,
    IsometryCode,
    code_from_json,
    code_to_document,
    encoded_pair,
    five_qubit_code,
    ghz_code,
    identity_code,
    load_code,
    load_code_named,
    parse_code_spec,
    product_code,
    random_code,
    star4_code,
)
from treecast.errors import (
    DimensionMismatch,
    NotIsometry,
    PartyMismatch,
    SchemaError,
    TooLarge,
    UnknownBuiltin,
)
from treecast.tensors import marginal_matrix

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def one_site(op, site, n):
    full = np.eye(1, dtype=complex)
    for k in range(n):
        full = np.kron(full, op if k == site else I2)
    return full


def test_five_qubit_is_an_isometry_with_expected_support():
    code = five_qubit_code()
    assert code.logical_dim == 2
    assert code.parties == ("v1", "v2", "v3", "v4", "v5")
    col0 = code.matrix[:, 0]
    assert np.count_nonzero(np.abs(col0) > 1e-12) == 16
    assert np.allclose(np.abs(col0[np.abs(col0) > 1e-12]), 0.25)
    # spot amplitudes, v1 as the most significant bit
    assert col0[0b00000] == pytest.approx(0.25)
    assert col0[0b10100] == pytest.approx(-0.25)
    assert code.matrix[0b11111, 1] == pytest.approx(0.25)
    assert code.matrix[0b00010, 1] == pytest.approx(-0.25)


def test_five_qubit_knill_laflamme_for_weight_two_errors():
    code = five_qubit_code()
    u = code.matrix
    singles = [np.eye(32, dtype=complex)] + [
        one_site(p, s, 5) for p in (X, Y, Z) for s in range(5)
    ]
    for e, f in itertools.product(singles, repeat=2):
        m = u.conj().T @ e.conj().T @ f @ u
        assert abs(m[0, 1]) < 1e-10
        assert abs(m[1, 0]) < 1e-10
        assert abs(m[0, 0] - m[1, 1]) < 1e-10


def test_five_qubit_transversal_logical_flip():
    code = five_qubit_code()
    xxxxx = np.eye(1, dtype=complex)
    for _ in range(5):
        xxxxx = np.kron(xxxxx, X)
    assert np.allclose(xxxxx @ code.matrix[:, 0], code.matrix[:, 1])


def test_star4_codewords():
    code = star4_code()
    assert code.matrix[0b0000, 0] == pytest.approx(1.0)
    assert code.matrix[0b0111, 1] == pytest.approx(1 / np.sqrt(2))
    assert code.matrix[0b1111, 1] == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(np.abs(code.matrix) > 1e-12) == 3


def test_ghz_identity_product_families():
    g = ghz_code(3)
    assert g.matrix[0, 0] == 1.0 and g.matrix[7, 1] == 1.0
    ident = identity_code(3, 4)
    assert ident.physical_dims == (3, 1, 1, 1)
    assert np.allclose(ident.matrix, np.eye(3))
    prod = product_code([2, 3, 2])
    assert prod.physical_dims == (2, 3, 2)
    # |j> -> |j>|0>|0>
    assert prod.matrix[0, 0] == 1.0 and prod.matrix[6, 1] == 1.0


def test_encoded_pair_layout():
    code = star4_code()
    st = encoded_pair(code)
    assert st.ids == ("R", "v1", "v2", "v3", "v4")
    assert st.register("R").dim == 2
    assert st.norm() == pytest.approx(1.0)
    # reference marginal is maximally mixed for any isometry code
    rho = marginal_matrix(st, ["R"])
    assert np.allclose(rho, np.eye(2) / 2)


def test_validation_errors():
    with pytest.raises(NotIsometry):
        IsometryCode(2, ("a", "b"), (2, 2), np.ones((4, 2)))
    with pytest.raises(DimensionMismatch):
        IsometryCode(2, ("a", "b"), (2,), np.eye(4)[:, :2])
    with pytest.raises(DimensionMismatch):
        IsometryCode(3, ("a", "b"), (2, 2), np.eye(4))
    with pytest.raises(PartyMismatch):
        IsometryCode(2, ("a", "a"), (2, 2), np.eye(4)[:, :2])
    with pytest.raises(DimensionMismatch):
        random_code(np.random.default_rng(0), 5, (2, 2))


def test_random_code_is_haar_seeded():
    a = random_code(np.random.default_rng(42), 2, (2, 2, 2))
    b = random_code(np.random.default_rng(42), 2, (2, 2, 2))
    c = random_code(np.random.default_rng(43), 2, (2, 2, 2))
    assert np.allclose(a.matrix, b.matrix)
    assert not np.allclose(a.matrix, c.matrix)
    gram = a.matrix.conj().T @ a.matrix
    assert np.abs(gram - np.eye(2)).max() < 1e-12


def test_parse_code_spec_forms():
    assert parse_code_spec("five_qubit").parties == ("v1", "v2", "v3", "v4", "v5")
    assert parse_code_spec("ghz:4").logical_dim == 2
    assert parse_code_spec("identity:3:2").physical_dims == (3, 1)
    assert parse_code_spec("product:2,2").logical_dim == 2
    for bad in ("nope", "ghz:x", "identity:3", "five_qubit:2"):
        with pytest.raises(UnknownBuiltin):
            parse_code_spec(bad)


def test_code_from_json_and_load(tmp_path):
    payload = {
        "name": "half-bell",
        "D": 2,
        "parties": [{"name": "alice", "dim": 2}, {"name": "bob", "dim": 2}],
        "entries": [[0, 0, 1, 0], [3, 1, 0, 1]],
    }
    code = code_from_json(payload)
    assert code.matrix[3, 1] == pytest.approx(1j)
    assert code.parties == ("alice", "bob")
    p = tmp_path / "code.json"
    p.write_text(json.dumps(payload))
    assert np.allclose(load_code(str(p)).matrix, code.matrix)
    with pytest.raises(SchemaError):
        code_from_json({"entries": []})
    with pytest.raises(SchemaError):
        code_from_json({**payload, "entries": [["x", 0, 1, 0]]})
    with pytest.raises(SchemaError):
        code_from_json({**payload, "entries": [[9, 0, 1, 0]]})
    with pytest.raises(SchemaError):
        code_from_json({**payload, "entries": [[0, 0, 1, 0], [0, 0, 1, 0]]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_code(str(bad))
    with pytest.raises(UnknownBuiltin):
        load_code("no_such_file.json")


def test_codes_past_the_party_bound_refused():
    # a 2 × 2 matrix over MAX_PARTIES + 1 parties: every builtin, a code file
    # and a direct construction refuse it; MAX_PARTIES parties load
    wide = (2,) + (1,) * MAX_PARTIES
    parties = [{"name": f"v{k}", "dim": d} for k, d in enumerate(wide, 1)]
    for build in (
        lambda: product_code(wide),
        lambda: identity_code(2, len(wide)),
        lambda: parse_code_spec(f"identity:2:{len(wide)}"),
        lambda: code_from_json({"D": 2, "parties": parties, "entries": []}),
        lambda: IsometryCode(2, tuple(f"v{k}" for k in range(len(wide))), wide, np.eye(2)),
    ):
        with pytest.raises(TooLarge, match=f"more than {MAX_PARTIES} parties"):
            build()
    assert len(product_code(wide[:-1]).parties) == MAX_PARTIES


def test_oversized_codes_refused_before_allocation():
    # every refused input here fails at once or costs at most ~50 MiB even
    # without the size check: 2**64-sized arrays exceed numpy's index range
    with pytest.raises(TooLarge):
        parse_code_spec("ghz:64")
    with pytest.raises(TooLarge):
        product_code([2**32, 2**32])
    huge = [{"name": "a", "dim": 2**32}, {"name": "b", "dim": 2**32}]
    with pytest.raises(TooLarge):
        code_from_json({"D": 2, "parties": huge, "entries": []})
    # just above the cap: 1025² entries, and D·dim = cap + 1
    with pytest.raises(TooLarge):
        parse_code_spec("identity(1025)")
    one = [[0, 0, 1.0, 0.0]]
    with pytest.raises(TooLarge):
        code_from_json(
            {"D": 1, "parties": [{"name": "a", "dim": MAX_CODE_ENTRIES + 1}], "entries": one}
        )
    at_cap = code_from_json(
        {"D": 1, "parties": [{"name": "a", "dim": MAX_CODE_ENTRIES}], "entries": one}
    )
    assert at_cap.matrix.shape == (MAX_CODE_ENTRIES, 1)


def test_code_json_builtin_reference_and_roundtrip(tmp_path):
    assert np.allclose(
        code_from_json({"builtin": "five_qubit"}).matrix, five_qubit_code().matrix
    )
    doc = code_to_document(five_qubit_code(), name="fq")
    assert doc["name"] == "fq" and len(doc["entries"]) == 32
    again = code_from_json(doc)
    assert np.allclose(again.matrix, five_qubit_code().matrix)
    assert again.parties == five_qubit_code().parties
    p = tmp_path / "fq.json"
    p.write_text(json.dumps(doc))
    code, name = load_code_named(str(p))
    assert name == "fq" and np.allclose(code.matrix, five_qubit_code().matrix)


def test_paren_builtin_forms():
    assert parse_code_spec("identity(3)").physical_dims == (3,)
    assert parse_code_spec("product(2)").physical_dims == (2, 2)
    assert parse_code_spec("ghz(4)").physical_dims == (2, 2, 2, 2)
    assert parse_code_spec("product(2)").logical_dim == 2
    with pytest.raises(UnknownBuiltin):
        parse_code_spec("magic(3)")
