"""Tests for the canonical JSON encoding of matrices, families, reports."""

import json
from fractions import Fraction

import numpy as np
import pytest

from baxter.poly import Poly
from baxter.scalars import Ext
from baxter.serialize import ParseError, ShapeError, VersionError, decode, \
    encode, load, save
from baxter.solutions import (SpectralRMatrix, conjugator_T, example1_R,
                              example2_solution, yangian_sl_R, yangian_so_R)
from baxter.spin_chain import ChainSpec, transfer_matrix
from baxter.tensor import TensorMatrix, kron, matrix_unit, permutation_op
from baxter.verify import check_unitarity, check_ybe

GOLDEN_PERMUTATION = """{
  "entries": [
    [
      "1",
      "0",
      "0",
      "0"
    ],
    [
      "0",
      "0",
      "1",
      "0"
    ],
    [
      "0",
      "1",
      "0",
      "0"
    ],
    [
      "0",
      "0",
      "0",
      "1"
    ]
  ],
  "field": "Q",
  "format_version": 1,
  "kind": "matrix",
  "legs": 2,
  "site_dim": 2,
  "variables": []
}
"""


def flat_matrix(atoms):
    base = {"kind": "matrix", "format_version": 1, "field": "Q",
            "site_dim": 2, "legs": 1, "variables": []}
    base["entries"] = [[atoms[0], atoms[1]], [atoms[2], atoms[3]]]
    return json.dumps(base)


def test_golden_permutation_bytes():
    assert encode(permutation_op(2)) == GOLDEN_PERMUTATION
    assert decode(GOLDEN_PERMUTATION) == permutation_op(2)


def test_atoms_must_be_canonical():
    for bad in ["2/4", "3/1", "-0", "007", "0/3", "1/0", "+3", "1/-2", ""]:
        with pytest.raises(ParseError):
            decode(flat_matrix([bad, "0", "0", "0"]))
    with pytest.raises(ParseError):
        decode(flat_matrix([5, "0", "0", "0"]))
    good = decode(flat_matrix(["0", "-7", "22/7", "1"]))
    assert good.data[0, 1] == -7
    assert good.data[1, 0] == Fraction(22, 7)


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as err:
        decode(flat_matrix(["0", "0", "0", "2/4"]))
    assert "entries[1][1]" in str(err.value)


def test_version_errors():
    doc = json.loads(flat_matrix(["0"] * 4))
    del doc["format_version"]
    with pytest.raises(VersionError):
        decode(json.dumps(doc))
    doc["format_version"] = 2
    with pytest.raises(VersionError):
        decode(json.dumps(doc))


def test_shape_errors():
    doc = json.loads(flat_matrix(["0"] * 4))
    doc["entries"] = doc["entries"][:1]
    with pytest.raises(ShapeError):
        decode(json.dumps(doc))
    fam = transfer_matrix(yangian_sl_R(2), ChainSpec(2))
    doc = json.loads(encode(fam))
    doc["sites"] = 5
    with pytest.raises(ShapeError):
        decode(json.dumps(doc))


def test_unknown_kind():
    doc = json.loads(flat_matrix(["0"] * 4))
    doc["kind"] = "sideways"
    with pytest.raises(ParseError):
        decode(json.dumps(doc))


def test_trailing_zero_coefficient_rejected():
    doc = json.loads(flat_matrix(["1", "0", "0", "1"]))
    doc["variables"] = ["u"]
    doc["entries"] = [[["1", "0"], ["0"]], [["0"], ["1"]]]
    with pytest.raises(ParseError):
        decode(json.dumps(doc))
    doc["entries"] = [[["1", "2"], ["0"]], [["0"], ["1"]]]
    m = decode(json.dumps(doc))
    u = Poly.variable("u")
    assert m.data[0, 0] == Poly.lift(1, ("u",)) + u * 2


def test_field_tag_tracks_entries():
    assert json.loads(encode(permutation_op(2)))["field"] == "Q"
    assert json.loads(encode(conjugator_T(4)))["field"] == "Q(i,sqrt2)"
    # an Ext value that happens to be rational does not force the big field
    m = TensorMatrix(2, 1, np.array([[Ext.of(3), 0], [0, 1]], dtype=object))
    assert json.loads(encode(m))["field"] == "Q"


def test_round_trips_bit_exact():
    objects = [
        permutation_op(3),
        example1_R(2),
        conjugator_T(5),
        yangian_sl_R(2),
        yangian_so_R(4),
        example2_solution(4),
        transfer_matrix(yangian_sl_R(2), ChainSpec(3)),
        check_ybe(permutation_op(2), mode="constant"),
        check_unitarity(TensorMatrix.identity(2, 2)
                        + kron(matrix_unit(2, 1, 2), matrix_unit(2, 1, 2))),
    ]
    for obj in objects:
        text = encode(obj)
        back = decode(text)
        assert encode(back) == text
        if isinstance(obj, (TensorMatrix,)):
            assert back == obj
        if isinstance(obj, SpectralRMatrix):
            assert back.numerator == obj.numerator
            assert back.denominator == obj.denominator


def test_encode_is_deterministic():
    a = encode(example2_solution(4))
    b = encode(example2_solution(4))
    assert a == b
    assert a.endswith("\n")


def test_two_variable_matrix_rejected():
    m = permutation_op(2) * Poly.variable("a") \
        + TensorMatrix.identity(2, 2) * Poly.variable("b")
    with pytest.raises(ValueError):
        encode(m)


def test_save_load(tmp_path):
    path = tmp_path / "object.json"
    save(yangian_so_R(4), path)
    fam = load(path)
    assert fam.numerator == yangian_so_R(4).numerator
    raw = path.read_text()
    assert raw == encode(yangian_so_R(4))


def test_report_round_trip_preserves_witness():
    rep = check_unitarity(TensorMatrix.identity(2, 2)
                          + kron(matrix_unit(2, 1, 2), matrix_unit(2, 1, 2)))
    back = decode(encode(rep))
    assert not back.passed
    assert (back.witness.row, back.witness.col) == (rep.witness.row,
                                                    rep.witness.col)
    assert back.witness.value == rep.witness.value
    assert back.scalar_factor == rep.scalar_factor


def _failing_report_payload():
    rep = check_unitarity(TensorMatrix.identity(2, 2)
                          + kron(matrix_unit(2, 1, 2), matrix_unit(2, 1, 2)))
    return json.loads(encode(rep))


@pytest.mark.parametrize("path, value, location", [
    (("identity",), 3, "identity"),
    (("passed",), 0, "passed"),
    (("passed",), True, "witness"),
    (("witness",), [1], "witness"),
    (("witness", "row"), "1", "witness.row"),
    (("witness", "row"), 1.5, "witness.row"),
    (("witness", "col"), -1, "witness.col"),
    (("witness", "col"), False, "witness.col"),
    (("witness", "exponents"), 3, "witness.exponents"),
    (("witness", "exponents"), ["0"], "witness.exponents"),
    (("witness", "value"), None, "witness.value"),
    (("witness", "value"), {"coefficients": ["1"], "variables": 3},
     "witness.value.variables"),
    (("grid_size",), "ab", "grid_size"),
    (("grid_size",), [2, "3"], "grid_size"),
    (("details",), [1], "details"),
])
def test_report_decoder_rejects_bad_fields(path, value, location):
    payload = _failing_report_payload()
    target = payload
    for key in path[:-1]:
        target = target[key]
    if value is None:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    with pytest.raises(ParseError) as err:
        decode(json.dumps(payload))
    assert err.value.location == location


if __name__ == "__main__":
    test_round_trips_bit_exact()
