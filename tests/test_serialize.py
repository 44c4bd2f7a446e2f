"""Tests for the canonical JSON encoding of matrices, families, reports."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from baxter.linalg import clear, narrow
from baxter.poly import Poly
from baxter.scalars import Ext
from baxter.serialize import ParseError, ShapeError, VersionError, _dump, decode, \
    encode, load, save
from baxter.solutions import (Realization, SpectralRMatrix, conjugator_T, example1_R,
                              example2_solution, yangian_sl_R, yangian_so_R)
from baxter.spin_chain import ChainSpec, TransferFamily, transfer_matrix
from baxter.tensor import TensorMatrix, kron, matrix_unit, permutation_op
from baxter.verify import VerificationReport, Witness, check_regularity, \
    check_unitarity, check_ybe

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


@pytest.mark.parametrize("atoms, location", [
    (["1", "0", "+1", "+1"], "entries[1][0]"),
    (["1", 1, "0", 1], "entries[0][1]"),
    (["1", "0", ["1"], "1"], "entries[1][0]"),
    (["1/2", "0", "2/4", "2/4"], "entries[1][0]"),
])
def test_cells_are_told_apart_by_their_json(atoms, location):
    # a cell is decoded once per distinct JSON text: a malformed one is
    # refused at its first location, and a cell equal in value to a good one
    # but written otherwise (1 and "1", ["1"] and "1", "2/4" and "1/2") is
    # refused at its own
    with pytest.raises(ParseError) as err:
        decode(flat_matrix(atoms))
    assert err.value.location == location
    doc = json.loads(flat_matrix(["0"] * 4))
    doc["variables"] = ["u"]
    doc["entries"] = [[["1"], ["1"]], [[1], ["1"]]]
    with pytest.raises(ParseError) as err:
        decode(json.dumps(doc))
    assert err.value.location == "entries[1][0][0]"


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
    # a claimed dimension over the dense limit is refused before 2**(2**70)
    # is computed or anything is allocated
    for site_dim, legs in ((2, 2 ** 70), (10 ** 6, 2)):
        doc = json.loads(flat_matrix(["0"] * 4))
        doc["site_dim"], doc["legs"] = site_dim, legs
        with pytest.raises(ShapeError, match="dense limit"):
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


def test_spectral_field_covers_the_denominator():
    # a rational numerator over a denominator in Q(i, sqrt2) is tagged with
    # the big field, so that the denominator can be written
    r = SpectralRMatrix(permutation_op(2), Poly.lift(Ext(1, 0, 1), ("u",)))
    text = encode(r)
    assert json.loads(text)["field"] == "Q(i,sqrt2)"
    assert encode(decode(text)) == text and decode(text).denominator == r.denominator


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


def _chain_payload():
    return json.loads(encode(transfer_matrix(yangian_sl_R(2), ChainSpec(2))))


def _spectral_payload():
    return json.loads(encode(yangian_sl_R(2)))


@pytest.mark.parametrize("payload, key, value", [
    (_chain_payload, "aux_dim", "x"),
    (_chain_payload, "aux_dim", -3),
    (_chain_payload, "aux_dim", 0),
    (_chain_payload, "aux_dim", True),
    (_chain_payload, "sites", True),
    (_chain_payload, "sites", "2"),
    (_chain_payload, "label", 5),
    (_chain_payload, "legs", True),
    (_spectral_payload, "label", 5),
    (_spectral_payload, "label", None),
    (_spectral_payload, "site_dim", True),
], ids=lambda x: getattr(x, "__name__", repr(x)))
def test_chain_and_spectral_decoders_reject_bad_fields(payload, key, value):
    doc = payload()
    doc[key] = value
    with pytest.raises(ParseError) as err:
        decode(json.dumps(doc))
    assert err.value.location == key


def test_missing_chain_and_spectral_fields_keep_their_defaults():
    doc = _chain_payload()
    del doc["aux_dim"], doc["label"]
    family = decode(json.dumps(doc))
    assert (family.aux_dim, family.label) == (2, "")
    del doc["sites"]
    with pytest.raises(ShapeError):
        decode(json.dumps(doc))
    doc = _spectral_payload()
    del doc["label"]
    assert decode(json.dumps(doc)).label == ""


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.sampled_from(["0", "1/2", "-3", "Q", "Q(i,sqrt2)", "u"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                                inner, max_size=3),
    max_leaves=5)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_writer_matches_json_dumps(value):
    assert _dump(value) == json.dumps(value, sort_keys=True, indent=2)


def _slots(node):
    """Every (container, key) pair of a decoded JSON tree."""
    keys = list(node) if isinstance(node, dict) else \
        range(len(node)) if isinstance(node, list) else ()
    return [slot for key in keys for slot in [(node, key), *_slots(node[key])]]


@pytest.fixture(scope="module")
def encoded():
    return [encode(obj) for obj in (
        permutation_op(2), conjugator_T(2), yangian_sl_R(2),
        transfer_matrix(yangian_sl_R(2), ChainSpec(2)),
        check_unitarity(yangian_sl_R(2)), decode(json.dumps(_failing_report_payload())))]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_payloads_raise_only_decoder_errors(encoded, data):
    text = data.draw(st.sampled_from(encoded))
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(text) - 1))
        text = text[:at] + data.draw(st.text(max_size=2)) + text[at + 1:]
    else:
        payload = json.loads(text)
        for _ in range(data.draw(st.integers(1, 3))):
            slots = _slots(payload)
            if not slots:
                break
            node, key = data.draw(st.sampled_from(slots))
            if data.draw(st.booleans()):
                del node[key]
            else:
                node[key] = data.draw(JSON_VALUES)
        text = json.dumps(payload)
    try:
        decode(text)
    except (ParseError, ShapeError, VersionError):
        pass


if __name__ == "__main__":
    test_round_trips_bit_exact()


RATIONALS = st.fractions(min_value=-7, max_value=7, max_denominator=5)
# an Ext whose extension parts are zero is a rational, written over Q
RATIONAL_EXTS = st.builds(Ext, RATIONALS)
SCALARS = st.one_of(RATIONALS, st.integers(-2 ** 70, 2 ** 70), RATIONAL_EXTS,
                    st.builds(Ext, RATIONALS, RATIONALS, RATIONALS, RATIONALS))
POLYS = st.builds(lambda c: Poly.univariate("u", c), st.lists(SCALARS, max_size=4))


@st.composite
def encodable(draw):
    """A matrix, spectral R-matrix, transfer family or report with random
    exact entries: rational, Q(i, sqrt2) or polynomial in u."""
    n, legs = draw(st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2)]))
    entries = draw(st.sampled_from([RATIONALS, SCALARS, st.one_of(SCALARS, POLYS), st.just(0),
                                    st.one_of(RATIONALS, RATIONAL_EXTS,
                                              st.builds(Poly.lift, RATIONAL_EXTS))]))
    values = draw(st.lists(entries, min_size=n ** (2 * legs), max_size=n ** (2 * legs)))
    m = TensorMatrix(n, legs, np.array(values, dtype=object).reshape(n ** legs, -1))
    kind = draw(st.sampled_from(["matrix", "spectral", "chain", "report"]))
    if kind == "spectral":
        return SpectralRMatrix(m, Poly.lift(draw(st.one_of(POLYS, SCALARS.filter(bool))),
                                            ("u",)), draw(st.text(max_size=5)))
    if kind == "chain":
        return TransferFamily(m, legs, n, draw(st.text(max_size=5)))
    if kind == "report":
        value = draw(st.one_of(SCALARS, POLYS))
        return VerificationReport(
            draw(st.text(min_size=1, max_size=5)), False,
            Witness(draw(st.integers(0, 9)), draw(st.integers(0, 9)),
                    tuple(draw(st.lists(st.integers(0, 3), max_size=2))), value),
            draw(st.one_of(st.none(), SCALARS)), None,
            {"method": draw(st.one_of(SCALARS, st.text(max_size=4)))})
    return m


@settings(max_examples=80, deadline=None)
@given(encodable())
def test_encode_decode_round_trip_is_byte_exact(obj):
    text = encode(obj)
    back = decode(text)
    assert encode(back) == text
    assert type(back) is type(obj)
    if isinstance(obj, TensorMatrix):
        assert back == obj


def _held_matrices(obj) -> list:
    """The matrices a decoded object holds."""
    if isinstance(obj, SpectralRMatrix):
        return [obj.numerator]
    if isinstance(obj, TransferFamily):
        return [obj.matrix]
    return [obj] if isinstance(obj, TensorMatrix) else []


def _assert_cleared_is_clear(m: TensorMatrix):
    """m.cleared(names) is linalg.clear(m.data, names) exactly, in no variable
    and in u, and what it keeps is read-only."""
    assert m.variables() == tuple(sorted({v for x in m.data.flat if isinstance(x, Poly)
                                          for v in x.vars}))
    for names in ((), ("u",)):
        try:
            scale, stack = clear(m.data, names)
        except ValueError:
            with pytest.raises(ValueError):
                m.cleared(names)
            continue
        got_scale, got = m.cleared(names)
        assert got_scale == scale and len(got) == len(stack)
        # one dtype for the stack: int64 below the kernel's bound of 2**62
        wide = max(abs(x) for c in stack for x in c.ravel().tolist()) >= 2 ** 62
        for a, b in zip(got, stack):
            assert a.dtype == b.dtype == (object if wide else np.int64) and a.shape == b.shape
            assert a.tolist() == b.tolist()
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1
        assert m.cleared(names)[1][0] is got[0]


def test_decoded_matrices_hold_the_clear_of_their_entries():
    for obj in (permutation_op(3), conjugator_T(3), yangian_so_R(4),
                example2_solution(4, Realization.SKEW)):
        (m,) = _held_matrices(decode(encode(obj)))
        _assert_cleared_is_clear(m)


@settings(max_examples=100, deadline=None)
@given(encodable())
def test_the_seeded_clear_of_a_decoded_matrix_is_linalg_clear(obj):
    for m in _held_matrices(decode(encode(obj))):
        _assert_cleared_is_clear(m)


# -- the object encoder, the slow reference of the stack encoder ---------------


def _object_atom(value) -> str:
    f = value.as_fraction() if isinstance(value, Ext) else Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _object_scalar(x, field):
    if field == "Q(i,sqrt2)":
        return [_object_atom(c) for c in Ext.of(x).components()]
    return _object_atom(x)


def _object_field(values) -> str:
    """The field of values, entry by entry: Q(i,sqrt2) when an Ext value or
    coefficient is not rational."""
    def irrational(x):
        if isinstance(x, Poly):
            return any(map(irrational, x.coeffs.values()))
        return isinstance(x, Ext) and not x.is_rational
    return "Q(i,sqrt2)" if any(map(irrational, values)) else "Q"


def _object_entry(x, field, variables):
    if not variables:
        return _object_scalar(x.constant_value() if isinstance(x, Poly) else x, field)
    if not isinstance(x, Poly) or x.is_constant():
        return [_object_scalar(x.constant_value() if isinstance(x, Poly) else x, field)]
    var = variables[0]
    return [_object_scalar(x.coefficient((k,)), field) for k in range(x.degree(var) + 1)]


def _object_matrix(m, variables, also=()):
    field = _object_field([*m.data.flat, *also])
    return {"field": field, "site_dim": m.site_dim, "legs": m.legs, "variables": variables,
            "entries": [[_object_entry(x, field, variables) for x in row] for row in m.data]}


def _object_loose(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, Poly):
        var = value.vars[0] if value.vars else "u"
        field = _object_field([value])
        return {"variables": [var], "field": field,
                "coefficients": _object_entry(value, field, (var,))}
    if isinstance(value, Ext) and not value.is_rational:
        return [_object_atom(c) for c in value.components()]
    if isinstance(value, str):
        return {"text": value}
    return _object_atom(value)


def object_encode(obj) -> str:
    """encode as it was written entry by entry from the objects, through
    json.dumps: the reference that the encoder on cleared stacks must match
    byte for byte."""
    if isinstance(obj, TensorMatrix):
        payload = {"kind": "matrix", **_object_matrix(obj, list(obj.variables()))}
    elif isinstance(obj, SpectralRMatrix):
        body = _object_matrix(obj.numerator, [obj.variable], [obj.denominator])
        payload = {"kind": "spectral", **body, "label": obj.label,
                   "denominator": _object_entry(obj.denominator, body["field"],
                                                body["variables"])}
    elif isinstance(obj, TransferFamily):
        payload = {"kind": "chain", **_object_matrix(obj.matrix, list(obj.matrix.variables())),
                   "sites": obj.sites, "aux_dim": obj.aux_dim, "label": obj.label}
    else:
        witness = obj.witness and {"row": obj.witness.row, "col": obj.witness.col,
                                   "exponents": list(obj.witness.exponents),
                                   "value": _object_loose(obj.witness.value)}
        payload = {"kind": "report", "identity": obj.identity_name, "passed": obj.passed,
                   "witness": witness, "scalar_factor": _object_loose(obj.scalar_factor),
                   "grid_size": list(obj.grid_size) if obj.grid_size else None,
                   "details": {k: _object_loose(v) for k, v in obj.details.items()}}
    payload["format_version"] = 1
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@settings(max_examples=150, deadline=None)
@given(encodable())
def test_encoder_matches_the_object_encoder(obj):
    assert encode(obj) == object_encode(obj)


def _lifted(m: TensorMatrix) -> TensorMatrix:
    """m with every entry a Poly in u, as a family rebuilt from a stack holds it."""
    data = np.empty(m.data.shape, dtype=object)
    for idx, x in np.ndenumerate(m.data):
        # lift returns a Poly in no variable as it is: lift its value
        data[idx] = Poly.lift(x.constant_value() if isinstance(x, Poly) and not x.vars
                              else x, ("u",))
    return TensorMatrix(m.site_dim, m.legs, data)


@settings(max_examples=100, deadline=None)
@given(encodable().filter(lambda obj: isinstance(obj, TensorMatrix)), st.data())
def test_family_from_a_stack_matches_the_object_encoder(m, data):
    # the stack of a family as interpolation leaves it: not in lowest terms,
    # with zero layers on top, four components whose extension parts may be
    # zero throughout, in Python ints or, where its entries fit, in int64;
    # it is scaled in Python ints, as int64 would wrap silently
    scale, stack = clear(_lifted(m).data, ("u",))
    factor = data.draw(st.sampled_from([1, 6, 2 ** 40, 3 ** 45]))
    zeros = data.draw(st.integers(0, 2))
    stack = [np.concatenate([c.astype(object) * factor,
                             np.zeros((zeros,) + c.shape[1:], dtype=object)])
             for c in stack]
    if data.draw(st.booleans()):
        stack = narrow(stack)
    if len(stack) == 1 and data.draw(st.booleans()):
        stack += [np.zeros_like(stack[0])] * 3
    matrix = TensorMatrix.from_cleared(m.site_dim, m.legs, ("u",), scale * factor, stack)
    family = TransferFamily(matrix, m.legs, m.site_dim, "t")
    want = object_encode(TransferFamily(_lifted(m), m.legs, m.site_dim, "t"))
    assert encode(family) == want
    assert family.matrix == _lifted(m)
    assert encode(family) == want


# -- one entry-kind rule: a matrix and its own file give the same answers ------

SMALL_RATIONALS = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
SMALL_EXTS = st.builds(Ext, SMALL_RATIONALS, SMALL_RATIONALS, SMALL_RATIONALS, SMALL_RATIONALS)


@st.composite
def mixed_two_leg(draw):
    """A sparse two-leg matrix on C^2 or C^3, over Q or Q(i, sqrt2), whose
    entries mix scalars, constant Polys (in u or in no variable) and Polys
    in u of degree 1 or 2, the Polys all in some rows or anywhere."""
    n = draw(st.sampled_from([2, 3]))
    scalars = draw(st.sampled_from([SMALL_RATIONALS, st.one_of(SMALL_RATIONALS, SMALL_EXTS)]))
    entries = st.one_of(scalars, st.builds(Poly.lift, scalars, st.just(("u",))),
                        st.builds(Poly.lift, scalars),
                        st.builds(lambda c: Poly.univariate("u", c),
                                  st.lists(scalars, min_size=2, max_size=3)))
    size = n * n
    poly_rows = draw(st.sets(st.integers(0, size - 1), max_size=2) | st.just(set(range(size))))
    out = np.zeros((size, size), dtype=object)
    for _ in range(draw(st.integers(1, 2 * size))):
        row, col = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        out[row, col] = draw(entries if row in poly_rows else scalars)
    return TensorMatrix(n, 2, out)


def _answer(check, m) -> str:
    try:
        return encode(check(m))
    except ValueError as err:  # no variable, where a spectral check needs one
        return f"ValueError: {err}"


CHECKS = (check_unitarity, check_regularity, lambda m: check_ybe(m, "constant"),
          lambda m: check_ybe(m, "spectral"), lambda m: check_ybe(m, "spectral", "poly"))


@settings(max_examples=60, deadline=None)
@given(mixed_two_leg())
def test_a_matrix_and_its_round_trip_answer_alike(m):
    back = decode(encode(m))
    for check in CHECKS:
        assert _answer(check, m) == _answer(check, back)
    # every entry of a product holds one kind: a Poly in all the variables
    # when a factor holds a Poly in some, else a scalar, as the reader rebuilds
    # every entry of a file
    square, back_square = (m @ m).data, (back @ back).data
    assert (square == back_square).all()
    assert [(type(x), getattr(x, "vars", None)) for x in square.flat] == \
        [(type(x), getattr(x, "vars", None)) for x in back_square.flat]
