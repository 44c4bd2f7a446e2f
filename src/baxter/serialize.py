"""Canonical JSON encoding for matrices, spectral families, and reports.

The writer always produces the same bytes for the same object: keys are
sorted, scalars are lowest-terms rational strings, and polynomial entries
are ascending coefficient lists with no trailing zeros.  The reader
rejects anything non-canonical, with the JSON path of the offence.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

from .poly import Poly
from .scalars import Ext
from .solutions import SpectralRMatrix
from .spin_chain import TransferFamily
from .tensor import ShapeError, TensorMatrix, dense_dim
from .verify import VerificationReport, Witness

FORMAT_VERSION = 1
FIELD_RATIONAL = "Q"
FIELD_EXTENSION = "Q(i,sqrt2)"

_ATOM = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")


class ParseError(ValueError):
    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message} at {location}" if location else message)


class VersionError(ValueError):
    pass


def _require(ok: bool, message: str, location: str) -> None:
    if not ok:
        raise ParseError(message, location)


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


# -- scalars -------------------------------------------------------------


def _atom(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _parse_atom(text, location: str) -> Fraction:
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {text!r}", location)
    match = _ATOM.match(text)
    if not match:
        raise ParseError(f"malformed rational {text!r}", location)
    p = int(match.group(1))
    if match.group(1) not in (str(p),):
        raise ParseError(f"non-canonical integer {text!r}", location)
    if match.group(2) is None:
        return Fraction(p)
    q = int(match.group(2))
    if q == 0:
        raise ParseError(f"zero denominator in {text!r}", location)
    if match.group(2) != str(q) or q == 1 or math.gcd(p, q) != 1:
        raise ParseError(f"{text!r} is not in lowest terms p/q with q > 1", location)
    return Fraction(p, q)


def _to_rational(x) -> Fraction:
    if isinstance(x, Ext):
        return x.as_fraction()
    return Fraction(x)


def _encode_scalar(x, field: str):
    if field == FIELD_EXTENSION:
        return [_atom(c) for c in Ext.of(x).components()]
    return _atom(_to_rational(x))


def _decode_scalar(obj, field: str, location: str):
    if field == FIELD_EXTENSION:
        if not isinstance(obj, list) or len(obj) != 4:
            raise ParseError("expected four components over Q(i,sqrt2)", location)
        parts = [_parse_atom(c, f"{location}[{k}]") for k, c in enumerate(obj)]
        value = Ext(*parts)
        return value.as_fraction() if value.is_rational else value
    return _parse_atom(obj, location)


def _needs_extension(values) -> bool:
    for x in values:
        if isinstance(x, Poly):
            if _needs_extension(x.coeffs.values()):
                return True
        elif isinstance(x, Ext) and not x.is_rational:
            return True
    return False


# -- polynomial entries ----------------------------------------------------


def _encode_entry(x, field: str, variables, memo: dict):
    """The encoding of one entry; memo maps each scalar already encoded in
    this field to its encoding, and gains the new ones."""

    def scalar(c):
        # a Fraction is keyed by its terms, which hash faster than it does;
        # equal keys are equal scalars, and those have equal encodings
        key = (c.numerator, c.denominator) if type(c) is Fraction else c
        if key not in memo:
            memo[key] = _encode_scalar(c, field)
        return memo[key]

    if not variables:
        if isinstance(x, Poly):
            x = x.constant_value()
        return scalar(x)
    var = variables[0]
    if not isinstance(x, Poly):
        return [scalar(x)]
    if x.vars not in ((), (var,)):
        raise ValueError(f"entry variables {x.vars} do not match {variables}")
    if x.is_constant():
        return [scalar(x.constant_value())]
    return [scalar(x.coefficient((k,))) for k in range(x.degree(var) + 1)]


def _decode_entry(obj, field: str, variables, location: str):
    if not variables:
        return _decode_scalar(obj, field, location)
    if not isinstance(obj, list) or not obj:
        raise ParseError("expected a non-empty coefficient list", location)
    coeffs = [_decode_scalar(c, field, f"{location}[{k}]") for k, c in enumerate(obj)]
    if len(coeffs) > 1 and not coeffs[-1]:
        raise ParseError("trailing zero coefficient", location)
    return Poly.univariate(variables[0], coeffs)


def _matrix_payload(m: TensorMatrix, force_variables=None, also=()) -> dict:
    """The matrix fields of a payload; the field also covers the values in
    also, which are encoded beside the matrix."""
    variables = list(force_variables) if force_variables else list(m.variables())
    if len(variables) > 1:
        raise ValueError("matrices in two variables are not serialized")
    field = FIELD_EXTENSION if _needs_extension([*m.data.flat, *also]) else FIELD_RATIONAL
    memo = {}
    entries = [[_encode_entry(x, field, variables, memo) for x in row] for row in m.data]
    return {
        "field": field,
        "site_dim": m.site_dim,
        "legs": m.legs,
        "variables": variables,
        "entries": entries,
    }


def _decode_matrix_payload(payload: dict) -> TensorMatrix:
    field = payload.get("field")
    if field not in (FIELD_RATIONAL, FIELD_EXTENSION):
        raise ParseError(f"unknown field {field!r}", "field")
    site_dim, legs = payload.get("site_dim"), payload.get("legs")
    for name, value in (("site_dim", site_dim), ("legs", legs)):
        if not isinstance(value, int) or value < 1:
            raise ParseError(f"{name} must be a positive integer", name)
    variables = payload.get("variables")
    if (not isinstance(variables, list) or len(variables) > 1
            or any(not isinstance(v, str) for v in variables)):
        raise ParseError("variables must be a list of at most one name", "variables")
    size = dense_dim(site_dim, legs)
    entries = payload.get("entries")
    if not isinstance(entries, list) or len(entries) != size:
        raise ShapeError(f"expected {size} rows for site_dim {site_dim} and legs {legs}")
    data = np.empty((size, size), dtype=object)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != size:
            raise ShapeError(f"row {i} does not have {size} entries")
        for j, cell in enumerate(row):
            data[i, j] = _decode_entry(cell, field, variables, f"entries[{i}][{j}]")
    return TensorMatrix(site_dim, legs, data)


# -- reports ---------------------------------------------------------------


def _encode_loose(value):
    """Scalar or small polynomial without a field declaration; shape-tagged."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, Poly):
        if len(value.vars) > 1:
            raise ValueError("two-variable values are not serialized")
        var = value.vars[0] if value.vars else "u"
        field = FIELD_EXTENSION if _needs_extension([value]) else FIELD_RATIONAL
        return {"variables": [var], "field": field,
                "coefficients": _encode_entry(value, field, (var,), {})}
    if isinstance(value, Ext) and not value.is_rational:
        return [_atom(c) for c in value.components()]
    if isinstance(value, (int, Fraction)) or isinstance(value, Ext):
        return _atom(_to_rational(value))
    if isinstance(value, str):
        return {"text": value}
    raise ValueError(f"cannot serialize report value {value!r}")


def _decode_loose(obj, location: str):
    if obj is None or isinstance(obj, bool):
        return obj
    if isinstance(obj, str):
        return _parse_atom(obj, location)
    if isinstance(obj, list):
        return _decode_scalar(obj, FIELD_EXTENSION, location)
    if isinstance(obj, dict) and "text" in obj:
        return obj["text"]
    if isinstance(obj, dict) and "coefficients" in obj:
        variables = obj.get("variables", ["u"])
        _require(isinstance(variables, list) and len(variables) == 1
                 and isinstance(variables[0], str),
                 "variables must be a list of one name", f"{location}.variables")
        return _decode_entry(obj["coefficients"], obj.get("field", FIELD_RATIONAL),
                             tuple(variables), location)
    raise ParseError(f"unrecognized value {obj!r}", location)


def _report_payload(report: VerificationReport) -> dict:
    witness = None
    if report.witness is not None:
        witness = {
            "row": report.witness.row,
            "col": report.witness.col,
            "exponents": list(report.witness.exponents),
            "value": _encode_loose(report.witness.value),
        }
    return {
        "identity": report.identity_name,
        "passed": report.passed,
        "witness": witness,
        "scalar_factor": _encode_loose(report.scalar_factor),
        "grid_size": list(report.grid_size) if report.grid_size else None,
        "details": {k: _encode_loose(v) for k, v in sorted(report.details.items())},
    }


def _decode_report_payload(payload: dict) -> VerificationReport:
    passed, witness = payload.get("passed"), payload.get("witness")
    _require(isinstance(payload.get("identity"), str), "identity must be a string",
             "identity")
    _require(isinstance(passed, bool), "passed must be true or false", "passed")
    _require(passed == (witness is None), "a witness must be present exactly on failure",
             "witness")
    if witness is not None:
        _require(isinstance(witness, dict), "witness must be an object or null",
                 "witness")
        for key in ("row", "col"):
            _require(_is_index(witness.get(key)), f"{key} must be a non-negative integer",
                     f"witness.{key}")
        exponents = witness.get("exponents")
        _require(isinstance(exponents, list) and all(map(_is_index, exponents)),
                 "exponents must be a list of non-negative integers", "witness.exponents")
        _require("value" in witness, "missing value", "witness.value")
        witness = Witness(
            row=witness["row"],
            col=witness["col"],
            exponents=tuple(exponents),
            value=_decode_loose(witness["value"], "witness.value"),
        )
    grid = payload.get("grid_size")
    _require(grid is None or isinstance(grid, list) and all(map(_is_index, grid)),
             "grid_size must be null or a list of non-negative integers", "grid_size")
    details = payload.get("details", {})
    _require(isinstance(details, dict), "details must be an object", "details")
    return VerificationReport(
        identity_name=payload["identity"],
        passed=passed,
        witness=witness,
        scalar_factor=_decode_loose(payload.get("scalar_factor"), "scalar_factor"),
        grid_size=tuple(grid) if grid else None,
        details={k: _decode_loose(v, f"details.{k}") for k, v in details.items()},
    )


# -- top level ---------------------------------------------------------------


def encode(obj) -> str:
    if isinstance(obj, TensorMatrix):
        payload = {"kind": "matrix", **_matrix_payload(obj)}
    elif isinstance(obj, SpectralRMatrix):
        body = _matrix_payload(obj.numerator, [obj.variable], [obj.denominator])
        payload = {
            "kind": "spectral",
            **body,
            "denominator": _encode_entry(obj.denominator, body["field"],
                                         body["variables"], {}),
            "label": obj.label,
        }
    elif isinstance(obj, TransferFamily):
        payload = {
            "kind": "chain",
            **_matrix_payload(obj.matrix),
            "sites": obj.sites,
            "aux_dim": obj.aux_dim,
            "label": obj.label,
        }
    elif isinstance(obj, VerificationReport):
        payload = {"kind": "report", **_report_payload(obj)}
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    payload["format_version"] = FORMAT_VERSION
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def decode(text: str):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise ParseError("top level must be an object")
    version = payload.get("format_version")
    if version is None:
        raise VersionError("missing format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported format_version {version!r}")
    kind = payload.get("kind")
    if kind == "matrix":
        return _decode_matrix_payload(payload)
    if kind == "spectral":
        matrix = _decode_matrix_payload(payload)
        variables = payload["variables"] or ["u"]
        denominator = _decode_entry(payload.get("denominator"), payload["field"],
                                    variables, "denominator")
        return SpectralRMatrix(matrix, Poly.lift(denominator, tuple(variables)),
                               payload.get("label", ""))
    if kind == "chain":
        matrix = _decode_matrix_payload(payload)
        sites = payload.get("sites")
        if sites != matrix.legs:
            raise ShapeError(f"sites {sites!r} does not match legs {matrix.legs}")
        return TransferFamily(matrix, sites, payload.get("aux_dim", matrix.site_dim),
                              payload.get("label", ""))
    if kind == "report":
        return _decode_report_payload(payload)
    raise ParseError(f"unknown kind {kind!r}", "kind")


def save(obj, path) -> None:
    with open(path, "w") as handle:
        handle.write(encode(obj))


def load(path):
    with open(path) as handle:
        return decode(handle.read())
