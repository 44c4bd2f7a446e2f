"""Canonical JSON encoding for matrices, spectral families, and reports.

The writer always produces the same bytes for the same object: keys are
sorted, scalars are lowest-terms rational strings, and polynomial entries
are ascending coefficient lists with no trailing zeros.  The reader
rejects anything non-canonical, with the JSON path of the offence.

The one matrix encoder, _entry_texts, reads (scale, stack) as linalg.clear
lays it out, from TensorMatrix.cleared: a chain operator, made by
TensorMatrix.from_cleared, is written from the stack it was made on,
without building or clearing its entries.  The text is written directly,
with the bytes of json.dumps(payload, sort_keys=True, indent=2) and a
newline.  The reader decodes each distinct cell once and makes the matrix
with TensorMatrix.from_cleared on one linalg.clear of the distinct values,
gathered back by cell.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

from . import linalg
from .poly import Poly
from .scalars import Ext
from .solutions import SpectralRMatrix
from .spin_chain import TransferFamily
from .tensor import ShapeError, TensorMatrix, dense_dim
from .verify import VerificationReport, Witness

FORMAT_VERSION = 1
# The reader refuses a matrix whose cleared stack, layers x size^2
# coefficients per component, exceeds this, before clearing or gathering it.
# A two-leg R of degree d and site_dim n clears to d + 1 layers of (n^2)^2,
# its transfer family on L sites (n^(L+1) <= 4096) to L d + 1 layers of
# (n^L)^2. The largest stack a shipped construction writes at the dense limit
# is 23 layers of 2048^2, about 9.6e7 (chain transfer --sites 11 on
# yangian-so --N 2, of degree 2); 2^27 is the least power of two above it.
MAX_DECODED_COEFFICIENTS = 2 ** 27
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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_index(x) -> bool:
    return _is_int(x) and x >= 0


def _label(payload: dict) -> str:
    label = payload.get("label", "")
    _require(isinstance(label, str), "label must be a string", "label")
    return label


# -- the writer --------------------------------------------------------------


def _block(opening: str, items: list, closing: str, depth: int) -> str:
    if not items:
        return opening + closing
    pad = "\n" + "  " * (depth + 1)
    return opening + pad + ("," + pad).join(items) + "\n" + "  " * depth + closing


def _dump(value, depth: int = 0) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it at this
    nesting depth; a callable is written as the text it returns for the
    depth."""
    if isinstance(value, dict):
        return _block("{", [f"{json.dumps(key)}: {_dump(value[key], depth + 1)}"
                            for key in sorted(value)], "}", depth)
    if isinstance(value, (list, tuple)):
        return _block("[", [_dump(x, depth + 1) for x in value], "]", depth)
    if callable(value):
        return value(depth)
    return json.dumps(value)


# -- cleared entries ---------------------------------------------------------


def _atom(p: int, q: int) -> str:
    """p / q in lowest terms, for q > 0."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _field(*stacks) -> str:
    """Q(i,sqrt2) when an extension component of a stack is nonzero, else Q."""
    if any(c.any() for stack in stacks for c in stack[1:]):
        return FIELD_EXTENSION
    return FIELD_RATIONAL


def _entry_texts(scale: int, stack: list, field: str, polynomial: bool, depth: int) -> list:
    """Rows of the JSON text, at that depth, of each entry of stack / scale,
    stack being a matrix cleared as linalg.clear clears it in at most one
    variable.

    Each coefficient is written in lowest terms, as a rational string, or as
    its four components over Q(i,sqrt2) (field).  A polynomial entry is the
    list of its coefficients up to its highest nonzero one (at least one);
    otherwise an entry is its constant.  Equal entries are written once.
    """
    m, n = stack[0].shape[-2:]
    width = 4 if field == FIELD_EXTENSION else 1
    parts = stack[:width] + [np.zeros_like(stack[0])] * (width - len(stack))
    # row k * width + c: component c of layer k
    grid = np.stack([c.reshape(-1, m * n) for c in parts], axis=1).reshape(-1, m * n)
    live = np.flatnonzero((grid != 0).any(axis=0))

    def text(key: tuple) -> str:
        layers = [key[k:k + width] for k in range(0, len(key), width)]
        while len(layers) > 1 and not any(layers[-1]):
            layers.pop()
        coeffs = [[_atom(c, scale) for c in layer] if width == 4 else _atom(layer[0], scale)
                  for layer in layers]
        return _dump(coeffs if polynomial else coeffs[0], depth)

    texts = [text((0,) * len(grid))] * (m * n)
    memo = {}
    for at, key in zip(live.tolist(), map(tuple, grid[:, live].T.tolist())):
        if key not in memo:
            memo[key] = text(key)
        texts[at] = memo[key]
    return [texts[i * n:(i + 1) * n] for i in range(m)]


def _matrix_fields(m: TensorMatrix, names, *also) -> dict:
    """The matrix fields of a payload for m cleared in names, in the field of
    its stack and of the stacks also."""
    if len(names) > 1:
        raise ValueError("matrices in two variables are not serialized")
    scale, stack = m.cleared(names)
    field = _field(stack, *also)

    def entries(depth):
        rows = _entry_texts(scale, stack, field, bool(names), depth + 2)
        return _block("[", [_block("[", row, "]", depth + 1) for row in rows], "]", depth)

    return {"field": field, "site_dim": m.site_dim, "legs": m.legs, "variables": list(names),
            "entries": entries}


def _one_entry(scale: int, stack: list, field: str, polynomial: bool):
    """The text of the one entry of a 1 x 1 cleared stack, as a function of
    its depth."""
    return lambda depth: _entry_texts(scale, stack, field, polynomial, depth)[0][0]


# -- reading -----------------------------------------------------------------


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


def _decode_scalar(obj, field: str, location: str):
    if field == FIELD_EXTENSION:
        if not isinstance(obj, list) or len(obj) != 4:
            raise ParseError("expected four components over Q(i,sqrt2)", location)
        parts = [_parse_atom(c, f"{location}[{k}]") for k, c in enumerate(obj)]
        value = Ext(*parts)
        return value.as_fraction() if value.is_rational else value
    return _parse_atom(obj, location)


def _decode_entry(obj, field: str, variables, location: str):
    if not variables:
        return _decode_scalar(obj, field, location)
    if not isinstance(obj, list) or not obj:
        raise ParseError("expected a non-empty coefficient list", location)
    coeffs = [_decode_scalar(c, field, f"{location}[{k}]") for k, c in enumerate(obj)]
    if len(coeffs) > 1 and not coeffs[-1]:
        raise ParseError("trailing zero coefficient", location)
    return Poly.univariate(variables[0], coeffs)


def _decode_matrix_payload(payload: dict) -> TensorMatrix:
    field = payload.get("field")
    if field not in (FIELD_RATIONAL, FIELD_EXTENSION):
        raise ParseError(f"unknown field {field!r}", "field")
    site_dim, legs = payload.get("site_dim"), payload.get("legs")
    for name, value in (("site_dim", site_dim), ("legs", legs)):
        _require(_is_int(value) and value > 0, f"{name} must be a positive integer", name)
    variables = payload.get("variables")
    if (not isinstance(variables, list) or len(variables) > 1
            or any(not isinstance(v, str) for v in variables)):
        raise ParseError("variables must be a list of at most one name", "variables")
    size = dense_dim(site_dim, legs)
    entries = payload.get("entries")
    if not isinstance(entries, list) or len(entries) != size:
        raise ShapeError(f"expected {size} rows for site_dim {site_dim} and legs {legs}")
    # each distinct cell, told apart by its JSON structure (repr keeps 1 and
    # "1" apart), is decoded once, at its first location in row-major order
    seen, values, ids = {}, [], []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != size:
            raise ShapeError(f"row {i} does not have {size} entries")
        for j, key in enumerate(map(repr, row)):
            if key not in seen:
                seen[key] = len(values)
                values.append(_decode_entry(row[j], field, variables, f"entries[{i}][{j}]"))
            ids.append(seen[key])
    names = tuple(variables)  # every entry is a Poly in them, or there are none
    # the clear below holds layers x (distinct cells <= size^2) coefficients
    layers = max(x.degree() for x in values) + 1 if names else 1
    if layers * size * size > MAX_DECODED_COEFFICIENTS:
        raise ShapeError(f"{layers} layers of {size}x{size} coefficients exceed the "
                         f"decoded limit {MAX_DECODED_COEFFICIENTS}")
    scale, stack = linalg.clear(linalg.object_matrix([values]), names)
    return TensorMatrix.from_cleared(site_dim, legs, names, scale,
                                     [c[..., 0, ids].reshape(c.shape[:-2] + (size, size))
                                      for c in stack])


# -- reports ---------------------------------------------------------------


def _encode_loose(value):
    """Scalar or small polynomial without a field declaration; shape-tagged."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, str):
        return {"text": value}
    if isinstance(value, Poly):
        if len(value.vars) > 1:
            raise ValueError("two-variable values are not serialized")
        names = value.vars or ("u",)
    elif isinstance(value, (int, Fraction, Ext)):
        names = ()
    else:
        raise ValueError(f"cannot serialize report value {value!r}")
    scale, stack = linalg.clear(linalg.object_matrix([[value]]), names)
    field = _field(stack)
    text = _one_entry(scale, stack, field, bool(names))
    return {"variables": list(names), "field": field, "coefficients": text} if names else text


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
    """The canonical JSON text of a matrix, spectral R-matrix, transfer
    family or report; every matrix is written from its cleared stack."""
    if isinstance(obj, TensorMatrix):
        payload = {"kind": "matrix", **_matrix_fields(obj, obj.variables())}
    elif isinstance(obj, SpectralRMatrix):
        names = (obj.variable,)
        scale_d, stack_d = linalg.clear(linalg.object_matrix([[obj.denominator]]), names)
        fields = _matrix_fields(obj.numerator, names, stack_d)
        payload = {
            "kind": "spectral",
            **fields,
            "denominator": _one_entry(scale_d, stack_d, fields["field"], True),
            "label": obj.label,
        }
    elif isinstance(obj, TransferFamily):
        payload = {"kind": "chain", **_matrix_fields(obj.matrix, obj.matrix.variables()),
                   "sites": obj.sites, "aux_dim": obj.aux_dim, "label": obj.label}
    elif isinstance(obj, VerificationReport):
        payload = {"kind": "report", **_report_payload(obj)}
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    payload["format_version"] = FORMAT_VERSION
    return _dump(payload) + "\n"


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
                               _label(payload))
    if kind == "chain":
        matrix = _decode_matrix_payload(payload)
        sites = payload.get("sites")
        _require(sites is None or _is_int(sites), "sites must be an integer", "sites")
        if sites != matrix.legs:
            raise ShapeError(f"sites {sites!r} does not match legs {matrix.legs}")
        aux_dim = payload.get("aux_dim", matrix.site_dim)
        _require(_is_int(aux_dim) and aux_dim > 0, "aux_dim must be a positive integer",
                 "aux_dim")
        return TransferFamily(matrix, sites, aux_dim, _label(payload))
    if kind == "report":
        return _decode_report_payload(payload)
    raise ParseError(f"unknown kind {kind!r}", "kind")


def save(obj, path) -> None:
    with open(path, "w") as handle:
        handle.write(encode(obj))


def load(path):
    with open(path) as handle:
        return decode(handle.read())
