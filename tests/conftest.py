"""Shared fixtures: how to launch the `baxter` console script, and the
entry-by-entry object arithmetic the fast paths are tested against: the
matrix product and the unitarity, regularity and classical-limit checks."""

import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from baxter import linalg
from baxter.poly import Poly
from baxter.tensor import TensorMatrix, permutation_op, swap_factors
from baxter.verify import VerificationReport, Witness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def script_target(name: str) -> str:
    """The "module:attr" that `[project.scripts]` in pyproject.toml names."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10: read the one line of the table
        table = re.search(r"^\[project\.scripts\][ \t]*\n(.*?)(?=^\[|\Z)",
                          text, re.M | re.S)
        line = re.search(rf'^{re.escape(name)}\s*=\s*"([^"]+)"',
                         table.group(1), re.M)
        return line.group(1)
    return tomllib.loads(text)["project"]["scripts"][name]


@pytest.fixture(scope="session")
def baxter_command():
    """(argv prefix, env) that runs the `baxter` entry point.

    An executable `baxter` on PATH is used as it is.  A checkout has none,
    so the `[project.scripts]` target is called the way pip's generated
    wrapper calls it, `sys.exit(main())`.  Either way the checkout's `src`
    leads PYTHONPATH.
    """
    exe = shutil.which("baxter")
    if exe is not None:
        argv = [exe]
    else:
        module, attr = script_target("baxter").split(":")
        argv = [sys.executable, "-c",
                f"import sys; from {module} import {attr}; sys.exit({attr}())"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return argv, env


def naive_matmul(a, b):
    """a @ b entry by entry over the entries' own arithmetic (ints,
    Fractions, Ext and Poly values), sharing no code with linalg."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=object)
    for i in range(n):
        for j in range(m):
            acc = 0
            for t in range(k):
                acc = acc + a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def fresh_tier(a, b):
    """The dtype a product of the held operands a and b takes when both are
    scanned afresh: int32 below 2**30 and int64 below 2**62, for inner *
    sum |coefficient| * max|a_i| * max|b_j| per output component and every
    operand entry, and Python ints otherwise; a dense product of fewer than
    SMALL_PRODUCT multiply-adds is never int32.  On the basis (1, sqrt2, i,
    i*sqrt2) component i times component j lands on component i ^ j, with
    coefficient 2 in absolute value when both hold sqrt2, else 1."""
    rows = a.op if isinstance(a.op, linalg.Padded) else None
    left = a.op if rows is None else rows.vals
    inner = left[0].shape[1] if rows is None else rows.cols.shape[1]
    max_a, max_b = [linalg.max_abs(c) for c in left], [linalg.max_abs(c) for c in b.op]
    bound = [0] * 4
    for i, ma in enumerate(max_a):
        for j, mb in enumerate(max_b):
            bound[i ^ j] += (2 if i & j & 1 else 1) * ma * mb
    top = max(*max_a, *max_b, inner * max(bound))
    small = rows is None and left[0].shape[0] * inner * b.op[0].shape[1] < linalg.SMALL_PRODUCT
    if top >= 2 ** 62:
        return np.dtype(object)
    return np.dtype(np.int64 if small or top >= 2 ** 30 else np.int32)


@pytest.fixture
def kernel_tiers(monkeypatch):
    """(tier taken, tier a fresh scan picks) of every product of the integer
    kernel, in order; the tier taken is the dtype of the product's result,
    which linalg._product returns unwidened."""
    seen, product = [], linalg._product

    def spy(a, b):
        want = fresh_tier(a, b)
        out = product(a, b)
        seen.append((out.op[0].dtype, want))
        return out

    monkeypatch.setattr(linalg, "_product", spy)
    return seen


# -- object references of the unitarity, regularity and classical-limit checks
#
# The entry-by-entry object arithmetic these checks decided by before they
# ran on cleared integer layers: substitution, the object product and an
# entry-by-entry proportionality test.  They are the slow exact path the
# integer checks are tested against; a zero Poly at the witness entry is
# reported at power 0 with value 0.


def _first_nonzero(data):
    for (i, j), x in np.ndenumerate(data):
        if x:
            return (i, j)
    return None


def _proportionality(data, reference):
    """Scalar c with data == c * reference, or a first offending entry."""
    c = data[_first_nonzero(reference)]
    if isinstance(c, Poly) and c.is_constant():
        c = c.constant_value()
    diff = data - c * reference
    hit = _first_nonzero(diff)
    return c, None if hit is None else (hit, diff[hit])


def _lowest(value):
    """(exponents, value) of the lowest monomial of a witness entry."""
    if not isinstance(value, Poly):
        return (), value
    return value.monomials()[0] if value else ((0,) * len(value.vars), 0)


def object_unitarity(r):
    """The product holds every entry as a Poly in the variable when the
    numerator has one, and as a scalar otherwise, so the witness names a
    power exactly when the check is spectral."""
    num = getattr(r, "numerator", r)
    eye = TensorMatrix.identity(num.site_dim, 2)
    names = num.variables()
    if not names:
        prod = swap_factors(num) @ num
        name = "unitarity-constant"
    else:
        (var,) = names
        minus = swap_factors(num).substitute({var: -Poly.variable(var)})
        prod = num @ minus
        name = "unitarity-spectral"
    c, offence = _proportionality(prod.data, eye.data)
    if offence is None and c:
        return VerificationReport(name, True, scalar_factor=c)
    if offence is None:
        offence = ((0, 0), prod.data[0, 0])
    (row, col), value = offence
    return VerificationReport(name, False, Witness(row, col, *_lowest(value)),
                              scalar_factor=c if c else None)


def object_regularity(r):
    num = getattr(r, "numerator", r)
    names = num.variables()
    at_zero = num.substitute({names[0]: 0}) if names else num
    c, offence = _proportionality(at_zero.data, permutation_op(num.site_dim).data)
    if offence is None and c:
        return VerificationReport("regularity", True, scalar_factor=c)
    if offence is None:
        offence = ((0, 0), at_zero.data[0, 0])
    (row, col), value = offence
    return VerificationReport("regularity", False, Witness(row, col, (), value),
                              scalar_factor=c if c else None)


def object_classical_limit(family, r):
    (var,) = family.variables()
    if family.coefficient(var, 0) != TensorMatrix.identity(family.site_dim, family.legs):
        raise ValueError("family does not start at the identity")
    diff = family.coefficient(var, 1).data - r.data
    hit = _first_nonzero(diff)
    if hit is None:
        return VerificationReport("classical-limit", True)
    return VerificationReport("classical-limit", False, Witness(*hit, (1,), diff[hit]))
