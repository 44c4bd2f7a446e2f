"""Tests for the identity verifiers: YBE, classical YBE, unitarity."""

import math
import random
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from baxter import linalg, serialize, verify
from baxter.poly import Poly
from baxter.scalars import IM, SQRT2, Ext
from baxter.tensor import (TensorMatrix, embed_pair, kron, matrix_unit, permutation_op,
                           structure_op)
from baxter.verify import (VerificationReport, Witness, check_classical_limit,
                           check_cybe, check_regularity, check_unitarity,
                           check_ybe, evaluate_matrix, grid_report,
                           int_values, interpolate_grid,
                           uniform_int_scale)
from baxter.solutions import (Realization, baxterize, example1_r, example1_R,
                              example2_solution, yangian_sl_R, yangian_so_R)
from conftest import (naive_matmul, object_classical_limit, object_regularity,
                      object_unitarity)

E11 = matrix_unit(2, 1, 1)
E12 = matrix_unit(2, 1, 2)
E21 = matrix_unit(2, 2, 1)
H = matrix_unit(2, 1, 1) - matrix_unit(2, 2, 2)


def test_report_invariant():
    with pytest.raises(ValueError):
        VerificationReport("x", True, Witness(0, 0, (), 1))
    with pytest.raises(ValueError):
        VerificationReport("x", False)
    rep = VerificationReport("x", False, Witness(0, 1, (2, 0), Fraction(1, 3)))
    assert "witness" in str(rep) and "FAIL" in str(rep)


def test_uniform_int_scale():
    m = TensorMatrix(2, 1, np.array(
        [[Fraction(1, 2), Fraction(1, 3)], [0, 1]], dtype=object))
    scale, data = uniform_int_scale(m)
    assert scale == 6
    assert data[0, 0] == 3 and data[0, 1] == 2 and data[1, 1] == 6
    eye = TensorMatrix.identity(2, 1)
    assert uniform_int_scale(eye)[0] == 1


def test_interpolate_grid():
    # plant p(x, y) = 2 + x*y - 3*y^2, read coefficients back from values
    def p(x, y):
        return 2 + x * y - 3 * y ** 2
    table = np.array([[p(x, y) for y in range(3)] for x in range(2)], dtype=np.int64)
    denominator, (coeff,) = interpolate_grid([table])
    want = np.array([[2, 0, -3], [0, 1, 0]])
    assert (coeff == denominator * want).all()
    # a Q(i, sqrt2) table interpolates component-wise
    denominator, coeff = interpolate_grid([table, 0 * table, 2 * table, 0 * table])
    assert len(coeff) == 4
    assert all((c == denominator * k * want).all() for c, k in zip(coeff, (1, 0, 2, 0)))


def test_constant_ybe():
    p = permutation_op(2)
    assert check_ybe(p, mode="constant").passed
    assert check_ybe(example1_R(2)).passed
    bad = example1_r(2) + kron(E12, E12)
    rep = check_ybe(bad, mode="constant")
    assert not rep.passed
    assert (rep.witness.row, rep.witness.col) == (0, 7)
    assert rep.witness.value == Fraction(1, 2)
    assert rep.witness.exponents == ()


def test_constant_cybe():
    assert check_cybe(example1_r(2)).passed
    rep = check_cybe(permutation_op(2))
    assert not rep.passed
    assert (rep.witness.row, rep.witness.col, rep.witness.value) == (1, 2, -1)
    sym = kron(H, E12) + kron(E12, H)
    rep = check_cybe(sym)
    assert not rep.passed
    assert (rep.witness.row, rep.witness.col, rep.witness.value) == (0, 3, -4)


def test_rational_cybe():
    omega = structure_op("P", 2)
    r = example1_r(2)
    assert check_cybe(r, omega=omega, mode="rational").passed
    sym = kron(H, E12) + kron(E12, H)
    rep = check_cybe(sym, omega=omega, mode="rational")
    assert not rep.passed
    assert (rep.witness.row, rep.witness.col) == (0, 1)
    assert rep.witness.exponents == (1, 1)
    assert rep.witness.value == 2


def test_rational_cybe_validation():
    r = example1_r(2)
    with pytest.raises(ValueError):
        check_cybe(r, mode="rational")
    with pytest.raises(ValueError):
        check_cybe(r, omega=permutation_op(3), mode="rational")
    with pytest.raises(ValueError):
        check_cybe(TensorMatrix.identity(2, 1))
    with pytest.raises(ValueError):
        check_cybe(r, mode="sideways")
    with pytest.raises(ValueError, match="expected a constant"):
        check_cybe(r * Poly.variable("u"))


def dense_cybe(r, omega=None):
    """First nonzero (row, col, exponents, value) of the classical residual,
    or None, by embed_pair and @ on TensorMatrix objects.

    Without omega the residual is [r12, r13] + [r12, r23] + [r13, r23].
    With omega, X = omega/(u - v) + r is cleared by a (a+b) b, where a =
    u1 - u2 and b = u2 - u3, and the residual b [Y12, Y13] + (a+b) [Y12, Y23]
    + a [Y13, Y23], with Y12 = omega12 + a r12, Y13 = omega13 + (a+b) r13 and
    Y23 = omega23 + b r23, is kept as {(power of a, power of b): matrix}.
    """
    def add(*terms):
        out = {}
        for term in terms:
            for exps, m in term.items():
                out[exps] = out[exps] + m if exps in out else m
        return out

    def shift(e, f):
        return tuple(x + y for x, y in zip(e, f))

    def mul(x, y):
        return add(*({shift(ex, ey): mx @ my}
                     for ex, mx in x.items() for ey, my in y.items()))

    def com(x, y):
        return add(mul(x, y), {exps: -m for exps, m in mul(y, x).items()})

    def times(x, *monomials):
        return add(*({shift(exps, f): m} for exps, m in x.items() for f in monomials))

    pairs = ((1, 2), (1, 3), (2, 3))
    e = {p: embed_pair(r, p) for p in pairs}
    if omega is None:
        y12, y13, y23 = ({(): e[p]} for p in pairs)
        residual = add(com(y12, y13), com(y12, y23), com(y13, y23))
    else:
        w = {p: embed_pair(omega, p) for p in pairs}
        a, b, one = (1, 0), (0, 1), (0, 0)
        y12 = {one: w[1, 2], a: e[1, 2]}
        y13 = {one: w[1, 3], a: e[1, 3], b: e[1, 3]}
        y23 = {one: w[2, 3], b: e[2, 3]}
        residual = add(times(com(y12, y13), b), times(com(y12, y23), a, b),
                       times(com(y13, y23), a))
    return min(((i, j, exps, value) for exps, m in residual.items()
                for (i, j), value in np.ndenumerate(m.data) if value),
               key=lambda hit: hit[:3], default=None)


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SCALARS = st.one_of(SMALL, st.builds(Ext, SMALL, SMALL, SMALL, SMALL))
# A sparse two-site matrix over Q or Q(i, sqrt2).
CHANGES = st.builds(lambda d: TensorMatrix.from_entries(2, 2, d),
                    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                    SCALARS, max_size=3))


@settings(max_examples=60, deadline=None)
@given(st.builds(lambda c, d: example1_r(2) * c + d, SCALARS, CHANGES),
       st.none() | st.builds(lambda d: permutation_op(2) + d, CHANGES))
def test_cybe_matches_dense_residual(r, omega):
    # r is a multiple of the triangular solution, which satisfies both
    # identities with omega = P, plus a change that mostly breaks them;
    # omega is P or a changed P, whose own commutators then stop vanishing
    # (with r = 0 they are all that is left of the rational residual)
    want = dense_cybe(r, omega)
    rep = check_cybe(r, omega=omega, mode="constant" if omega is None else "rational")
    assert rep.passed == (want is None)
    if want is not None:
        w = rep.witness
        assert (w.row, w.col, w.exponents, w.value) == want


def test_cybe_matches_dense_residual_over_extension():
    # the skew jordanian r0 at N = 4 lives over Q(i, sqrt2) and solves the
    # constant identity; a perturbed copy fails it, in both modes
    from baxter.solutions import Realization, so_jordanian_data
    r0 = so_jordanian_data(4, Realization.SKEW).r0
    assert check_cybe(r0).passed and dense_cybe(r0) is None
    bad = r0 + TensorMatrix.from_entries(4, 2, {(1, 9): IM * Fraction(2, 3) + SQRT2})
    rep = check_cybe(bad)
    assert (rep.witness.row, rep.witness.col, (), rep.witness.value) == dense_cybe(bad)
    omega = permutation_op(4)
    rep = check_cybe(bad, omega=omega, mode="rational")
    w = rep.witness
    assert (w.row, w.col, w.exponents, w.value) == dense_cybe(bad, omega)


def test_cybe_conjugation_invariance():
    # the identity is preserved by x -> (Q tensor Q) x (Q tensor Q)^-1
    rng = random.Random(31)
    r = example1_r(2)
    omega = permutation_op(2)
    for _ in range(3):
        while True:
            q = TensorMatrix(2, 1, np.array(
                [[Fraction(rng.randint(-3, 3)) for _ in range(2)]
                 for _ in range(2)], dtype=object))
            if q.data[0, 0] * q.data[1, 1] - q.data[0, 1] * q.data[1, 0]:
                break
        qq = kron(q, q)
        conj = qq @ r @ qq.inverse()
        assert check_cybe(conj).passed
        assert check_cybe(conj, omega=omega, mode="rational").passed


def test_spectral_ybe_grid():
    rep = check_ybe(yangian_sl_R(2))
    assert rep.passed
    assert rep.grid_size == (3, 3)


def test_spectral_ybe_grid_poly_agree():
    u = Poly.variable("u")
    good = yangian_sl_R(2).numerator
    planted = (TensorMatrix.identity(2, 2) + kron(E12, E12)) * u \
        + permutation_op(2)
    for m in (good, planted):
        grid = check_ybe(m, method="grid")
        poly = check_ybe(m, method="poly")
        assert grid.passed == poly.passed
        if not grid.passed:
            for w in (grid.witness, poly.witness):
                assert (w.row, w.col) == (0, 3)
                assert w.exponents == (1, 1)
                assert w.value == 2


def test_ybe_validation():
    with pytest.raises(ValueError):
        check_ybe(TensorMatrix.identity(2, 1))
    with pytest.raises(ValueError):
        check_ybe(yangian_sl_R(2), method="montecarlo")
    with pytest.raises(ValueError):
        check_ybe(permutation_op(2), mode="slanted")


def test_unitarity():
    rep = check_unitarity(example1_R(2))
    assert rep.passed and rep.scalar_factor == 1
    u = Poly.variable("u")
    rep = check_unitarity(yangian_sl_R(2))
    assert rep.passed
    assert rep.scalar_factor == Poly.lift(1, ("u",)) - u * u
    rep = check_unitarity(TensorMatrix.identity(2, 2) + kron(E12, E12))
    assert not rep.passed
    assert (rep.witness.row, rep.witness.col, rep.witness.value) == (0, 3, 2)
    assert rep.scalar_factor == 1


def test_regularity():
    rep = check_regularity(yangian_sl_R(2))
    assert rep.passed and rep.scalar_factor == 1
    u = Poly.variable("u")
    bad = TensorMatrix.identity(2, 2) * u + kron(E12, E12)
    rep = check_regularity(bad)
    assert not rep.passed
    assert (rep.witness.row, rep.witness.col, rep.witness.value) == (0, 3, 1)
    assert rep.scalar_factor is None


def test_classical_limit():
    r = example1_r(2)
    xi = Poly.variable("xi")
    family = TensorMatrix.identity(2, 2) + r * xi
    assert check_classical_limit(family, r).passed
    rep = check_classical_limit(family, r * 2)
    assert not rep.passed and rep.witness.exponents == (1,)
    with pytest.raises(ValueError):
        check_classical_limit(family * 2, r)


if __name__ == "__main__":
    test_spectral_ybe_grid_poly_agree()


# -- integer grid engine --------------------------------------------------------


def test_int_values_match_evaluate_matrix():
    u = Poly.variable("u")
    rng = random.Random(5)
    scalars = [0, 1, -2, Fraction(3, 4), Fraction(-1, 6), SQRT2 * Fraction(1, 2), IM * 3]
    for _ in range(10):
        entries = [[sum((rng.choice(scalars) * u ** k for k in range(3)), Poly())
                    if rng.random() < 0.7 else rng.choice(scalars)
                    for _ in range(4)] for _ in range(4)]
        m = TensorMatrix(2, 2, entries)
        scale, stack = linalg.clear(m.data, ("u",))
        assert scale == uniform_int_scale(m)[0]
        for t in (0, 1, 5, -3):
            want = evaluate_matrix(uniform_int_scale(m)[1], "u", t)
            got = int_values(stack, t)
            for (i, j), value in np.ndenumerate(want):
                parts = [int(c[i, j]) for c in got]
                assert (Ext(*parts) if len(parts) == 4 else parts[0]) == value


def test_int_values_on_int64_stacks_never_wrap():
    # each coefficient fits int64, but Horner at 5 passes 2**63 on the way
    for top in (2 ** 61, 3, -(2 ** 61)):
        coeffs = np.array([[[2 ** 61, -7]], [[top, 2 ** 61]], [[5, 2 ** 60]]], dtype=np.int64)
        for t in (0, 1, 5, -5):
            got = int_values([coeffs], t)
            want = int_values([coeffs.astype(object)], t)
            assert got[0].dtype == want[0].dtype
            assert got[0].tolist() == want[0].tolist()
            assert want[0].tolist() == [[sum(int(coeffs[k, 0, j]) * t ** k for k in range(3))
                                         for j in range(2)]]


def test_evaluate_matrix_keeps_the_other_variable():
    a, b = Poly.variable("a"), Poly.variable("b")
    data = linalg.object_matrix([[a * b + b, a * a - 1], [b, Fraction(1, 2)]])
    got = evaluate_matrix(data, "a", 2)
    assert got[0, 0] == 3 * b and isinstance(got[0, 0], Poly)
    assert got[0, 1] == 3 and not isinstance(got[0, 1], Poly)
    assert got[1, 0] == b and got[1, 1] == Fraction(1, 2)
    assert evaluate_matrix(data, "b", -1)[0, 0] == -a - 1


def test_grid_and_poly_agree_on_perturbations():
    u = Poly.variable("u")
    rational = yangian_sl_R(2).numerator + kron(E12, E11) * (3 * u)
    extension = yangian_sl_R(2).numerator + kron(E11, E11) * (IM * u)
    for m in (rational, extension):
        grid = check_ybe(m, method="grid")
        poly = check_ybe(m, method="poly")
        assert not grid.passed and not poly.passed
        assert grid.witness == poly.witness
    assert isinstance(check_ybe(extension).witness.value, Ext)


def test_forced_overflow_takes_python_int_fallback(kernel_tiers):
    # The braid identity is homogeneous, so 2**40 times a solution is one;
    # its grid products exceed the int64 bound and must run in Python ints.
    plain = yangian_so_R(4)
    assert check_ybe(plain).passed
    tiers = {used for used, _ in kernel_tiers}
    assert tiers and np.dtype(object) not in tiers
    kernel_tiers.clear()
    big = plain.numerator * 2 ** 40
    assert check_ybe(big).passed
    assert np.dtype(object) in {used for used, _ in kernel_tiers}
    u = Poly.variable("u")
    bad = big + kron(matrix_unit(4, 1, 1), matrix_unit(4, 2, 2)) * u
    grid = check_ybe(bad)
    assert not grid.passed
    assert grid.witness == check_ybe(bad, method="poly").witness


def one_entry_perturbed(num):
    """num with u added to one entry, which breaks the braid identity."""
    n = num.site_dim
    return num + kron(matrix_unit(n, 1, 1), matrix_unit(n, 2, 2)) * Poly.variable("u")


TIER_CASES = {
    **{f"so{N}-{r.value}": lambda N=N, r=r: yangian_so_R(N, r).numerator
       for N in (3, 4, 5) for r in Realization},
    **{f"sl{n}": lambda n=n: yangian_sl_R(n).numerator for n in (2, 3, 4)},
    **{f"twisted{N}-{r.value}": lambda N=N, r=r: example2_solution(N, r).numerator
       for N in (4, 5) for r in Realization},
    # words whose products cross from int32 to int64 and to Python ints
    # part of the way along, and the case of the forced overflow
    "so4-times-2^9": lambda: yangian_so_R(4).numerator * 2 ** 9,
    "sl3-times-2^18": lambda: yangian_sl_R(3).numerator * 2 ** 18,
    "twisted4-skew-times-2^15": lambda: example2_solution(4, Realization.SKEW).numerator * 2 ** 15,
    "so4-times-2^40": lambda: yangian_so_R(4).numerator * 2 ** 40,
}


@pytest.mark.parametrize("build", TIER_CASES.values(), ids=TIER_CASES)
def test_every_grid_product_takes_the_tier_of_a_fresh_scan(kernel_tiers, build):
    # the words carry their bounds from factor to factor; every product must
    # still take the dtype a max_abs scan of both its operands picks
    num = build()
    for m, passed in ((num, True), (one_entry_perturbed(num), False)):
        kernel_tiers.clear()
        assert check_ybe(m).passed == passed
        assert kernel_tiers and all(used == want for used, want in kernel_tiers)


def object_ybe_witness(num):
    """First nonzero (row, col, exponents, value) of R12(a) R13(a+b) R23(b) -
    R23(b) R13(a+b) R12(a), or None, from Poly substitution, embed_pair and
    the entry-by-entry product of Poly objects."""
    (var,) = num.variables()
    a, b = Poly.variable("a"), Poly.variable("b")
    x12, y13, z23 = (embed_pair(num.substitute({var: t}), legs).data
                     for t, legs in ((a, (1, 2)), (a + b, (1, 3)), (b, (2, 3))))
    diff = naive_matmul(naive_matmul(x12, y13), z23) - naive_matmul(naive_matmul(z23, y13), x12)
    for (i, j), entry in np.ndenumerate(diff):
        if entry:
            return (i, j, *Poly.lift(entry).monomials()[0])
    return None


def object_constant_ybe(m):
    """The constant braid identity of the unscaled m by object arithmetic:
    each factor embedded by kron with the identity on one leg, reindexed to
    legs (1, 3), multiplied entry by entry; the witness is the first
    nonzero entry of the difference at its lowest monomial."""
    n = m.site_dim
    one = TensorMatrix.identity(n, 1)
    e12, e23 = kron(m, one), kron(one, m)
    e13 = e12.reindexed(np.arange(n ** 3).reshape(n, n, n).transpose(0, 2, 1).ravel())
    lhs = naive_matmul(naive_matmul(e12.data, e13.data), e23.data)
    rhs = naive_matmul(naive_matmul(e23.data, e13.data), e12.data)
    for (i, j), entry in np.ndenumerate(lhs - rhs):
        if entry:
            exps, value = (Poly.lift(entry).monomials()[0] if m.variables()
                           else ((), entry))
            return VerificationReport("ybe-constant", False, Witness(i, j, exps, value))
    return VerificationReport("ybe-constant", True)


@st.composite
def constant_braid_cases(draw):
    """A solution (P, or exp(xi r) of the triangular family) over Q or
    Q(i, sqrt2), times a scalar with a denominator of 2..9 and, in some
    draws, a factor 2^40 that takes the products to Python ints; its
    entries constant or in one or two variables; one entry perturbed or
    none.  On three sites only constant rational draws, for the reference's
    sake."""
    names = draw(st.sampled_from([(), ("u",), ("a", "b")]))
    ext = draw(st.booleans())
    n = draw(st.sampled_from([2, 2, 3] if names == () and not ext else [2]))
    big = 2 ** 40 if draw(st.booleans()) else 1
    xi = Fraction(draw(st.sampled_from([1, -1, 3])), draw(st.integers(2, 9)) * big)
    m = draw(st.sampled_from([permutation_op(n), example1_R(n, xi)]))
    c = Fraction(draw(st.sampled_from([1, -2, 5])), draw(st.integers(2, 9)))
    if ext:
        c = c * draw(st.sampled_from([IM, SQRT2, Ext(1, 0, 1)]))
    m = m * c
    if names:
        variables = [Poly.variable(v) for v in names]
        m = m * (variables[0] + variables[-1] * Fraction(1, draw(st.integers(2, 9))))
    if draw(st.booleans()):
        size = n * n
        at = {(draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))):
              Fraction(draw(st.sampled_from([1, -1, 7])), draw(st.integers(2, 9)) * big)
              * (Poly.variable(names[0]) if names and draw(st.booleans()) else 1)
              * (SQRT2 if ext and draw(st.booleans()) else 1)}
        m = m + TensorMatrix.from_entries(n, 2, at)
    return m


@settings(max_examples=40, deadline=None)
@given(constant_braid_cases())
def test_constant_ybe_matches_the_object_product_of_the_unscaled_matrix(m):
    _same_bytes(check_ybe(m, mode="constant"), object_constant_ybe(m))


@pytest.mark.parametrize("name", ["sl2", "baxterized2", "so3"])
@pytest.mark.parametrize("perturbed", [False, True])
def test_poly_method_matches_object_product(name, perturbed):
    from baxter.solutions import baxterize
    num = {"sl2": lambda: yangian_sl_R(2), "so3": lambda: yangian_so_R(3),
           "baxterized2": lambda: baxterize(example1_R(2))}[name]().numerator
    if perturbed:
        u = Poly.variable("u")
        n = num.site_dim
        num = num + TensorMatrix.from_entries(
            n, 2, {(1, n): IM * u + Fraction(1, 3), (n * n - 1, 0): SQRT2 * u * u})
    want = object_ybe_witness(num)
    rep = check_ybe(num, method="poly")
    assert rep.passed == (want is None) == (not perturbed)
    if want is not None:
        w = rep.witness
        assert (w.row, w.col, w.exponents, w.value) == want
        assert len(w.exponents) == 2


# Numerators of spectral solutions on two and three sites, each drawn with a
# sparse change of degree 0-2 in u over Q or Q(i, sqrt2), which mostly
# breaks it.  The object reference takes about a second on three sites, so
# those draw fewer examples.
POLY_BASES = {"sl2": lambda: yangian_sl_R(2).numerator,
              "bx2": lambda: baxterize(example1_R(2)).numerator,
              "sl3": lambda: yangian_sl_R(3).numerator}


@st.composite
def perturbed_numerators(draw, names):
    num = POLY_BASES[draw(st.sampled_from(names))]()
    n = num.site_dim
    u = Poly.variable("u")
    change = draw(st.dictionaries(st.tuples(st.integers(0, n * n - 1), st.integers(0, n * n - 1)),
                                  st.builds(lambda c, k: c * u ** k, SCALARS, st.integers(0, 2)),
                                  max_size=2))
    return num + TensorMatrix.from_entries(n, 2, change)


def assert_poly_method_matches_the_object_product_and_the_grid(num):
    want = object_ybe_witness(num)
    rep = check_ybe(num, method="poly")
    reference = VerificationReport("ybe-spectral", want is None,
                                   None if want is None else Witness(*want))
    assert serialize.encode(rep) == serialize.encode(reference)
    assert str(rep) == str(reference)
    grid = check_ybe(num)
    assert grid.passed == rep.passed and grid.witness == rep.witness


@settings(max_examples=25, deadline=None)
@given(perturbed_numerators(["sl2", "bx2"]))
def test_poly_method_matches_the_object_product_and_the_grid(num):
    assert_poly_method_matches_the_object_product_and_the_grid(num)


@settings(max_examples=3, deadline=None)
@given(perturbed_numerators(["sl3"]))
def test_poly_method_matches_the_object_product_on_three_sites(num):
    assert_poly_method_matches_the_object_product_and_the_grid(num)


def test_poly_method_on_entries_of_degree_zero():
    # every entry is a Poly of degree 0 in u: substitution leaves scalars,
    # so the object product's witness names no monomial
    num = (example1_r(2) + kron(E12, E12)) * Poly.lift(1, ("u",))
    w = check_ybe(num, method="poly").witness
    want = (0, 7, (), Fraction(1, 2))
    assert (w.row, w.col, w.exponents, w.value) == object_ybe_witness(num) == want
    grid = check_ybe(num).witness
    assert (grid.row, grid.col, grid.exponents, grid.value) == want


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("axis", [0, 1])
def test_the_minimal_grid_is_conclusive(degree, axis):
    # the falling factorial f(t) = t (t-1) ... (t-degree+1) in x, or in y,
    # vanishes on the first degree points of its axis, so a grid of one
    # point fewer there would pass it; the other axis is one degree wider
    def falling(t):
        return math.prod(t - k for k in range(degree))

    degrees, low, top = (((degree, degree + 1), (1, 0), (degree, 0)) if axis == 0
                         else ((degree + 1, degree), (0, 1), (0, degree)))
    rep = grid_report("f", lambda x, y: [np.array([[falling((x, y)[axis])]])], *degrees)
    assert rep.grid_size == (degrees[0] + 1, degrees[1] + 1)
    # f's coefficients are the Stirling numbers s(degree, k): the witness is
    # the lowest, that of t, (-1)^(degree-1) (degree-1)!, and the top one is 1
    assert not rep.passed
    assert rep.witness == Witness(0, 0, low, (-1) ** (degree - 1) * math.factorial(degree - 1))
    table = np.array([[falling((x, y)[axis]) for y in range(degrees[1] + 1)]
                      for x in range(degrees[0] + 1)])
    denominator, (coeff,) = interpolate_grid([table])
    assert coeff[top] == denominator and np.count_nonzero(coeff) == degree


SPECTRAL_CASES = {**{f"so{N}-{r.value}": (lambda N=N, r=r: yangian_so_R(N, r))
                     for N in range(3, 7) for r in Realization},
                  **{f"sl{n}": (lambda n=n: yangian_sl_R(n)) for n in (2, 3, 4)}}


@pytest.mark.parametrize("name", sorted(SPECTRAL_CASES))
@pytest.mark.parametrize("perturbed", [False, True])
def test_padded_grid_reports_equal_the_dense_grid_bytes(name, perturbed, monkeypatch):
    num = SPECTRAL_CASES[name]().numerator
    n = num.site_dim
    if perturbed:
        u = Poly.variable("u")
        num = num + TensorMatrix.from_entries(n, 2, {(1, n): IM * u + Fraction(1, 3),
                                                     (n * n - 1, 0): 3 * u * u})
    chosen = []
    rule = linalg.padded

    def spy(stack):
        chosen.append(rule(stack))
        return chosen[-1]

    monkeypatch.setattr(linalg, "padded", spy)
    sparse = check_ybe(num)
    # n = 4 is the first site dimension with rows of 16
    assert (chosen[0] is not None) == (n >= 4)
    monkeypatch.setattr(linalg, "padded", lambda stack: None)
    dense = check_ybe(num)
    assert sparse.passed == (not perturbed)
    assert serialize.encode(sparse) == serialize.encode(dense)


# The mirror path of the grid: with R21 = R12 the right-hand word is the P13
# mirror of the left-hand word, and only left-hand words are built.

MIRROR_BASES = {name: SPECTRAL_CASES[name] for name in
                ("sl2", "sl3", "so3-antidiag", "so3-skew", "so4-antidiag", "so4-skew")}


def _swap(n, k):
    """The composite index of k under the swap of the two legs."""
    return (k % n) * n + k // n


@cache
def _numerator_of(name):
    return MIRROR_BASES[name]().numerator


@st.composite
def mirror_changes(draw):
    """(name, numerator, symmetric): a spectral solution with one entry
    changed by c u^k, k = 0..2, over Q or Q(i, sqrt2), and in half the
    draws its swapped twin by the same amount, which keeps R21 = R12;
    symmetric says whether the result has R21 = R12."""
    name = draw(st.sampled_from(sorted(MIRROR_BASES)))
    num = _numerator_of(name)
    n = num.site_dim
    i, j = draw(st.integers(0, n * n - 1)), draw(st.integers(0, n * n - 1))
    value = draw(SCALARS) * Poly.variable("u") ** draw(st.integers(0, 2))
    twin = (_swap(n, i), _swap(n, j))
    twinned = draw(st.booleans())
    change = {(i, j): value, **({twin: value} if twinned else {})}
    symmetric = twinned or twin == (i, j) or value == 0
    return name, num + TensorMatrix.from_entries(n, 2, change), symmetric


@settings(max_examples=20, deadline=None)
@given(mirror_changes())
def test_mirror_grid_reports_equal_the_full_word_bytes(case):
    _, num, symmetric = case
    seen = []
    rule = verify._leg_symmetric

    def spy(stack, swap):
        seen.append(rule(stack, swap))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_leg_symmetric", spy)
        mirror = check_ybe(num)
        mp.setattr(verify, "_leg_symmetric", lambda stack, swap: False)
        full = check_ybe(num)
    assert seen == [symmetric]
    assert str(mirror) == str(full)
    assert serialize.encode(mirror) == serialize.encode(full)
    poly = check_ybe(num, method="poly")
    assert (mirror.passed, mirror.witness) == (poly.passed, poly.witness)


LEG_SYMMETRIC = {
    **{f"so{N}-{r.value}": (lambda N=N, r=r: yangian_so_R(N, r), True)
       for N in range(3, 7) for r in Realization},
    **{f"sl{n}": (lambda n=n: yangian_sl_R(n), True) for n in (2, 3, 4)},
    **{f"bx{n}": (lambda n=n: baxterize(example1_R(n)), False) for n in (2, 3)},
    **{f"twisted{N}-{r.value}": (lambda N=N, r=r: example2_solution(N, r), False)
       for N in (4, 5) for r in Realization},
}


@pytest.mark.parametrize("name", sorted(LEG_SYMMETRIC))
def test_leg_symmetry_of_the_spectral_families(name):
    build, want = LEG_SYMMETRIC[name]
    _, _, _, stack, swap = verify._cleared_two_leg(build(), "Yang-Baxter")
    assert verify._leg_symmetric(stack, swap) is want


# Spectral solutions that are not leg-symmetric (LEG_SYMMETRIC), so the grid
# builds both words at every point, and whether their cleared stack takes
# padded rows.
SKEWED_GRID = {"twisted4-antidiag": True, "twisted4-skew": False, "twisted5-antidiag": True,
               "twisted5-skew": True, "bx3": False}


@cache
def _skewed_numerator(name):
    return LEG_SYMMETRIC[name][0]().numerator


@pytest.mark.parametrize("name", sorted(SKEWED_GRID))
@pytest.mark.parametrize("change", [None, (0, Ext(Fraction(1, 3), 0, 0, 1)),
                                    (1, Ext(0, -2, Fraction(1, 2), 0)), (2, Ext(3, 1, 0, -1))])
def test_grid_and_poly_agree_off_the_mirror_path(name, change):
    num = _skewed_numerator(name)
    n = num.site_dim
    assert (linalg.padded(num.cleared(num.variables())[1]) is not None) is SKEWED_GRID[name]
    if change is not None:
        # one entry changed by c u^k over Q(i, sqrt2), at a place moved by k
        k, c = change
        at = ((k + 1) * n + 1) % (n * n), (k * n + 2) % (n * n)
        num = num + TensorMatrix.from_entries(n, 2, {at: c * Poly.variable("u") ** k})
    grid = check_ybe(num)
    poly = check_ybe(num, method="poly")
    assert grid.passed == poly.passed == (change is None)
    assert grid.witness == poly.witness


def fraction_interpolation(pts_a, pts_b, table):
    """The bivariate coefficients of values on the grid 0..pts_a-1 by
    0..pts_b-1 as Fraction object products with the inverse Vandermonde
    matrices, a reference for the integer interpolation of grid_report."""
    inverse = [linalg.object_matrix([[Fraction(w, denominator) for w in row]
                                     for row in weights.tolist()])
               for weights, denominator in map(linalg.lagrange_weights, (pts_a, pts_b))]
    return linalg.matmul(linalg.matmul(inverse[0], linalg.object_matrix(table)), inverse[1].T)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_grid_report_witness_matches_whole_grid_search(width, data):
    # each point's first nonzero entry may come before or after the others',
    # and some points are zero throughout
    shape = (3, 4)
    grid = {}
    for x in range(3):
        for y in range(2):
            comps = np.zeros((width,) + shape, dtype=np.int64)
            for _ in range(data.draw(st.integers(0, 3))):
                at = (data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, 2)),
                      data.draw(st.integers(0, 3)))
                comps[at] = data.draw(st.integers(-5, 5))
            grid[x, y] = list(comps)
    rep = grid_report("t", lambda x, y: grid[x, y], 2, 1, scale=3)
    hits = np.argwhere(np.logical_or.reduce([c != 0 for comps in grid.values() for c in comps]))
    if not len(hits):
        assert rep.passed
        return
    row, col = hits[0]
    table = [[linalg.ext_value([int(c[row, col]) for c in grid[x, y]], 3) for y in range(2)]
             for x in range(3)]
    coeff = fraction_interpolation(3, 2, table)
    i, j = next((i, j) for i in range(3) for j in range(2) if coeff[i, j])
    assert rep.witness == Witness(row, col, (i, j), coeff[i, j])


# -- unitarity, regularity and the classical limit against the object path -----

ENTRY_VALUES = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]


def _scalar(data, ext):
    if ext and data.draw(st.booleans()):
        return Ext(*(data.draw(st.sampled_from(ENTRY_VALUES)) for _ in range(4)))
    return data.draw(st.sampled_from(ENTRY_VALUES))


def _entry(data, ext, degree):
    """A scalar, or (degree given) a Poly in u of degree at most degree,
    which may be constant."""
    if degree is None or data.draw(st.booleans()):
        return _scalar(data, ext)
    return Poly.univariate("u", [_scalar(data, ext) for _ in range(degree + 1)])


def _solution(n, spectral):
    if spectral:
        return [yangian_sl_R(n).numerator, baxterize(example1_R(n)).numerator,
                TensorMatrix.identity(n, 2) * Poly.variable("u") + permutation_op(n)]
    return [example1_R(n), permutation_op(n) * Ext(1, 0, 1), TensorMatrix.identity(n, 2)]


def _two_leg_matrix(data):
    """n = 2 or 3, over Q or Q(i, sqrt2), constant or spectral of degree 0..2,
    with mixed scalar and Poly entries: sparse random, all zero, or a passing
    solution with one entry perturbed or none; some rows may be zeroed."""
    n, ext = data.draw(st.sampled_from([2, 3])), data.draw(st.booleans())
    degree = data.draw(st.sampled_from([None, 0, 1, 2]))
    size = n * n
    base = data.draw(st.sampled_from(["random", "zero", "solution"]))
    if base == "solution":
        m = data.draw(st.sampled_from(_solution(n, degree is not None)))
        out = m.data.copy()
        if data.draw(st.booleans()):
            at = (data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1)))
            out[at] = out[at] + _entry(data, ext, degree)
    else:
        out = np.zeros((size, size), dtype=object)
        if degree is not None and base == "zero":
            out[:] = [[Poly.univariate("u", [0])] * size] * size
        if base == "random":
            for _ in range(data.draw(st.integers(0, 2 * size))):
                at = (data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1)))
                out[at] = _entry(data, ext, degree)
    for row in data.draw(st.sets(st.integers(0, size - 1), max_size=2)):
        out[row] = 0
    return TensorMatrix(n, 2, out)


def _constant_matrix(data, n, ext):
    """A sparse constant two-leg matrix on C^n."""
    size = n * n
    out = np.zeros((size, size), dtype=object)
    for _ in range(data.draw(st.integers(0, 6))):
        at = (data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1)))
        out[at] = _scalar(data, ext)
    return TensorMatrix(n, 2, out)


def _same_bytes(got, want):
    assert str(got) == str(want)
    assert serialize.encode(got) == serialize.encode(want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_unitarity_and_regularity_match_the_object_path(data):
    m = _two_leg_matrix(data)
    _same_bytes(check_unitarity(m), object_unitarity(m))
    _same_bytes(check_regularity(m), object_regularity(m))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_classical_limit_matches_the_object_path(data):
    xi = Poly.variable("xi")
    n, ext = data.draw(st.sampled_from([2, 3])), data.draw(st.booleans())
    r, square, start = (_constant_matrix(data, n, ext) for _ in range(3))
    family = TensorMatrix.identity(n, 2) + r * xi + square * (xi * xi)
    if data.draw(st.booleans()):
        family = family + start   # usually no longer the identity at xi = 0
    against = data.draw(st.sampled_from([r, square, r * 2]))
    try:
        want = object_classical_limit(family, against)
    except ValueError:
        with pytest.raises(ValueError, match="does not start at the identity"):
            check_classical_limit(family, against)
        return
    _same_bytes(check_classical_limit(family, against), want)


def test_classical_limit_refuses_a_candidate_with_variables():
    family = TensorMatrix.identity(2, 2) + example1_r(2) * Poly.variable("xi")
    with pytest.raises(ValueError, match="must be constant"):
        check_classical_limit(family, example1_r(2) * Poly.variable("xi"))


def test_unitarity_of_a_spectral_zero_is_a_failure_at_power_zero():
    zero = TensorMatrix.identity(2, 2) * Poly.univariate("u", [0])
    rep = check_unitarity(zero)
    assert not rep.passed and rep.scalar_factor is None
    assert rep.witness == Witness(0, 0, (0,), 0)
