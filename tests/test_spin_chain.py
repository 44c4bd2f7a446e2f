"""Tests for chain Hamiltonians, transfer matrices, and calibration."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from baxter import linalg, serialize, spin_chain, verify
from baxter.poly import Poly
from baxter.scalars import IM, SQRT2, Ext
from baxter.solutions import (Realization, SpectralRMatrix, baxterize, example1_R,
                              example2_solution, yangian_sl_R, yangian_so_R)
from baxter.spin_chain import (ChainSpec, bonds, calibrate, check_commutation,
                               derive_hamiltonian, exchange_density, folded_remark,
                               remark_hamiltonian, sigma_minus, sigma_x, sigma_z,
                               transfer_matrix)
from baxter.tensor import (TensorMatrix, embed_two_leg, kron, matrix_unit,
                           permutation_op)
from baxter.verify import check_ybe


def sigma_y():
    return (matrix_unit(2, 2, 1) - matrix_unit(2, 1, 2)) * IM


def shift_operator(sites, site_dim=2):
    """Cyclic one-site shift e_{s1..sL} -> e_{sL s1..s_{L-1}}."""
    entries = {}
    for col in range(site_dim ** sites):
        head, last = divmod(col, site_dim)
        entries[last * site_dim ** (sites - 1) + head, col] = 1
    return TensorMatrix.from_entries(site_dim, sites, entries)


def partial_trace_first(m):
    """Trace out leg 1 of a dense matrix, block by block."""
    n, rest = m.site_dim, m.size // m.site_dim
    blocks = m.data.reshape(n, rest, n, rest)
    return TensorMatrix(n, m.legs - 1, sum(blocks[a, :, a, :] for a in range(n)))


def dense_transfer(r, sites, point):
    """tr_1 [ N_{1,L+1} ... N_{12} ] at a point, by dense embeddings and products."""
    value = r.evaluate(point)
    prod = TensorMatrix.identity(r.site_dim, sites + 1)
    for k in range(sites, 0, -1):
        prod = prod @ embed_two_leg(value, sites + 1, (1, k + 1))
    return partial_trace_first(prod)


def test_exchange_density_is_pauli_sum():
    total = (kron(sigma_x(), sigma_x()) + kron(sigma_y(), sigma_y())
             + kron(sigma_z(), sigma_z()))
    assert total == exchange_density()
    assert exchange_density() == permutation_op(2) * 2 \
        - TensorMatrix.identity(2, 2)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(1)
    with pytest.raises(ValueError):
        ChainSpec(3, "moebius")
    spec = ChainSpec(3, "open", Fraction(1, 2))
    assert spec.sites == 3 and spec.deformation == Fraction(1, 2)


def test_bonds():
    assert bonds(ChainSpec(3)) == [(1, 2), (2, 3), (3, 1)]
    assert bonds(ChainSpec(3, "open")) == [(1, 2), (2, 3)]
    assert bonds(ChainSpec(2, "open")) == [(1, 2)]


def test_deformed_density_frozen():
    # two open sites, deformation 1: a single bond, written out by hand
    h = remark_hamiltonian(ChainSpec(2, "open", 1))
    low = sigma_minus()
    one = TensorMatrix.identity(2, 1)
    want = (exchange_density() + kron(low, low)
            + kron(low, one) - kron(one, low))
    assert h == want


def test_linear_part_telescopes_only_when_periodic():
    xi = Poly.variable("xi")
    for sites in (3, 4):
        closed = remark_hamiltonian(ChainSpec(sites, deformation=xi))
        assert closed.coefficient("xi", 1).is_zero()
        open_h = remark_hamiltonian(ChainSpec(sites, "open", xi))
        assert not open_h.coefficient("xi", 1).is_zero()


def test_undeformed_chain_is_pure_exchange():
    spec = ChainSpec(3)
    h = remark_hamiltonian(spec)
    want = TensorMatrix.zero(2, 3)
    for pair in bonds(spec):
        want = want + embed_two_leg(exchange_density(), 3, pair)
    assert h == want


def test_derived_density_is_permutation():
    spec = ChainSpec(3)
    h = derive_hamiltonian(yangian_sl_R(2), spec)
    want = TensorMatrix.zero(2, 3)
    for pair in bonds(spec):
        want = want + embed_two_leg(permutation_op(2), 3, pair)
    assert h == want


def test_derive_rejects_non_regular():
    u = Poly.variable("u")
    e = matrix_unit(2, 1, 2)
    bad = SpectralRMatrix(TensorMatrix.identity(2, 2) * u + kron(e, e),
                          Poly.lift(1, ("u",)))
    with pytest.raises(ValueError):
        derive_hamiltonian(bad, ChainSpec(3))


def test_exchange_vs_derived_affine_relation():
    # 2P - 1 per bond against P per bond: factor 2, shift -sites
    for sites in (3, 4):
        h0 = remark_hamiltonian(ChainSpec(sites, deformation=0))
        hd = derive_hamiltonian(yangian_sl_R(2), ChainSpec(sites))
        assert spin_chain._affine_fit(h0.cleared(), hd.cleared()) == (2, -sites)


def flip_chain(sites):
    """F = sigma_x (x) ... (x) sigma_x, the spin flip on every site, by kron."""
    full = sigma_x()
    for _ in range(sites - 1):
        full = kron(full, sigma_x())
    return full


def flipped_stack(m):
    """The cleared stack of F m F^{-1}, as calibrate forms it: m's stack with
    its rows and columns reversed."""
    scale, stack = m.cleared()
    return scale, [c[::-1, ::-1] for c in stack]


@pytest.mark.parametrize("sites", [2, 3, 4, 5])
def test_the_spin_flip_reverses_the_composite_index(sites):
    rng = random.Random(sites)
    size, flip = 2 ** sites, flip_chain(sites)
    rational = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(size)]
                for _ in range(size)]
    ext = [[Ext(*(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)))
            for _ in range(size)] for _ in range(size)]
    for rows in (rational, ext):
        h = TensorMatrix(2, sites, rows)
        want = flip @ h @ flip.inverse()
        assert (want.data == h.data[::-1, ::-1]).all()
        assert_same_cleared(flipped_stack(h), want.cleared())


def test_affine_fit_under_the_spin_flip():
    # the deformed chain is not flip-invariant, so the flip matters here
    h = remark_hamiltonian(ChainSpec(3, deformation=1))
    flipped = flip_chain(3)
    synthetic = (flipped @ h @ flipped.inverse()) * 3 - TensorMatrix.identity(2, 3) * 5
    assert spin_chain._affine_fit(synthetic.cleared(), flipped_stack(h)) == (3, -5)
    assert spin_chain._affine_fit(synthetic.cleared(), h.cleared()) is None


# -- the integer chain builders against the dense object path -----------------


def dense_bond_sum(density, spec):
    """The sum of dense embed_two_leg embeddings of density over the bonds."""
    total = TensorMatrix.zero(density.site_dim, spec.sites)
    for pair in bonds(spec):
        total = total + embed_two_leg(density, spec.sites, pair)
    return total


def lifted_rows_fit(h1, h2, flip=False):
    """The affine fit of h1 against h2, or against F h2 F^{-1} for the spin
    flip F by a kron chain and object products, with one equation per
    coefficient of the lifted entries."""
    if flip:
        full = flip_chain(h2.legs)
        h2 = full @ h2 @ full.inverse()
    names = tuple(sorted(set(h1.variables()) | set(h2.variables())))
    origin = (0,) * len(names)
    rows, rhs = [], []
    for (i, j), target in np.ndenumerate(h1.data):
        p1 = Poly.lift(target, names) + Poly(names, {})
        p2 = Poly.lift(h2.data[i, j], names) + Poly(names, {})
        exps = set(p1.coeffs) | set(p2.coeffs) | ({origin} if i == j else set())
        for e in sorted(exps):
            rows.append([p2.coefficient(e), 1 if (i == j and e == origin) else 0])
            rhs.append([p1.coefficient(e)])
    solution = linalg.solve(linalg.object_matrix(rows), linalg.object_matrix(rhs))
    return None if solution is None else (solution[0, 0], solution[1, 0])


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
SCALARS = {
    "Q": SMALL,
    "Q(i,sqrt2)": st.one_of(SMALL, st.builds(Ext, SMALL, SMALL, SMALL, SMALL)),
    "xi": st.one_of(SMALL, st.builds(lambda *c: Poly.univariate("xi", c), SMALL, SMALL, SMALL)),
}


@st.composite
def densities(draw, n=2, entries=None):
    if entries is None:
        entries = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    values = draw(st.lists(entries, min_size=n ** 4, max_size=n ** 4))
    return TensorMatrix(n, 2, np.array(values, dtype=object).reshape(n * n, n * n))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bond_sum_matches_dense_embeddings(data):
    n = data.draw(st.sampled_from([2, 2, 3]))
    sites = data.draw(st.integers(2, 5 if n == 2 else 3))
    spec = ChainSpec(sites, data.draw(st.sampled_from(["periodic", "open"])))
    density = data.draw(densities(n))
    got, want = spin_chain._bond_sum(density, spec), dense_bond_sum(density, spec)
    assert got == want and got.variables() == want.variables()
    assert serialize.encode(got) == serialize.encode(want)


def test_bond_sum_forced_overflow_takes_python_ints(monkeypatch):
    dtypes = []
    add = linalg.int_sum

    def spy(*terms):
        out = add(*terms)
        dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(linalg, "int_sum", spy)
    # five bonds of 2**61 per entry: the diagonal reaches 5 * 2**61 > 2**63
    density = permutation_op(2) * 2 ** 61 + TensorMatrix.identity(2, 2) * (2 ** 61 - 3)
    got = spin_chain._bond_sum(density, ChainSpec(5))
    assert dtypes == [np.dtype(object)]
    assert got == dense_bond_sum(density, ChainSpec(5))
    assert max(got.data.flat) > 2 ** 63


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_affine_fit_matches_lifted_rows_solve(data):
    # constant chains over Q and Q(i, sqrt2), against h2 or its spin flip
    sites = data.draw(st.integers(2, 3))
    spec = ChainSpec(sites, data.draw(st.sampled_from(["periodic", "open"])))
    entries = SCALARS[data.draw(st.sampled_from(["Q", "Q(i,sqrt2)"]))]
    h2 = dense_bond_sum(data.draw(densities(entries=entries)), spec)
    flip = data.draw(st.booleans())
    alpha, beta = data.draw(SCALARS["Q(i,sqrt2)"]), data.draw(SMALL)
    full = flip_chain(sites)
    h1 = (full @ h2 @ full.inverse()) if flip else h2
    h1 = h1 * alpha + TensorMatrix.identity(2, sites) * beta
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, 2 ** sites - 1)), data.draw(st.integers(0, 2 ** sites - 1))
        bump = np.zeros(h1.data.shape, dtype=object)
        bump[i, j] = data.draw(entries)
        h1 = h1 + TensorMatrix(2, sites, bump)
    second = flipped_stack(h2) if flip else h2.cleared()
    assert spin_chain._affine_fit(h1.cleared(), second) == lifted_rows_fit(h1, h2, flip)


def test_shift_operator():
    assert shift_operator(2) == permutation_op(2)
    s = shift_operator(3)
    assert s @ s @ s == TensorMatrix.identity(2, 3)
    # e_{abc} -> e_{cab}: check one basis column
    col = 0b011  # (a, b, c) = (0, 1, 1)
    hit = [i for i in range(8) if s.data[i, col]]
    assert hit == [0b101]


def test_transfer_matrix_at_origin_is_shift():
    for sites in (2, 3):
        fam = transfer_matrix(yangian_sl_R(2), ChainSpec(sites))
        assert fam.sites == sites and fam.aux_dim == 2
        assert fam.matrix.substitute({"u": 0}) == shift_operator(sites)
        assert len(fam.matrix.cleared(("u",))[1][0]) - 1 <= sites


def test_transfer_matches_dense_product(monkeypatch):
    # the reference trace peels tr(a) off a tensor product a (x) b
    a = TensorMatrix.from_entries(2, 1, {(0, 0): 3, (0, 1): 5, (1, 1): -1})
    b = kron(sigma_x(), sigma_z()) + permutation_op(2)
    assert partial_trace_first(kron(a, b)) == b * 2
    dtypes = []
    product = linalg.int_product

    def spy(x, y):
        out = product(x, y)
        dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(linalg, "int_product", spy)
    # 2**25 times u + P: a product of three factors passes the int64 bound
    big = SpectralRMatrix(yangian_sl_R(2).numerator * 2 ** 25, Poly.variable("u"))
    cases = [(baxterize(example1_R(2, Fraction(1, 3))), 3),
             (example2_solution(4, Realization.SKEW), 2),
             (big, 3)]
    for r, sites in cases:
        dtypes.clear()
        fam = transfer_matrix(r, ChainSpec(sites))
        for point in (-2, Fraction(1, 2), 3, 9):
            assert fam.matrix.substitute({"u": point}) == dense_transfer(r, sites, point)
    assert np.dtype(object) in dtypes


def test_every_transfer_product_takes_the_tier_of_a_fresh_scan(kernel_tiers):
    # the chain of L factors carries its bounds from factor to factor; every
    # product must still take the dtype a max_abs scan of its operands picks.
    # The scaled numerators make chains whose products cross from int32 to
    # int64 and to Python ints part of the way along.
    def scaled(r, k):
        return SpectralRMatrix(r.numerator * 2 ** k, Poly.variable("u"))

    tau1, sl2, skew = (baxterize(example1_R(2, 1)), yangian_sl_R(2),
                       example2_solution(4, Realization.SKEW))
    tiers = set()
    for r, sites in ((tau1, 3), (tau1, 5), (sl2, 5), (scaled(sl2, 8), 5), (scaled(sl2, 25), 3),
                     (skew, 2), (scaled(skew, 10), 3)):
        kernel_tiers.clear()
        transfer_matrix(r, ChainSpec(sites))
        assert kernel_tiers and all(used == want for used, want in kernel_tiers)
        tiers.update(used for used, _ in kernel_tiers)
    assert tiers == {np.dtype(np.int32), np.dtype(np.int64), np.dtype(object)}


def test_transfer_matrix_needs_periodic():
    with pytest.raises(ValueError):
        transfer_matrix(yangian_sl_R(2), ChainSpec(3, "open"))


def test_transfer_self_commutation():
    fam = transfer_matrix(yangian_sl_R(2), ChainSpec(3))
    rep = check_commutation(fam, fam)
    # decided on the coefficients, with no grid
    assert rep.passed and rep.grid_size is None
    assert full_grid_commutation(fam.matrix, fam.matrix).passed


def test_hamiltonian_commutes_with_transfer():
    fam = transfer_matrix(yangian_sl_R(2), ChainSpec(3))
    h = derive_hamiltonian(yangian_sl_R(2), ChainSpec(3))
    assert check_commutation(h, fam).passed
    assert check_commutation(fam, h).passed


def test_commutation_failure_witness():
    fam = transfer_matrix(yangian_sl_R(2), ChainSpec(3))
    one = TensorMatrix.identity(2, 1)
    sz = embed_two_leg(kron(sigma_z(), one), 3, (1, 2))
    rep = check_commutation(sz, fam)
    assert not rep.passed
    w = rep.witness
    assert (w.row, w.col, w.exponents, w.value) == (1, 4, (0, 1), 2)


def test_commutation_validates_shapes():
    fam = transfer_matrix(yangian_sl_R(2), ChainSpec(3))
    with pytest.raises(ValueError):
        check_commutation(fam, permutation_op(2))


def test_folded_remark():
    # the remark chain at xi^2 = tau^2 / 2, against its xi^0 and xi^2 parts
    h = remark_hamiltonian(ChainSpec(3, deformation=Poly.variable("xi")))
    for tau in (0, 1, Fraction(-2, 3)):
        fixed = TensorMatrix.from_cleared(2, 3, (), *folded_remark(3, tau))
        assert fixed == remark_hamiltonian(ChainSpec(3, deformation=0)) \
            + h.coefficient("xi", 2) * (Fraction(tau) ** 2 / 2)


def test_calibration_constants():
    for sites in (3, 4):
        for tau in (0, 1, 2):
            assert calibrate(sites, tau) == (2, -sites)


def test_calibrate_rejects_an_untelescoped_linear_term(monkeypatch):
    # without the wrap bond the linear deformation term survives, and the
    # calibration must refuse rather than fold it away
    monkeypatch.setattr(spin_chain, "bonds",
                        lambda spec: [(k, k + 1) for k in range(1, spec.sites)])
    with pytest.raises(ValueError, match="telescope"):
        calibrate(3, 1)


if __name__ == "__main__":
    test_calibration_constants()


def _degree_three_pair():
    # A(u) = 1 + u(u-1)(u-2) E12 and B(u) = u E21 do not commute, but
    # A - 1 vanishes on u = 0, 1, 2: a grid of three points in u would
    # miss the difference.
    u = Poly.variable("u")
    a = TensorMatrix.identity(2, 1) + matrix_unit(2, 1, 2) * (u * (u - 1) * (u - 2))
    return a, matrix_unit(2, 2, 1) * u


def test_negative_grid_margin_is_rejected():
    # commutation has no grid, and the spectral braid grid is the degree
    # bound plus one: neither takes a margin, of any sign
    a, b = _degree_three_pair()
    rep = check_commutation(a, b)
    assert not rep.passed and rep.grid_size is None
    assert rep.witness == full_grid_commutation(a, b).witness
    for check, args in ((check_commutation, (a, b)), (check_ybe, (yangian_sl_R(2),))):
        for margin in (-1, 1):
            with pytest.raises(TypeError):
                check(*args, grid_margin=margin)
    assert check_ybe(yangian_sl_R(2)).grid_size == (3, 3)


def test_negative_grid_margin_is_rejected_under_optimize():
    # python -O strips assert statements; the verdicts must not rest on them
    code = ("import sys; sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2])\n"
            "from test_spin_chain import (_degree_three_pair, check_commutation, check_ybe,\n"
            "                             full_grid_commutation, yangian_sl_R)\n"
            "a, b = _degree_three_pair()\n"
            "if check_commutation(a, b).witness != full_grid_commutation(a, b).witness:\n"
            "    sys.exit('witnesses differ')\n"
            "try:\n"
            "    print(check_ybe(yangian_sl_R(2), grid_margin=-1))\n"
            "except TypeError as err:\n"
            "    print('rejected:', err)\n")
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    proc = subprocess.run([sys.executable, "-O", "-c", code, tests, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected:"), proc.stdout


# -- commutation on cleared stacks ----------------------------------------------


def _numerator_family(numerator):
    return SpectralRMatrix(numerator, Poly.lift(1, ("u",)))


def nilpotent_R():
    """P + u E12 (x) 1: the top layer of its transfer family, tr E12^L, is
    zero, so the family's degree is below L."""
    u = Poly.variable("u")
    return _numerator_family(permutation_op(2) + kron(matrix_unit(2, 1, 2),
                                                      TensorMatrix.identity(2, 1)) * u)


def telescoping_R():
    """A regular R over Q(i, sqrt2) whose derived density is P + i (sz (x) 1
    - 1 (x) sz); on a periodic chain the imaginary part telescopes away."""
    u = Poly.variable("u")
    one, p = TensorMatrix.identity(2, 1), permutation_op(2)
    twist = (kron(sigma_z(), one) - kron(one, sigma_z())) * IM
    return _numerator_family(p + (TensorMatrix.identity(2, 2) + p @ twist) * u)


def failing_R():
    """A regular R whose transfer family does not commute; at L = 3 the top
    layers of that family vanish."""
    u = Poly.variable("u")
    e11, e12, e21 = matrix_unit(2, 1, 1), matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)
    return _numerator_family(permutation_op(2) + kron(e12, e11) * u + kron(e21, e21) * (u * u))


CHAIN_CASES = ([(f"baxterized-{tau}", lambda tau=tau: baxterize(example1_R(2, Fraction(tau))), sites)
                for tau in (0, 1, 2) for sites in range(2, 7)]
               + [("sl3", lambda: yangian_sl_R(3), 3), ("so3", lambda: yangian_so_R(3), 3),
                  ("skew-so4", lambda: example2_solution(4, Realization.SKEW), 2),
                  ("skew-so4", lambda: example2_solution(4, Realization.SKEW), 3),
                  ("nilpotent", nilpotent_R, 3), ("nilpotent", nilpotent_R, 4),
                  ("telescoping", telescoping_R, 3), ("failing", failing_R, 3)])


def assert_same_cleared(got, want):
    """Same scale, and the same integers with the same layer and component
    counts, shapes and dtypes."""
    (scale, stack), (scale_want, stack_want) = got, want
    assert scale == scale_want
    assert len(stack) == len(stack_want)
    for c, w in zip(stack, stack_want):
        assert (c.shape, c.dtype) == (w.shape, w.dtype) and np.array_equal(c, w)


def chain_operators(r, sites):
    """Every matrix the chain layer makes on its cleared stack, by name: the
    transfer family and the derived density of r, the derived Hamiltonian,
    and the remark Hamiltonian with scalar and symbolic xi, each on an open
    and a periodic chain of sites sites."""
    out = {"transfer": transfer_matrix(r, ChainSpec(sites)).matrix,
           "density": spin_chain._derived_density(r)}
    for boundary in ("periodic", "open"):
        out[f"derived-{boundary}"] = derive_hamiltonian(r, ChainSpec(sites, boundary))
        for xi in (Fraction(-5, 2), Poly.variable("xi")):
            out[f"remark-{xi}-{boundary}"] = remark_hamiltonian(ChainSpec(sites, boundary, xi))
    return out


@pytest.mark.parametrize("name, build, sites", CHAIN_CASES,
                         ids=[f"{name}-L{sites}" for name, _, sites in CHAIN_CASES])
def test_chain_stacks_are_the_cleared_objects(name, build, sites):
    # what each operator keeps is linalg.clear of the entries it rebuilds,
    # exactly and read-only, in the variables of those entries
    for what, m in chain_operators(build(), sites).items():
        names = m.variables()
        assert names == tuple(sorted({v for x in m.data.flat if isinstance(x, Poly)
                                      for v in x.vars})), what
        got = m.cleared(names)
        assert_same_cleared(got, linalg.clear(m.data, names))
        assert not any(c.flags.writeable for c in got[1]), what


def test_chain_cases_reach_every_lowest_terms_rule():
    def raw_and_lowest(r, sites):
        raw = spin_chain._transfer_stack(r, ChainSpec(sites))
        return raw, linalg.lowest_terms(*raw)

    (scale, _), (lowest, _) = raw_and_lowest(baxterize(example1_R(2, 1)), 3)
    assert (scale, lowest) == (384, 4)
    (_, stack), (_, trimmed) = raw_and_lowest(nilpotent_R(), 3)
    assert (len(stack[0]), len(trimmed[0])) == (4, 2)
    # the bond sum of a density over Q(i, sqrt2) keeps its four components
    # until the imaginary part telescopes away in lowest terms
    density = spin_chain._derived_density(telescoping_R())
    assert (len(density.cleared()[1]),
            len(derive_hamiltonian(telescoping_R(), ChainSpec(3)).cleared()[1])) == (4, 1)


def test_chain_operators_are_checked_and_written_from_their_stacks(monkeypatch):
    r, spec = baxterize(example1_R(2, 1)), ChainSpec(3)
    family, derived = transfer_matrix(r, spec), derive_hamiltonian(r, spec)
    remark = remark_hamiltonian(ChainSpec(4, deformation=Poly.variable("xi")))

    def refuse(*args):
        raise AssertionError("a chain operator was rebuilt or cleared again")

    monkeypatch.setattr(linalg, "rebuild", refuse)
    monkeypatch.setattr(linalg, "clear", refuse)
    for a, b in ((family, family), (derived, family), (family, derived)):
        assert check_commutation(a, b).passed
    for obj in (family, derived, remark):
        serialize.encode(obj)


@st.composite
def raw_stacks(draw):
    """(scale, stack) with a common factor, zero top layers and, over
    Q(i, sqrt2), extension components that may be zero throughout."""
    layers, m = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 3]))
    factor, live = draw(st.integers(1, 6)), draw(st.integers(0, layers))
    width = draw(st.sampled_from([1, 4]))
    cells = st.lists(st.integers(-4, 4), min_size=live * m * m, max_size=live * m * m)
    stack = []
    for k in range(width):
        values = draw(cells) if k == 0 or draw(st.booleans()) else [0] * (live * m * m)
        comp = np.zeros((layers, m, m), dtype=draw(st.sampled_from([np.int64, object])))
        comp[:live] = np.array(values, dtype=np.int64).reshape(live, m, m) * factor
        stack.append(comp)
    return factor * draw(st.integers(1, 12)), stack


@settings(max_examples=150, deadline=None)
@given(raw_stacks())
def test_lowest_terms_is_clear_of_the_rebuilt_polys(raw):
    scale, stack = raw
    m = stack[0].shape[-1]
    rebuilt = linalg.rebuild(scale, ("u",), stack)
    want = linalg.clear(rebuilt, ("u",))
    assert_same_cleared(linalg.lowest_terms(scale, stack), want)
    made = TensorMatrix.from_cleared(m, 1, ("u",), scale, stack)
    assert_same_cleared(made.cleared(("u",)), want)
    assert made.variables() == ("u",) and (made.data == rebuilt).all()


def full_grid_commutation(a, b):
    """[A(x), B(y)] at every point of a conclusive grid, interpolated: the
    slow exact reference of check_commutation, which skips no pair."""
    (scale_a, stack_a), (scale_b, stack_b) = (linalg.clear(m.data, m.variables() or ("u",))
                                              for m in (a, b))

    def diff_at(x, y):
        left, right = verify.int_values(stack_a, x), verify.int_values(stack_b, y)
        return [p - q for p, q in zip(linalg.int_product(left, right),
                                      linalg.int_product(right, left))]

    return verify.grid_report("commutation", diff_at, len(stack_a[0]) - 1,
                              len(stack_b[0]) - 1, scale=scale_a * scale_b)


def assert_same_verdict(got, want):
    assert got.grid_size is None
    assert (got.passed, got.witness, str(got.witness)) == (want.passed, want.witness,
                                                           str(want.witness))


@st.composite
def integer_families(draw):
    legs, degree = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    size = 2 ** legs
    coeffs = st.lists(st.integers(-3, 3), min_size=degree + 1, max_size=degree + 1)
    entries = [Poly.univariate("u", draw(coeffs)) for _ in range(size * size)]
    return TensorMatrix(2, legs, np.array(entries, dtype=object).reshape(size, size))


@settings(max_examples=80, deadline=None)
@given(integer_families())
def test_self_commutation_matches_the_full_grid(family):
    want = full_grid_commutation(family, family)
    assume(not want.passed)
    assert_same_verdict(check_commutation(family, family), want)


def test_self_commutation_failure_on_the_degree_three_family():
    a, _ = _degree_three_pair()
    a = a + matrix_unit(2, 2, 1) * Poly.variable("u")
    got, want = check_commutation(a, a), full_grid_commutation(a, a)
    assert not got.passed
    assert_same_verdict(got, want)


def test_commutation_takes_every_pair_at_both_scales():
    # [E12 / 2, E21 / 3] = (E11 - E22) / 6: at x^2 y a pair with i > j, at
    # x y^2 one with i < j, and for constants the pair i = j
    u = Poly.variable("u")
    e12, e21 = matrix_unit(2, 1, 2) * Fraction(1, 2), matrix_unit(2, 2, 1) * Fraction(1, 3)
    for a, b, exponents, value in ((e12 * (u * u), e21 * u, (2, 1), Fraction(1, 6)),
                                   (e21 * u, e12 * (u * u), (1, 2), Fraction(-1, 6)),
                                   (e12, e21, (0, 0), Fraction(1, 6))):
        rep = check_commutation(a, b)
        assert rep.witness == verify.Witness(0, 0, exponents, value)
        assert_same_verdict(rep, full_grid_commutation(a, b))


RATIONALS = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
EXT_SCALARS = st.sampled_from([IM, SQRT2, Ext(1, 0, 1, 0), Ext(Fraction(1, 2), 0, 0, -1)])


@st.composite
def commutation_pairs(draw):
    """(a, b): polynomials in u of degree 0..3 in one base matrix M, which
    commute, over Q or Q(i, sqrt2); b is a in half the draws, and either
    operand may carry a one-entry change c u^k, which breaks that."""
    n, legs = draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
    size = n ** legs
    extension = draw(st.booleans())
    base = TensorMatrix.from_entries(n, legs, {
        (i, j): draw(RATIONALS) for i in range(size) for j in range(size) if draw(st.booleans())})
    if extension:
        base = base + TensorMatrix.from_entries(n, legs, {
            (draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))): draw(EXT_SCALARS)})
    powers = [TensorMatrix.identity(n, legs), base, base @ base]
    u = Poly.variable("u")

    def operand():
        degree = draw(st.integers(0, 3))
        out = TensorMatrix.zero(n, legs)
        for power in powers:
            coeffs = [draw(RATIONALS | st.just(0)) for _ in range(degree + 1)]
            out = out + power * (coeffs[0] if degree == 0 else Poly.univariate("u", coeffs))
        if draw(st.booleans()):
            value = draw(EXT_SCALARS if extension else RATIONALS)
            out = out + TensorMatrix.from_entries(n, legs, {
                (draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))):
                    value * u ** draw(st.integers(0, 2)) if degree else value})
        return out

    a = operand()
    return a, a if draw(st.booleans()) else operand()


@settings(max_examples=200, deadline=None)
@given(commutation_pairs())
def test_commutation_matches_the_full_grid(pair):
    a, b = pair
    assert_same_verdict(check_commutation(a, b), full_grid_commutation(a, b))


@pytest.mark.parametrize("build, sites", [(lambda: yangian_sl_R(2), 3), (nilpotent_R, 4),
                                          (telescoping_R, 3), (failing_R, 3),
                                          (lambda: example2_solution(4, Realization.SKEW), 2)])
def test_check_chain_reports_equal_the_object_sequence(build, sites):
    r, spec = build(), ChainSpec(sites)
    # the references are built afresh from the rebuilt entries, and cleared
    # from them
    family, derived = (TensorMatrix(m.site_dim, m.legs, m.data)
                       for m in (transfer_matrix(r, spec).matrix, derive_hamiltonian(r, spec)))
    got = spin_chain.check_chain(r, spec)
    want = (check_commutation(family, family), check_commutation(derived, family))
    assert got == want
    assert list(map(serialize.encode, got)) == list(map(serialize.encode, want))
    assert all(rep.passed for rep in got) == (build is not failing_R)
    for rep, (a, b) in zip(got, ((family, family), (derived, family))):
        assert_same_verdict(rep, full_grid_commutation(a, b))
