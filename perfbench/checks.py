"""Checks of the program's answers against independent computations.

Every function raises CheckFailed with a one-line reason when the answer
is wrong, and returns None otherwise.  Inputs are the program's files and
printed text, read with `exact.load` and plain string parsing; the
arithmetic is `exact`'s, never the program's.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import exact


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def random_vector(rng, size: int):
    return [Fraction(rng.randint(-9, 9)) for _ in range(size)]


# -- reports ------------------------------------------------------------------


def verdict(report: dict, code: int) -> bool:
    """The report's verdict, after checking the exit code agrees with it."""
    require(isinstance(report.get("passed"), bool), "report has no boolean verdict")
    require(code == (0 if report["passed"] else 1),
            f"exit code {code} does not match verdict passed={report['passed']}")
    require((report.get("witness") is None) == report["passed"],
            "witness present on PASS or missing on FAIL")
    return report["passed"]


def witness_of(report: dict):
    w = report["witness"]
    return w["row"], w["col"], tuple(w["exponents"]), exact.parse_scalar(w["value"], "Q")


def scalar_coefficients(report: dict):
    """The report's scalar factor as ascending coefficients."""
    value = report.get("scalar_factor")
    require(value is not None, "report has no scalar factor")
    if isinstance(value, dict):
        return [exact.parse_scalar(c, value["field"]) for c in value["coefficients"]]
    return [exact.parse_scalar(value, "Q")]


def trimmed(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# -- the braid identity ---------------------------------------------------------


def _braid_sides(at_a, at_ab, at_b, n, vector):
    """(R12 R13 R23 v, R23 R13 R12 v) for the three given two-leg matrices."""
    lhs = exact.apply_two_leg(at_b, n, 3, (1, 2), vector)
    lhs = exact.apply_two_leg(at_ab, n, 3, (0, 2), lhs)
    lhs = exact.apply_two_leg(at_a, n, 3, (0, 1), lhs)
    rhs = exact.apply_two_leg(at_a, n, 3, (0, 1), vector)
    rhs = exact.apply_two_leg(at_ab, n, 3, (0, 2), rhs)
    rhs = exact.apply_two_leg(at_b, n, 3, (1, 2), rhs)
    return lhs, rhs


def spectral_braid_holds_at(coeffs, n: int, rng) -> bool:
    """Both sides of the spectral identity agree at a random point on a random vector."""
    a, b = rng.randint(-40, 40), rng.randint(-40, 40)
    lhs, rhs = _braid_sides(exact.matrix_at(coeffs, a), exact.matrix_at(coeffs, a + b),
                            exact.matrix_at(coeffs, b), n, random_vector(rng, n ** 3))
    return lhs == rhs


def constant_braid_holds(matrix, n: int, rng) -> bool:
    lhs, rhs = _braid_sides(matrix, matrix, matrix, n, random_vector(rng, n ** 3))
    return lhs == rhs


def spectral_pass(obj: dict, rng) -> None:
    require(spectral_braid_holds_at(obj["coeffs"], obj["site_dim"], rng),
            "reported PASS, but the two sides differ at a random point")


def spectral_witness(obj: dict, report: dict) -> None:
    """The witness coefficient equals this entry's own bivariate expansion.

    The difference R12(a) R13(a+b) R23(b) - R23(b) R13(a+b) R12(a) has
    degree at most 2d in each of a and b; its (row, col) entry is
    interpolated on a (2d+1)^2 grid.  The witness must be the first nonzero
    coefficient of that entry in (i, j) order.
    """
    coeffs, n = obj["coeffs"], obj["site_dim"]
    row, col, exps, value = witness_of(report)
    degree = max(len(cell) for line in coeffs for cell in line) - 1
    unit = [Fraction(int(k == col)) for k in range(n ** 3)]

    def entry(a, b):
        lhs, rhs = _braid_sides(exact.matrix_at(coeffs, a), exact.matrix_at(coeffs, a + b),
                                exact.matrix_at(coeffs, b), n, unit)
        return lhs[row] - rhs[row]

    points = list(range(2 * degree + 1))
    expansion = exact.bivariate_coefficients(entry, 2 * degree, 2 * degree, points, points)
    require(len(exps) == 2, f"witness exponents {exps} are not bivariate")
    i, j = exps
    require(expansion[i][j] == value,
            f"witness a^{i} b^{j} at ({row}, {col}) is {value}, expansion gives "
            f"{expansion[i][j]}")
    require(value != 0, "witness coefficient is zero")
    earlier = [(p, q) for p in range(len(expansion)) for q in range(len(expansion[p]))
               if (p, q) < (i, j) and expansion[p][q]]
    require(not earlier, f"witness skips nonzero coefficients at {earlier[:3]}")


def same_witness(report: dict, other: dict) -> None:
    require(report["passed"] == other["passed"], "verdicts differ between methods")
    require(report["witness"] == other["witness"],
            f"witnesses differ: {report['witness']} vs {other['witness']}")


# -- the classical identity -------------------------------------------------------


def _commutator_sum(ops, n: int, vector):
    """sum over the three pairs of [X_A, X_B] v for ops {pair: matrix}."""
    total = [Fraction(0)] * len(vector)
    for first, second in (((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2))):
        xb = exact.apply_two_leg(ops[second], n, 3, second, vector)
        xa = exact.apply_two_leg(ops[first], n, 3, first, vector)
        ab = exact.apply_two_leg(ops[first], n, 3, first, xb)
        ba = exact.apply_two_leg(ops[second], n, 3, second, xa)
        total = [t + p - q for t, p, q in zip(total, ab, ba)]
    return total


def cybe_holds(matrix, n: int, rng) -> bool:
    """The constant classical identity annihilates a random vector."""
    ops = {pair: matrix for pair in ((0, 1), (0, 2), (1, 2))}
    return not any(_commutator_sum(ops, n, random_vector(rng, n ** 3)))


def _columns(apply, size):
    """Dense matrix from its action on the unit vectors."""
    cols = []
    for j in range(size):
        unit = [Fraction(int(k == j)) for k in range(size)]
        cols.append(apply(unit))
    return [list(row) for row in zip(*cols)]


def cybe_constant_witness(matrix, n: int, report: dict) -> None:
    """The witness is the first nonzero entry of the full residual."""
    ops = {pair: matrix for pair in ((0, 1), (0, 2), (1, 2))}
    residual = _columns(lambda v: _commutator_sum(ops, n, v), n ** 3)
    first = next(((i, j) for i, line in enumerate(residual)
                  for j, x in enumerate(line) if x), None)
    require(first is not None, "reported FAIL, but the residual is zero")
    row, col, exps, value = witness_of(report)
    require((row, col) == first, f"witness at {(row, col)}, first nonzero at {first}")
    require(exps == () and value == residual[row][col],
            f"witness value {value}, residual entry {residual[row][col]}")


def cybe_rational_witness(matrix, omega, n: int, report: dict) -> None:
    """The witness is the least (row, col, a^i b^j) coefficient of
    a (a+b) b [sum of commutators of X(u) = omega/u + r], X12 at a, X13 at
    a+b, X23 at b; degree at most 3 in each variable."""
    size = n ** 3
    grids = {}
    points = [1, 2, 3, 4]
    for a in points:
        for b in points:
            args = {(0, 1): a, (0, 2): a + b, (1, 2): b}
            ops = {pair: exact.mat_add(matrix, omega, Fraction(1, u))
                   for pair, u in args.items()}
            clear = a * (a + b) * b
            grids[a, b] = _columns(
                lambda v: [clear * x for x in _commutator_sum(ops, n, v)], size)
    best = None
    for row in range(size):
        for col in range(size):
            expansion = exact.bivariate_coefficients(
                lambda a, b: grids[a, b][row][col], 3, 3, points, points)
            hits = [(i, j) for i in range(4) for j in range(4) if expansion[i][j]]
            if hits:
                best = (row, col, min(hits), expansion)
                break
        if best:
            break
    require(best is not None, "reported FAIL, but the rational residual is zero")
    row, col, exps, value = witness_of(report)
    want_row, want_col, (i, j), expansion = best
    require((row, col, exps) == (want_row, want_col, (i, j)),
            f"witness at {(row, col, exps)}, first nonzero at {(want_row, want_col, (i, j))}")
    require(value == expansion[i][j], f"witness value {value}, expansion {expansion[i][j]}")


# -- unitarity -------------------------------------------------------------------


def unitarity_product(coeffs, n: int, t, vector):
    """N(t) N21(-t) v for a spectral numerator."""
    minus = exact.swapped(exact.matrix_at(coeffs, -t), n)
    inner = exact.apply_two_leg(minus, n, 2, (0, 1), vector)
    return exact.apply_two_leg(exact.matrix_at(coeffs, t), n, 2, (0, 1), inner)


def unitarity_scalar(coeffs, n: int):
    """f with N(u) N21(-u) = f(u) 1, read off the first column; degree 2d."""
    degree = max(len(cell) for line in coeffs for cell in line) - 1
    points = list(range(2 * degree + 1))
    unit = [Fraction(int(k == 0)) for k in range(n * n)]
    values = [unitarity_product(coeffs, n, t, unit)[0] for t in points]
    return trimmed(exact.vandermonde_solve(points, values))


def unitarity_holds(coeffs, n: int, scalar, rng) -> bool:
    t = rng.randint(-40, 40)
    vector = random_vector(rng, n * n)
    value = exact.poly_at(scalar, t)
    return unitarity_product(coeffs, n, t, vector) == [value * x for x in vector]


# -- spin chains -------------------------------------------------------------------


def bonds(sites: int):
    """Periodic nearest-neighbour bonds, 0-based, wrap bond last."""
    return [(k, k + 1) for k in range(sites - 1)] + [(sites - 1, 0)]


def bond_sum(density, n: int, sites: int):
    total = [[Fraction(0)] * n ** sites for _ in range(n ** sites)]
    for pair in bonds(sites):
        total = exact.mat_add(total, exact.embed_two_leg(density, n, sites, pair))
    return total


def lowering_pair():
    """(s- tensor s-, s- tensor 1 - 1 tensor s-) on two spin-1/2 sites, s- = E21."""
    low = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]
    one = exact.identity(2)

    def kron(x, y):
        return [[x[i // 2][j // 2] * y[i % 2][j % 2] for j in range(4)] for i in range(4)]

    return kron(low, low), exact.mat_add(kron(low, one), kron(one, low), -1)


def remark_hamiltonian(sites: int, xi):
    """Deformed exchange chain: (2P - 1) + xi^2 s-s- + xi (s- 1 - 1 s-) per bond."""
    square, linear = lowering_pair()
    density = exact.mat_add(exact.mat_scale(exact.permutation(2), 2), exact.identity(4), -1)
    density = exact.mat_add(density, square, xi * xi)
    density = exact.mat_add(density, linear, xi)
    return bond_sum(density, 2, sites)


def derived_density(coeffs, n: int):
    """P N'(0) / c, where N(0) = c P must hold."""
    perm = exact.permutation(n)
    at_zero = exact.coefficient(coeffs, 0)
    c = at_zero[0][0]
    require(c != 0 and at_zero == exact.mat_scale(perm, c), "R-matrix is not regular")
    return exact.mat_scale(exact.mat_mul(perm, exact.coefficient(coeffs, 1)), 1 / c)


def flipped(h, sites: int):
    """F H F^{-1} with F the spin flip sigma_x on every site."""
    mask = 2 ** sites - 1
    return [[h[i ^ mask][j ^ mask] for j in range(len(h))] for i in range(len(h))]


def calibration(text: str, hamiltonian: dict, spectral: dict, sites: int, tau) -> None:
    """H_remark at xi^2 = tau^2/2 equals alpha F H_derived F^{-1} + beta 1.

    hamiltonian is the decoded `chain hamiltonian --xi tau` output; the
    xi^2 term is moved from tau^2 to tau^2/2 with the bond sum of s- s-.
    """
    found = re.fullmatch(r"alpha = (\S+), beta = (\S+)\s*", text)
    require(found is not None, f"unexpected calibrate output {text.strip()!r}")
    alpha, beta = Fraction(found.group(1)), Fraction(found.group(2))
    tau = Fraction(tau)
    square, _ = lowering_pair()
    target = exact.mat_add(exact.coefficient(hamiltonian["coeffs"], 0),
                           bond_sum(square, 2, sites), tau * tau / 2 - tau * tau)
    derived = bond_sum(derived_density(spectral["coeffs"], 2), 2, sites)
    fitted = exact.mat_add(exact.mat_scale(flipped(derived, sites), alpha),
                           exact.identity(2 ** sites), beta)
    require(target == fitted,
            f"alpha = {alpha}, beta = {beta} do not match the two Hamiltonians")


def cyclic_shift(n: int, sites: int):
    """e_{s1 .. sL} -> e_{sL s1 .. s_{L-1}}."""
    size = n ** sites
    out = [[Fraction(0)] * size for _ in range(size)]
    for col in range(size):
        last = col % n
        out[last * n ** (sites - 1) + col // n][col] = Fraction(1)
    return out


def transfer_apply(coeffs, n: int, sites: int, x, vector):
    """t(x) v = tr_0 [N_{0L}(x) ... N_{01}(x)] v, one auxiliary leg in front."""
    at = exact.matrix_at(coeffs, x)
    size = n ** sites
    out = [Fraction(0)] * size
    for a in range(n):
        wide = [Fraction(0)] * (n * size)
        wide[a * size:(a + 1) * size] = vector
        for k in range(1, sites + 1):
            wide = exact.apply_two_leg(at, n, sites + 1, (0, k), wide)
        out = [o + w for o, w in zip(out, wide[a * size:(a + 1) * size])]
    return out


def transfer_family(family: dict, spectral: dict, rng) -> None:
    """t(0) is the cyclic shift, and t(x) v agrees with the trace built here."""
    n, sites = family["site_dim"], family["legs"]
    require(exact.coefficient(family["coeffs"], 0) == cyclic_shift(n, sites),
            "t(0) is not the cyclic shift")
    x = rng.randint(-20, 20)
    vector = random_vector(rng, n ** sites)
    require(exact.mat_vec(exact.matrix_at(family["coeffs"], x), vector)
            == transfer_apply(spectral["coeffs"], n, sites, x, vector),
            f"t({x}) disagrees with the trace of the monodromy")


def commuting_family(spectral: dict, sites: int, rng) -> None:
    """[t(x), t(y)] v = 0 and [H, t(x)] v = 0 at random x, y, v."""
    coeffs, n = spectral["coeffs"], spectral["site_dim"]
    x, y = rng.randint(-20, 20), rng.randint(-20, 20)
    vector = random_vector(rng, n ** sites)

    def t(point, v):
        return transfer_apply(coeffs, n, sites, point, v)

    density = derived_density(coeffs, n)

    def h(v):
        total = [Fraction(0)] * len(v)
        for pair in bonds(sites):
            total = [p + q for p, q in
                     zip(total, exact.apply_two_leg(density, n, sites, pair, v))]
        return total

    require(t(x, t(y, vector)) == t(y, t(x, vector)), "transfer matrices do not commute")
    require(h(t(x, vector)) == t(x, h(vector)), "Hamiltonian does not commute with t")
