"""Three-leg words on sector-packed columns: the sectors, the packed layout,
and reports that equal those of words held at one sector."""

from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from baxter import serialize, verify
from baxter.poly import Poly
from baxter.scalars import IM
from baxter.solutions import (Realization, baxterize, example1_r, example1_R,
                              example2_solution, so_jordanian_data, yangian_sl_R,
                              yangian_so_R)
from baxter.tensor import TensorMatrix, permutation_op


def reference_sectors(n, layers):
    """The sector of every three-leg state, named by its smallest state, by
    union-find over every link of every leg pair."""
    parent = list(range(n ** 3))

    def root(s):
        while parent[s] != s:
            s = parent[s]
        return s

    m = n * n
    for layer in layers:
        for c in layer:
            for a, b in zip(*np.nonzero(np.asarray(c).reshape(m, m))):
                (a1, a2), (b1, b2) = divmod(int(a), n), divmod(int(b), n)
                for k in range(n):
                    for s, t in ((a * n + k, b * n + k),
                                 (a1 * m + k * n + a2, b1 * m + k * n + b2),
                                 (k * m + a, k * m + b)):
                        s, t = root(int(s)), root(int(t))
                        parent[max(s, t)] = min(s, t)
    return np.array([root(s) for s in range(n ** 3)])


@st.composite
def sparse_layers(draw):
    """(n, layers): one to three layers of one or four components, each an
    (n^2, n^2) integer matrix with a few nonzeros."""
    n = draw(st.integers(2, 4))
    m = n * n
    comps = draw(st.sampled_from([1, 4]))
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        layer = [np.zeros((m, m), dtype=np.int64) for _ in range(comps)]
        for _ in range(draw(st.integers(0, 2 * n))):
            c, i, j = (draw(st.integers(0, comps - 1)), draw(st.integers(0, m - 1)),
                       draw(st.integers(0, m - 1)))
            layer[c][i, j] = draw(st.integers(-3, 3))
        layers.append(layer)
    return n, layers


@settings(max_examples=120, deadline=None)
@given(sparse_layers())
def test_sectors_are_the_components_of_the_links(case):
    n, layers = case
    assert np.array_equal(verify._sectors(n, layers), reference_sectors(n, layers))


@settings(max_examples=60, deadline=None)
@given(sparse_layers(), st.integers(0, 2 ** 32 - 1))
def test_packed_words_and_their_mirror_equal_the_dense_ones(case, seed):
    # a random matrix that is block diagonal by sector, packed, reads back
    # its dense entries through columns; P13 W P13 of a matrix whose links
    # are symmetric under P13 reads back through the mirror map
    n, layers = case
    m, count = n * n, n ** 3
    swap = np.arange(m).reshape(n, n).T.ravel()
    layers = [[c + c[swap][:, swap] for c in layer] for layer in layers]
    labels = verify._sectors(n, layers)
    packed = verify._Packed(n, labels)
    rng = np.random.default_rng(seed)
    dense = rng.integers(-5, 6, (count, count)) * (labels[:, None] == labels[None, :])
    width = packed.columns.shape[1]
    assert width == np.bincount(labels).max()
    real = packed.columns < count
    rows = np.arange(count)[:, None]
    word = np.where(real, dense[rows, np.where(real, packed.columns, 0)], 0)
    # slot order is column order, and the padding columns come last
    assert (np.diff(packed.columns, axis=1) > 0).all()
    assert np.array_equal(np.asarray(packed.eye[0]).reshape(count, width),
                          np.where(real, packed.columns == rows, 0))
    flip = np.arange(count).reshape(n, n, n).transpose(2, 1, 0).ravel()
    mirrored = dense[flip][:, flip]
    want = np.where(real, mirrored[rows, np.where(real, packed.columns, 0)], 0)
    assert np.array_equal(word.reshape(-1)[packed.mirror()], want)


# Packed widths B under the rule of verify._three_legs: the layers each
# check gives, and whether sectors are sought.
def _spectral_layers(r):
    num = getattr(r, "numerator", r)
    _, stack = num.cleared(num.variables())
    return [[c[e] for c in stack] for e in range(len(stack[0]))]


def _classical_layers(r, rational):
    _, layers = verify._on_one_scale(*(m.cleared() for m in
                                       ([permutation_op(r.site_dim), r] if rational else [r])))
    return layers


PACKED_WIDTHS = {
    # name: (site dimension, layers, B), B = n^3 where the words stay at
    # one sector
    **{f"so3-{r.value}": (3, lambda r=r: _spectral_layers(yangian_so_R(3, r)), 7)
       for r in Realization},
    "so4-antidiag": (4, lambda: _spectral_layers(yangian_so_R(4)), 9),
    "so4-skew": (4, lambda: _spectral_layers(yangian_so_R(4, Realization.SKEW)), 10),
    **{f"so5-{r.value}": (5, lambda r=r: _spectral_layers(yangian_so_R(5, r)), 13)
       for r in Realization},
    "so6-antidiag": (6, lambda: _spectral_layers(yangian_so_R(6)), 15),
    "so6-skew": (6, lambda: _spectral_layers(yangian_so_R(6, Realization.SKEW)), 16),
    "so10-antidiag": (10, lambda: _spectral_layers(yangian_so_R(10)), 27),
    "twisted4-antidiag": (4, lambda: _spectral_layers(example2_solution(4)), 24),
    "twisted4-skew": (4, lambda: _spectral_layers(example2_solution(4, Realization.SKEW)), 64),
    "twisted5-antidiag": (5, lambda: _spectral_layers(example2_solution(5)), 30),
    "twisted5-skew": (5, lambda: _spectral_layers(example2_solution(5, Realization.SKEW)), 76),
    "sl2": (2, lambda: _spectral_layers(yangian_sl_R(2)), 8),
    "sl3": (3, lambda: _spectral_layers(yangian_sl_R(3)), 27),
    "sl4": (4, lambda: _spectral_layers(yangian_sl_R(4)), 6),
    "bx2": (2, lambda: _spectral_layers(baxterize(example1_R(2))), 8),
    "bx3": (3, lambda: _spectral_layers(baxterize(example1_R(3))), 27),
    "bx4": (4, lambda: _spectral_layers(baxterize(example1_R(4))), 24),
    "cybe-r3": (3, lambda: _classical_layers(example1_r(3), False), 27),
    "cybe-r4": (4, lambda: _classical_layers(example1_r(4), False), 64),
    "cybe-rational-r4": (4, lambda: _classical_layers(example1_r(4), True), 24),
    "cybe-r5": (5, lambda: _classical_layers(example1_r(5), False), 24),
    "cybe-r0-skew": (4, lambda: _classical_layers(
        so_jordanian_data(4, Realization.SKEW).r0, False), 64),
}


@pytest.mark.parametrize("name", sorted(PACKED_WIDTHS))
def test_which_families_pack(name):
    n, layers, width = PACKED_WIDTHS[name]
    assert verify._three_legs(n, layers()).columns.shape == (n ** 3, width)


# Sector widths below the rule's threshold, where the words stay at one
# sector although sectors exist.
SECTOR_WIDTHS = {"sl2": 3, "sl3": 6, "bx2": 8, "bx3": 12, "cybe-r3": 12, "cybe-r4": 24,
                 "cybe-r0-skew": 56}


@pytest.mark.parametrize("name", sorted(SECTOR_WIDTHS))
def test_sector_widths_below_the_rule(name):
    n, layers, _ = PACKED_WIDTHS[name]
    assert np.bincount(verify._sectors(n, layers())).max() == SECTOR_WIDTHS[name]


# -- packed against one sector -------------------------------------------------

SPECTRAL = {
    **{f"so{N}-{r.value}": (lambda N=N, r=r: yangian_so_R(N, r).numerator)
       for N in range(3, 7) for r in Realization},
    **{f"twisted{N}-{r.value}": (lambda N=N, r=r: example2_solution(N, r).numerator)
       for N in (4, 5) for r in Realization},
    **{f"sl{n}": (lambda n=n: yangian_sl_R(n).numerator) for n in (2, 3, 4)},
    **{f"bx{n}": (lambda n=n: baxterize(example1_R(n)).numerator) for n in (2, 3, 4)},
    # a stack of Python ints, whose words stay in Python ints
    "sl4-times-2^70": lambda: yangian_sl_R(4).numerator * 2 ** 70,
}
CLASSICAL = {f"r{n}": (lambda n=n: example1_r(n)) for n in (2, 3, 4, 5)}
# families of one sector, where no perturbation can merge two
ONE_SECTOR = {"bx2", "twisted4-skew", "r2"}


def _changes(names):
    """(name, how) for every family: plain, changed inside a sector, and
    changed to merge two sectors where it has more than one."""
    return [(name, how) for name in sorted(names) for how in (None, "inside", "merge")
            if not (how == "merge" and name in ONE_SECTOR)]


def _perturbation(m, layers, how, spectral):
    """m with one entry changed: at an entry already nonzero in some layer
    ("inside"), so no sector changes, or at one whose links join two
    sectors ("merge")."""
    n = m.site_dim
    nn = n * n
    linked = np.logical_or.reduce([c != 0 for layer in layers for c in layer])
    labels = verify._sectors(n, layers)
    if how == "inside":
        i, j = (int(x[-1]) for x in np.nonzero(linked))
    else:
        # legs (1, 2) at third index 0 link states i n and j n
        joins = [(i, j) for i in range(nn) for j in range(nn) if labels[i * n] != labels[j * n]]
        i, j = joins[len(joins) // 2]
    value = (Fraction(1, 3) + IM * Poly.variable("u")) if spectral else Fraction(-2, 3)
    changed = m + TensorMatrix.from_entries(n, 2, {(i, j): value})
    if how == "merge":
        merged = verify._sectors(n, (_spectral_layers if spectral else
                                     lambda r: _classical_layers(r, False))(changed))
        assert len(set(merged.tolist())) < len(set(labels.tolist()))
    return changed


def _one_sector(n, layers):
    return np.zeros(n ** 3, dtype=np.intp)


def _reports(check, monkeypatch):
    """(packed, one-sector) reports of check(): packed with sectors sought
    at every size, and with every word held at one sector."""
    with monkeypatch.context() as mp:
        mp.setattr(verify, "PACKED_WORK", 0)
        packed = check()
        mp.setattr(verify, "_sectors", _one_sector)
        one = check()
    return packed, one


def _assert_same(packed, one):
    assert (packed.passed, packed.witness) == (one.passed, one.witness)
    assert str(packed) == str(one)
    assert serialize.encode(packed) == serialize.encode(one)


@cache
def _spectral_case(name, how):
    num = SPECTRAL[name]()
    return num if how is None else _perturbation(num, _spectral_layers(num), how, True)


@pytest.mark.parametrize("method", ["grid", "poly"])
@pytest.mark.parametrize("name, how", _changes(SPECTRAL))
def test_packed_spectral_reports_equal_one_sector(name, how, method, monkeypatch):
    num = _spectral_case(name, how)
    packed, one = _reports(lambda: verify.check_ybe(num, method=method), monkeypatch)
    _assert_same(packed, one)
    assert packed.passed == (how is None)


@pytest.mark.parametrize("mode", ["constant", "rational"])
@pytest.mark.parametrize("name, how", _changes(CLASSICAL))
def test_packed_classical_reports_equal_one_sector(name, how, mode, monkeypatch):
    r = CLASSICAL[name]()
    if how is not None:
        r = _perturbation(r, _classical_layers(r, False), how, False)
    omega = permutation_op(r.site_dim)
    packed, one = _reports(lambda: verify.check_cybe(r, omega, mode), monkeypatch)
    _assert_same(packed, one)
    assert packed.passed == (how is None)
