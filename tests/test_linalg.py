from fractions import Fraction

import numpy as np
import pytest

from speclab import (IntMatrix, NotContractive, SingularMatrix,
                     contraction_factor, det, is_complete_residue_set,
                     is_expansive, multi_step_contraction,
                     residue_classes_distinct, solve_exact)
from speclab.errors import ExactCheckFailed
from speclab.linalg import (as_int_matrix, as_int_vector, charpoly,
                            inv_transpose_series, inverse)

import oracles


@pytest.mark.parametrize("m,expected", [
    ([[2]], 2),
    ([[2, 0], [0, 2]], 4),
    ([[1, 2], [3, 4]], -2),
    ([[0, 1], [1, 0]], -1),
    ([[3, 1, 0], [0, 3, 1], [1, 0, 3]], 28),
])
def test_det_exact(m, expected):
    assert det(m) == expected


def test_det_matches_float_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(300):
        d = int(rng.integers(1, 5))
        m = rng.integers(-5, 6, size=(d, d))
        assert det(m) == round(float(np.linalg.det(m)))


def test_charpoly_small_cases():
    assert charpoly(as_int_matrix([[2]])) == (-2, 1)
    # x^2 - 2 for the swap-and-double matrix
    assert charpoly(as_int_matrix([[0, 2], [1, 0]])) == (-2, 0, 1)
    assert charpoly(as_int_matrix([[1, 1], [0, 1]])) == (1, -2, 1)


@pytest.mark.parametrize("m,expected", [
    ([[2]], True),
    ([[1]], False),
    ([[-1]], False),
    ([[0, 2], [1, 0]], True),     # eigenvalues +-sqrt(2)
    ([[0, 1], [1, 0]], False),    # eigenvalues +-1 (tie -> not expansive)
    ([[2, 0], [0, 1]], False),
    ([[0, -4], [1, 0]], True),    # eigenvalues +-2i
])
def test_is_expansive_cases(m, expected):
    assert is_expansive(m) is expected


def test_is_expansive_agrees_with_float_eigen_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        d = int(rng.integers(1, 4))
        m = rng.integers(-5, 6, size=(d, d))
        if oracles.eig_near_unit_circle(m):
            continue  # borderline spectra excluded from the float oracle
        assert is_expansive(m) == oracles.eig_expansive(m), f"matrix {m}"
        checked += 1


def test_solve_exact_basic():
    assert solve_exact([[1]], [Fraction(3, 2)]) == (Fraction(3, 2),)
    assert solve_exact([[3]], [1]) == (Fraction(1, 3),)
    assert solve_exact([[15]], [5]) == (Fraction(1, 3),)
    x = solve_exact([[2, 1], [1, 1]], [3, 2])
    assert x == (Fraction(1), Fraction(1))


def test_solve_exact_roundtrip_randomized():
    rng, rng2 = np.random.default_rng(3), np.random.default_rng(4)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        a = rng.integers(-9, 10, size=(d, d))
        if round(float(np.linalg.det(a))) == 0:
            continue
        v = [Fraction(int(p), int(q)) for p, q in
             zip(rng.integers(-9, 10, size=d), rng.integers(1, 9, size=d))]
        rows = tuple(tuple(Fraction(int(x)) for x in row) for row in a)
        # dividing row i by q_i keeps the matrix nonsingular and gives
        # non-integral entries, so solve_exact has denominators to clear
        dens = rng2.integers(1, 9, size=d)
        scaled = tuple(tuple(x / int(q) for x in row)
                       for row, q in zip(rows, dens))
        for mat in (rows, scaled):
            sol = solve_exact(mat, v)
            for i in range(d):
                assert sum(mat[i][j] * sol[j] for j in range(d)) == v[i]


def test_solve_exact_singular():
    with pytest.raises(SingularMatrix):
        solve_exact([[1, 1], [1, 1]], [1, 2])
    with pytest.raises(SingularMatrix):  # det = 1/2 - 1/2 over the rationals
        solve_exact([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]],
                    [1, 2])


@pytest.mark.parametrize("r,b,expected", [
    (2, [0, 1], True),
    (2, [0, 3], True),
    (2, [0, 2], False),
])
def test_residue_classes_distinct_1d(r, b, expected):
    assert residue_classes_distinct([[r]], b) is expected


def test_complete_residue_cases():
    assert is_complete_residue_set([[2]], [0, 3])
    assert not is_complete_residue_set([[4]], [0, 2])
    assert is_complete_residue_set([[2, 0], [0, 2]],
                                   [(0, 0), (1, 0), (0, 1), (1, 1)])


def test_complete_residue_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(60):
        d = int(rng.integers(1, 3))
        while True:
            m = rng.integers(-3, 4, size=(d, d))
            dm = abs(round(float(np.linalg.det(m))))
            if 1 <= dm <= 16:
                break
        k = int(rng.integers(1, dm + 2))
        digs = [tuple(int(x) for x in rng.integers(-6, 7, size=d))
                for _ in range(k)]
        digs = list(dict.fromkeys(digs))
        assert is_complete_residue_set(m, digs) == \
            oracles.complete_residue_bruteforce(m, digs)
        assert residue_classes_distinct(m, digs) == \
            oracles.residues_distinct_bruteforce(m, digs)


def test_contraction_factor_values():
    assert contraction_factor([[2]]) == pytest.approx(0.5, rel=1e-12)
    assert contraction_factor([[4]]) == pytest.approx(0.25, rel=1e-12)


def test_contraction_factor_not_contractive_example():
    # Expansive (eigenvalues +-sqrt(2)) yet the inverse transpose has
    # operator norm exactly 1, so the one-step bound is refused.
    with pytest.raises(NotContractive):
        contraction_factor([[0, 2], [1, 0]])
    k, c = multi_step_contraction([[0, 2], [1, 0]])
    assert (k, c) == (2, pytest.approx(0.5))
    k2, c2 = multi_step_contraction([[0, -4], [1, 0]])
    assert k2 == 2 and c2 == pytest.approx(0.25)


def test_norm_series_bounds_partial_sums():
    for m in ([[2]], [[0, 2], [1, 0]], [[3, 1], [0, 2]], [[0, -4], [1, 0]],
              [[1, 1], [-1, 1]]):
        tails = inv_transpose_series([m])
        series = tails.tail(0)
        inv_t = np.linalg.inv(np.array(m, dtype=float).T)
        power, norms = np.eye(len(inv_t)), []
        for _ in range(80):
            power = power @ inv_t
            norms.append(np.linalg.norm(power, 2))
        assert series >= sum(norms)
        for k in range(8):  # tail(k) bounds sum_{j>k}, norms[j-1] = ||S^j||
            assert tails.tail(k) >= sum(norms[k:]) * (1 - 1e-12)


def test_adjugate_and_exact_inverse():
    for m in ([[3]], [[-2]], [[0, 2], [1, 0]], [[3, 1], [0, 2]],
              [[2, 1, 0], [0, 3, 1], [1, 0, 2]], [[0, 0, 2], [1, 0, 0], [0, 1, 0]]):
        im = as_int_matrix(m)
        adj, dt = inverse(im)
        n = im.dim
        assert dt == det(im) and (im @ adj).rows == tuple(
            tuple(dt if i == j else 0 for j in range(n)) for i in range(n))
        assert all(sum(Fraction(adj.rows[i][k], dt) * m[k][j]
                       for k in range(n)) == (i == j)
                   for i in range(n) for j in range(n))
    with pytest.raises(SingularMatrix):
        inverse(as_int_matrix([[1, 2], [2, 4]]))


def test_norm_series_tail_is_exact_for_two_step_scaling():
    # (R^T)^{-2} = I/2 and ||(R^T)^{-1}|| = 1, so the norms run 1, 1/2, 1/2,
    # 1/4, 1/4, ... and every tail sum is attained
    series = inv_transpose_series([[[0, 2], [1, 0]]])
    assert series.heads == (1.0, pytest.approx(1.0)) and series.c == pytest.approx(0.5)
    norms = [0.5 ** (j // 2) for j in range(120)]  # ||(R^T)^{-j}||_2
    for k in range(6):
        assert series.tail(k) == pytest.approx(sum(norms[k + 1:]), rel=1e-12)
    assert series.tail(0) == pytest.approx(3.0)


def test_norm_series_one_step_is_geometric():
    series = inv_transpose_series([[[3]]])
    assert series.heads == (1.0,)
    for k in range(5):
        assert series.tail(k) == series.c ** (k + 1) / (1.0 - series.c)
    # several one-step contractions share the largest norm
    mixed = inv_transpose_series([[[3]], [[2]]])
    assert mixed.c == 0.5 and mixed.heads == (1.0,)
    with pytest.raises(NotContractive):
        inv_transpose_series([[[0, 2], [1, 0]], [[2, 0], [0, 2]]])


def test_charpoly_rejects_non_integral_result():
    # a corrupted IntMatrix: its trace -1/2 is not divisible by 1 over Z
    with pytest.raises(ExactCheckFailed, match="not integral"):
        charpoly(IntMatrix(((Fraction(1, 2),),)))


def test_int_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(((1, 2),))
    with pytest.raises(ValueError):
        as_int_matrix([[1.5]])


def test_int_coercion_takes_numpy_and_integral_floats():
    two = IntMatrix(((2, 0), (0, 2)))
    for m in (np.array([[2, 0], [0, 2]]), [np.array([2, 0]), (0, 2)],
              [[2.0, 0], [0, np.int64(2)]], np.array([[2.0, 0.0], [0.0, 2.0]])):
        got = as_int_matrix(m)
        assert got == two and all(type(x) is int for r in got.rows for x in r)
    for m in (np.int64(3), 3.0, np.array(3), np.array([3]), [3]):
        assert as_int_matrix(m) == IntMatrix(((3,),))
    for v, expected in ((np.int64(3), (3,)), (2.0, (2,)),
                        (np.array([0, 3]), (0, 3)), ([np.int64(1), 2.0], (1, 2)),
                        (np.array([1.0, -4.0]), (1, -4))):
        got = as_int_vector(v)
        assert got == expected and all(type(x) is int for x in got)
    for bad in (2.5, [[2.5]], np.array([[2, 0], [0, 2.5]]), float("inf")):
        with pytest.raises(ValueError):
            as_int_matrix(bad)
    for bad in (2.5, [0, 2.5], np.array([0.5]), "3"):
        with pytest.raises(ValueError):
            as_int_vector(bad)
    for bad in ([1, 2], [[1, 2]], [[1, 2], [3]], [], np.zeros((2, 3))):
        with pytest.raises(ValueError, match="not a square matrix"):
            as_int_matrix(bad)
    with pytest.raises(ValueError, match="expected a 2-vector"):
        as_int_vector([1, 2, 3], 2)
