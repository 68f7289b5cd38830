import numpy as np
import pytest

from speclab import (ExplicitGenerator, InvalidPadding, LatticeGenerator,
                     build_1d_padding, build_quasi_product, det,
                     dual_lattice_basis, fiber_system, find_tiling_lattice,
                     ft_eval, ft_eval_many, is_complete_residue_set,
                     lattice_tiling_check, product_spectrum_check,
                     quasi_product_spec, self_affine, triple)

import oracles


@pytest.fixture(scope="module")
def example_spec():
    """Scale-2 family {0,1}/{0,3} under a scale-2 base layer."""
    return quasi_product_spec(2, [0, 1], [0, 1], 2, [[0, 1], [0, 3]], [0, 1])


def test_build_quasi_product_block_structure(example_spec):
    big = build_quasi_product(example_spec)
    assert big.R.rows == ((2, 0), (0, 2))
    assert set(big.B.vectors) == {(0, 0), (0, 1), (1, 0), (1, 3)}
    assert set(big.L.vectors) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert big.status == "verified" and big.residual < 1e-12


def test_quasi_product_determinant_and_size(example_spec):
    big = build_quasi_product(example_spec)
    assert abs(det(big.R)) == abs(det(example_spec.R1)) * abs(det(example_spec.R))
    assert len(big.B) == example_spec.outer_size * example_spec.inner_size


def test_quasi_product_any_coupling_verifies():
    for c in (-2, -1, 1, 2):
        spec = quasi_product_spec(2, [0, 1], [0, 1], 2, [[0, 1], [0, 3]],
                                  [0, 1], c=[[c]])
        big = build_quasi_product(spec)
        assert big.residual < 1e-12
        assert big.R.rows == ((2, 0), (c, 2))


def test_coupling_entries_are_integers():
    args = (2, [0, 1], [0, 1], 2, [[0, 1], [0, 3]], [0, 1])
    # integral floats, numpy ints and a bare number are integers
    for c in ([[3.0]], np.array([[3]]), 3):
        assert quasi_product_spec(*args, c=c).C == ((3,),)
    assert quasi_product_spec(*args, c=[[0]]).C is None
    # an integer past 2^53 is read exactly, not rounded through a float
    spec = quasi_product_spec(*args, c=[[2**53 + 1]])
    assert build_quasi_product(spec).R.rows[1][0] == 2**53 + 1
    # 1.5 is refused, not truncated to 1
    for c in ([[1.5]], 1.5, [[float("nan")]]):
        with pytest.raises(ValueError, match="expected an integer"):
            quasi_product_spec(*args, c=c)


def test_quasi_product_complete_residue_block(example_spec):
    big = build_quasi_product(example_spec)
    assert is_complete_residue_set(big.R, big.B.vectors)


def test_trivial_outer_reduces_to_padding():
    spec = quasi_product_spec(2, [0], [0], 2, [[0, 1]], [0, 1])
    big = build_quasi_product(spec)
    assert set(big.B.vectors) == {(0, 0), (0, 1)}
    assert big.residual < 1e-12


def test_randomized_specs_verify():
    # pools of verified one-dimensional triples sharing (R, L) per family
    inner_pools = {
        (2, (0, 1)): [[0, 1], [0, 3], [0, 5]],
        (3, (0, 1, 2)): [[0, 1, 2], [0, 1, 5], [0, 4, 2]],
        (4, (0, 1)): [[0, 2], [0, 6]],
    }
    outer_pool = [(2, [0, 1], [0, 1]), (2, [0, 3], [0, 1]),
                  (3, [0, 1, 2], [0, 1, 2]), (4, [0, 2], [0, 1])]
    rng = np.random.default_rng(2024)
    built = 0
    while built < 100:
        r1, a, l1 = outer_pool[rng.integers(0, len(outer_pool))]
        n = len(a)
        (r, l), pool = list(inner_pools.items())[rng.integers(0, len(inner_pools))]
        b_family = [pool[rng.integers(0, len(pool))] for _ in range(n)]
        c = int(rng.integers(-2, 3))
        spec = quasi_product_spec(r1, a, l1, r, b_family, list(l), c=[[c]])
        big = build_quasi_product(spec)
        assert big.residual < 1e-9
        built += 1


def test_padding_construction():
    spec = build_1d_padding(2, [[0, 1], [0, 3]], [0, 1], p=3)
    assert spec.R1.rows == ((6,),)
    assert [b.vectors for b in spec.B_family] == \
        [((0,), (1,)), ((0,), (3,))] * 3
    assert spec.L1.vectors == tuple((i,) for i in range(6))
    big = build_quasi_product(spec)
    assert big.residual < 1e-9


def test_padding_rejects_colliding_scale():
    with pytest.raises(InvalidPadding):
        build_1d_padding(2, [[0, 1], [0, 3]], [0, 1], p=1)
    # default picks the smallest usable p
    assert build_1d_padding(2, [[0, 1], [0, 3]], [0, 1]).R1.rows == ((4,),)
    one_set = build_1d_padding(3, [[0, 1, 2]], [0, 1, 2], p=2)
    assert one_set.R1.rows == ((2,),)
    assert one_set.B_family[0] == one_set.B_family[1]


def test_fiber_system_words(example_spec, two_digit_family):
    fib = fiber_system(example_spec, [0] * 8)
    assert fib.system.kind == "random_word"
    assert fib.system.triple_at(3).B.vectors == ((0,), (1,))
    assert fib.base_point[0] == pytest.approx(0.0, abs=1e-12)
    assert fib.shear[0] == 0.0
    bad = fiber_system(example_spec, (0,) + (1,) * 12)
    assert bad.system.triple_at(2).B.vectors == ((0,), (3,))
    # pi(omega) = sum 2^{-k} a_k = 1/2 for 0111...
    assert bad.base_point[0] == pytest.approx(0.5, abs=1e-6)


def test_fiber_shear_vanishes_only_for_zero_coupling():
    spec = quasi_product_spec(2, [0, 1], [0, 1], 2, [[0, 1], [0, 3]],
                              [0, 1], c=[[1]])
    fib = fiber_system(spec, (1,) * 10)
    assert fib.shear[0] != 0.0
    fib0 = fiber_system(spec, (0,) * 10)
    assert fib0.shear[0] == 0.0  # a_0 = 0 kills every term


def test_shear_bound_covers_deeper_levels():
    # ||R^{-1}|| = 1/sqrt(2), so the shear converges slowly enough that the
    # levels past 64 are visible in double precision
    spec = quasi_product_spec(2, [0, 1], [0, 1], [[1, 1], [-1, 1]],
                              [[(0, 0), (1, 0)], [(0, 0), (3, 0)]],
                              [(0, 0), (1, 0)], c=[[1], [1]])
    for word in [(1,) * 6, (1, 0, 1, 1), (0, 1)]:
        fib = fiber_system(spec, word, depth=64)
        deep = fiber_system(spec, word, depth=400)
        gap = float(np.linalg.norm(deep.shear - fib.shear))
        assert 0 < gap <= fib.shear_bound


def test_fiber_shear_matches_double_sum():
    # the shear read off RR's level table against the O(depth^2) double sum
    specs = [quasi_product_spec(2, [0, 1], [0, 1], 2, [[0, 1], [0, 3]],
                                [0, 1], c=[[c]]) for c in (-2, -1, 1, 2)]
    specs.append(quasi_product_spec(
        2, [0, 1], [0, 1], [[1, 1], [-1, 1]],
        [[(0, 0), (1, 0)], [(0, 0), (3, 0)]], [(0, 0), (1, 0)],
        c=[[1], [1]]))
    specs.append(quasi_product_spec(3, [0, 1, 2], [0, 1, 2], 2,
                                    [[0, 1], [0, 3], [0, 5]], [0, 1],
                                    c=[[-1]]))
    for spec in specs:
        for word in [(1,) * 6, (1, 0, 1, 1), (0, 1), (0,) * 5]:
            for tail in ("repeat_last", "finite"):
                fib = fiber_system(spec, word, tail=tail, depth=48)
                letters = [fib.system.letter_at(k) for k in range(1, 49)]
                ref = oracles.shear_reference(
                    spec.R1.rows, spec.R.rows, spec.C, spec.a,
                    [w for w in letters if w is not None])
                assert np.abs(fib.shear - ref).max() <= 1e-12, (spec, word)


def test_base_point_bound_for_multi_step_outer_scaling():
    # ||R1^{-1}||_2 = 1, so no one-step geometric bound exists; the norm
    # series of R1 (two-step contraction) still bounds the levels past depth
    spec = quasi_product_spec([[0, 2], [1, 0]], [(0, 0), (1, 0)],
                              [(0, 0), (0, 1)], 2, [[0, 1], [0, 3]], [0, 1])
    for word in [(1,) * 6, (1, 0, 1, 1), (0, 1)]:
        fib = fiber_system(spec, word, depth=64)
        deep = fiber_system(spec, word, depth=200)
        gap = float(np.linalg.norm(deep.base_point - fib.base_point))
        assert np.isfinite(fib.base_point_bound)
        assert 0 < gap <= fib.base_point_bound < 1e-9


def test_fiber_transform_matches_second_coordinate(example_spec):
    # with C = 0 the full transform restricted to (0, xi2) factors through
    # the Lebesgue base layer; the fiber-average identity is checked by
    # comparing the fiber product against its own digit expansion
    rng = np.random.default_rng(8)
    for _ in range(10):
        word = tuple(int(x) for x in rng.integers(0, 2, size=12))
        fib = fiber_system(example_spec, word)
        xi2 = rng.uniform(-6, 6, size=5)
        vals, bounds = ft_eval_many(fib.system, xi2)
        for x, v, bd in zip(xi2, vals, bounds):
            assert abs(abs(v) - oracles.word_ft_abs(word, x)) <= bd + 1e-9


def test_product_spectrum_check_trivial_outer():
    # N = 1: the block measure is (point mass) x Lebesgue; Z x Z passes
    spec = quasi_product_spec(2, [0], [0], 2, [[0, 1]], [0, 1])
    rep = product_spectrum_check(spec, ExplicitGenerator([0]),
                                 LatticeGenerator([[1]]),
                                 grid=np.array([[0.0, 0.3], [0.0, 0.7]]),
                                 window=64)
    assert rep.passed
    # an incomplete fiber lattice fails
    rep2 = product_spectrum_check(spec, ExplicitGenerator([0]),
                                  LatticeGenerator([[2]]),
                                  grid=np.array([[0.0, 0.5]]), window=64)
    assert not rep2.passed and rep2.min_q < 0.6


def test_product_spectrum_check_example_family(example_spec):
    # fragmented 2-D tile: orthogonality is exact, the windowed completeness
    # floor sits well below 1 at this window, matching the per-fiber picture
    grid = np.array([[0.25, 0.5], [0.5, 0.25]])
    rep = product_spectrum_check(example_spec, LatticeGenerator([[1]]),
                                 LatticeGenerator([[1]]), grid=grid, window=32)
    assert rep.max_q <= 1 + 1e-4
    assert not rep.passed


def test_lattice_tiling_checks(lebesgue_system, quarter_cantor_system):
    rep = lattice_tiling_check(lebesgue_system, 1.0, window=64)
    assert rep.passed and rep.max_offlattice_mass < 1e-9
    rep = lattice_tiling_check(quarter_cantor_system, 1.0, window=64)
    assert not rep.passed
    assert abs(rep.worst_point[0]) == 2.0
    assert rep.max_offlattice_mass == pytest.approx(
        oracles.scale4_ft_abs(2.0), abs=1e-9)


def test_tiling_random_words(two_digit_family):
    from speclab import random_word
    rng = np.random.default_rng(11)
    for _ in range(20):
        word = tuple(int(x) for x in rng.integers(0, 2, size=20))
        sys = random_word(two_digit_family, word)
        rep = lattice_tiling_check(sys, 1.0, window=64)
        assert rep.passed, word


def test_dual_lattice_and_search(two_digit_family):
    assert dual_lattice_basis([[2]]).tolist() == [[0.5]]
    assert dual_lattice_basis([[1, 0], [1, 2]]).tolist() == [[1.0, -0.5], [0.0, 0.5]]
    # Lebesgue on [0,1]: the integer lattice is found immediately
    basis, rep = find_tiling_lattice(self_affine(triple(2, [0, 1], [0, 1])),
                                     window=32)
    assert basis.tolist() == [[1]] and rep.passed
    # singular measure: no lattice up to the index cap works
    basis, rep = find_tiling_lattice(self_affine(triple(4, [0, 2], [0, 1])),
                                     window=16, max_index=4)
    assert basis is None and not rep.passed

def test_hnf_sublattice_counts():
    from collections import Counter

    from speclab.quasiproduct import _hnf_sublattices

    def counts(dim, top):
        c = Counter(round(np.prod(np.diag(b))) for b in _hnf_sublattices(dim, top))
        return [c[n] for n in range(1, top + 1)]

    sigma = [sum(k for k in range(1, n + 1) if n % k == 0) for n in range(1, 17)]
    assert counts(1, 16) == [1] * 16
    assert counts(2, 16) == sigma
    assert counts(3, 6) == [1, 7, 13, 35, 31, 91]  # OEIS A001001
    for dim in (1, 2, 3):
        bases = list(_hnf_sublattices(dim, 6))
        assert bases[0].tolist() == np.eye(dim, dtype=int).tolist()
        for b in bases:  # lower triangular, entries reduced by row diagonal
            assert np.all(np.triu(b, 1) == 0)
            assert all(0 <= b[i, j] < b[i, i] for i in range(dim) for j in range(i))
        assert len({b.tobytes() for b in bases}) == len(bases)


def test_find_tiling_lattice_in_three_dimensions():
    digits = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    cube = self_affine(triple(2 * np.eye(3, dtype=int), digits, digits))
    basis, rep = find_tiling_lattice(cube, window=2)
    assert basis.tolist() == np.eye(3, dtype=int).tolist() and rep.passed
