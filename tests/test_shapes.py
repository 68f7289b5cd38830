"""One shape rule for points, grids, frequency sets and lattice bases.

In 1-D a scalar, a flat list or an (m, 1) array are points; in R^d a
length-d vector is one point and an (m, d) array is m points. A lattice
basis is d x d, and a bare number is a 1-D basis. Every other width, and a
generator of another dimension than the system, raises DimensionMismatch.
"""

from dataclasses import asdict

import numpy as np
import pytest

from speclab import (CycleSpectrumGenerator, DimensionMismatch,
                     EnsembleConfig, ExplicitGenerator, LatticeGenerator,
                     LevelSetsGenerator, ProductGenerator, check_spectrum,
                     counterexample_probe, dynamically_simple_spectrum,
                     ensemble_spectrum_report, ensemble_tiling_report,
                     find_extreme_cycles, ft_eval, ft_eval_many,
                     ft_partial_eval, ft_tail_eval, lattice_tiling_check,
                     make_q_evaluator, orthogonality_check, qp_eval,
                     quasi_product_spec, self_affine, transfer_apply, triple)

import oracles

SQUARE = [[0, 0], [1, 0], [0, 1], [1, 1]]


def _cos(pts):
    """An evaluator over (m, 1) arrays for transfer_apply."""
    return np.cos(2 * np.pi * pts[:, 0])


@pytest.fixture(scope="module")
def lebesgue_2d():
    return self_affine(triple([[2, 0], [0, 2]], SQUARE, SQUARE))


@pytest.fixture(scope="module")
def cycle_gen_1d(quarter_cantor):
    return CycleSpectrumGenerator(quarter_cantor,
                                  find_extreme_cycles(quarter_cantor, 4))


def test_wrong_widths_raise_dimension_mismatch(
        quarter_cantor, quarter_cantor_system, lebesgue_2d, cycle_gen_1d,
        two_digit_family):
    qc, lat1, lat2 = quarter_cantor_system, LatticeGenerator(1), \
        LatticeGenerator(np.eye(2))
    grid_3x2 = np.zeros((3, 2))
    cases = {
        "ft_eval_many, 2-wide point in 1-D":
            lambda: ft_eval_many(qc, [[0.5, 0.25]]),
        "ft_eval_many, flat list of four numbers in 2-D":
            lambda: ft_eval_many(lebesgue_2d, [0.1, 0.2, 0.3, 0.4]),
        "qp_eval, scalar point in 2-D":
            lambda: qp_eval(lebesgue_2d, lat2, 0.3),
        "check_spectrum, 1-D generator on a 2-D system":
            lambda: check_spectrum(lebesgue_2d, cycle_gen_1d, 4),
        "check_spectrum, 3x2 grid in 1-D":
            lambda: check_spectrum(qc, lat1, grid_3x2),
        "transfer_apply, 3x2 grid in 1-D":
            lambda: transfer_apply(quarter_cantor, _cos, grid_3x2),
        "make_q_evaluator, 3x2 grid in 1-D":
            lambda: make_q_evaluator(qc, lat1)(grid_3x2),
        "orthogonality_check, 1-D generator on a 2-D system":
            lambda: orthogonality_check(lebesgue_2d, cycle_gen_1d, 8),
        "LatticeGenerator, 1x2 basis": lambda: LatticeGenerator([[1, 2]]),
        "lattice_tiling_check, flat 2-D basis":
            lambda: lattice_tiling_check(lebesgue_2d, [1, 0, 0, 1], window=2),
        "counterexample_probe, 2-wide probe in 1-D":
            lambda: counterexample_probe(two_digit_family, [0, 1], lat1,
                                         [[0.5, 0.5]]),
        "EnsembleConfig, 2-D generator for a 1-D family":
            lambda: EnsembleConfig(two_digit_family, lat2),
        "EnsembleConfig, empty family": lambda: EnsembleConfig([], lat1),
        "quasi_product_spec, 1x2 coupling for r = d = 1":
            lambda: quasi_product_spec(2, [0, 1], [0, 1], 2, [[0, 1], [0, 3]],
                                       [0, 1], c=[[1, 0]]),
        "quasi_product_spec, 2x1 coupling for r = d = 1":
            lambda: quasi_product_spec(2, [0, 1], [0, 1], 2, [[0, 1], [0, 3]],
                                       [0, 1], c=[[1], [0]]),
        # single-point entries take exactly one point
        "ft_eval, two points": lambda: ft_eval(qc, [0.1, 0.3]),
        "ft_tail_eval, two points": lambda: ft_tail_eval(qc, 2, [0.1, 0.3]),
        "ft_partial_eval, two points":
            lambda: ft_partial_eval(qc, 2, [0.1, 0.3]),
        "qp_eval, two points": lambda: qp_eval(qc, lat1, [0.1, 0.3]),
        # an empty point set is refused, not left to numpy
        "lattice_tiling_check, window 0":
            lambda: lattice_tiling_check(qc, 1, window=0),
        "check_spectrum, (0, 1) grid":
            lambda: check_spectrum(qc, lat1, np.zeros((0, 1))),
        # the basis is checked once, before any sample runs
        "ensemble_tiling_report, 2x2 basis for a 1-D family":
            lambda: ensemble_tiling_report(
                EnsembleConfig(two_digit_family, lat1, samples=2), np.eye(2)),
        # and so are an empty grid and an empty tiling window
        "ensemble_spectrum_report, grid 0":
            lambda: ensemble_spectrum_report(
                EnsembleConfig(two_digit_family, lat1, samples=2, grid=0)),
        "ensemble_tiling_report, window 0":
            lambda: ensemble_tiling_report(
                EnsembleConfig(two_digit_family, lat1, samples=2, window=0), 1),
        # a negative window lists no level, whatever the generator
        "check_spectrum, lattice window -1":
            lambda: check_spectrum(qc, lat1, 4, window=-1),
        "check_spectrum, cycle_spectrum window -1":
            lambda: check_spectrum(qc, cycle_gen_1d, 4, window=-1),
        "qp_eval, window -1": lambda: qp_eval(qc, lat1, 0.3, window=-1),
        "make_q_evaluator, window -1":
            lambda: make_q_evaluator(qc, lat1, window=-1)([0.3]),
        "orthogonality_check, window -1":
            lambda: orthogonality_check(qc, cycle_gen_1d, -1),
        "counterexample_probe, window -1":
            lambda: counterexample_probe(two_digit_family, [0, 1], lat1, [0.5],
                                         window=-1),
        "lattice_tiling_check, window -1":
            lambda: lattice_tiling_check(qc, 1, window=-1),
        "dynamically_simple_spectrum, level -1":
            lambda: dynamically_simple_spectrum(
                quarter_cantor, find_extreme_cycles(quarter_cantor, 4), -1),
        "LevelSetsGenerator, level -1":
            lambda: LevelSetsGenerator(qc).level(-1),
        "LatticeGenerator, level -1": lambda: LatticeGenerator(1).level(-1),
        "ProductGenerator of lattices, level -1":
            lambda: ProductGenerator(lat1, lat1).level(-1),
        "EnsembleConfig, window -1":
            lambda: EnsembleConfig(two_digit_family, lat1, samples=2, window=-1),
    }
    for name, call in cases.items():
        with pytest.raises(DimensionMismatch):
            call()
            pytest.fail(f"no DimensionMismatch: {name}")


def test_accepted_shapes_give_the_canonical_values(
        quarter_cantor, quarter_cantor_system, lebesgue_system, lebesgue_2d,
        two_digit_family):
    qc, leb = quarter_cantor_system, lebesgue_system
    xs = np.array([[0.5], [0.25]])

    def same_ft(sys, x, canonical):
        vals, bounds = ft_eval_many(sys, x)
        ref_vals, ref_bounds = ft_eval_many(sys, canonical)
        assert vals.tolist() == ref_vals.tolist()
        assert bounds.tolist() == ref_bounds.tolist()

    # 1-D: scalar, flat list, (m, 1) array
    same_ft(qc, 0.5, xs[:1])
    same_ft(qc, [0.5, 0.25], xs)
    same_ft(qc, xs.tolist(), xs)
    vals, _ = ft_eval_many(qc, xs)
    assert np.abs(vals) == pytest.approx(
        [oracles.scale4_ft_abs(x) for x in xs[:, 0]], abs=1e-9)
    # R^2: a length-2 vector is one point, an (m, 2) array m points
    pts = np.array([[0.5, 0.25], [0.1, 0.7]])
    same_ft(lebesgue_2d, [0.5, 0.25], pts[:1])
    same_ft(lebesgue_2d, pts.tolist(), pts)
    vals, _ = ft_eval_many(lebesgue_2d, pts)
    assert vals == pytest.approx(
        [oracles.lebesgue_ft(x) * oracles.lebesgue_ft(y) for x, y in pts],
        abs=1e-9)

    lat1 = LatticeGenerator(1)
    q = qp_eval(leb, lat1, [[0.3]], window=16)
    assert qp_eval(leb, lat1, 0.3, window=16) == q
    assert qp_eval(leb, lat1, [0.3], window=16) == q
    assert q.q == pytest.approx(oracles.lebesgue_lattice_q(0.3, 16), abs=1e-9)
    lat2 = LatticeGenerator(np.eye(2))
    assert qp_eval(lebesgue_2d, lat2, [0.3, 0.6], window=2) \
        == qp_eval(lebesgue_2d, lat2, [[0.3, 0.6]], window=2)

    flat = check_spectrum(qc, lat1, [0.1, 0.6], window=8)
    assert asdict(check_spectrum(qc, lat1, [[0.1], [0.6]], window=8)) \
        == asdict(flat)
    assert [r.xi for r in flat.rows] == [(0.1,), (0.6,)]
    assert transfer_apply(quarter_cantor, _cos, [0.1, 0.6]).tolist() \
        == transfer_apply(quarter_cantor, _cos, [[0.1], [0.6]]).tolist()
    evaluate = make_q_evaluator(qc, lat1, window=8)
    assert evaluate([0.1, 0.6]).tolist() == evaluate([[0.1], [0.6]]).tolist()

    # lattice bases: a bare number, [g] and [[g]] in 1-D; d x d in R^d
    tiling = lattice_tiling_check(leb, [[1.0]], window=16)
    for basis in (1, [1.0]):
        assert lattice_tiling_check(leb, basis, window=16) == tiling
    assert tiling.checked == 32 and tiling.passed
    assert LatticeGenerator(2).basis.tolist() == [[2.0]]
    assert ExplicitGenerator([0, 1]).points.tolist() == [[0.0], [1.0]]

    probes = [asdict(counterexample_probe(two_digit_family, [0, 1], lat1, p,
                                          window=16))
              for p in (0.5, [0.5], [[0.5]])]
    assert probes[0] == probes[1] == probes[2]
    assert probes[0]["rows"][0]["xi"] == (0.5,)
