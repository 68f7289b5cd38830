import itertools
from fractions import Fraction

import numpy as np
import pytest

from speclab import (DigitSet, DimensionMismatch, NotContractive,
                     VerificationFailed, fixed_point_of_word,
                     invariant_ball_radius, mask_eval, mask_is_extreme_at,
                     tau_exact, triple, verify_hadamard)
from speclab.triples import cycle_containment_radius, tau_float_many

import oracles


def test_fourier_pair_is_hadamard():
    t = triple(2, [0, 1], [0, 1])
    assert t.status == "verified"
    assert t.residual < 1e-12


def test_odd_digit_pair_is_hadamard():
    t = triple(2, [0, 3], [0, 1])
    assert t.residual < 1e-12


def test_even_frequency_fails():
    # rows of H coincide: e^{2 pi i (1/2) 2} = 1
    with pytest.raises(VerificationFailed):
        triple(2, [0, 1], [0, 2])
    t = triple(2, [0, 1], [0, 2], require=False)
    res = verify_hadamard(t)
    assert not res.passed and res.residual > 0.5
    assert t.status == "failed"


def test_residual_matches_direct_computation():
    for r, b, l in [(2, [0, 1], [0, 1]), (2, [0, 3], [0, 1]),
                    (4, [0, 2], [0, 1]), (4, [0, 2], [0, 3])]:
        t = triple(r, b, l, require=False)
        res = verify_hadamard(t)
        assert res.residual == pytest.approx(oracles.unitary_residual(r, b, l),
                                             abs=1e-14)


def test_size_mismatch_rejected():
    t = triple(2, [0, 1], [0, 1], require=False)
    object.__setattr__(t.L, "vectors", ((0,), (1,), (2,)))
    with pytest.raises(DimensionMismatch):
        verify_hadamard(t)


@pytest.mark.parametrize("b,xi,expected", [
    ([0, 1], 0.0, 1.0),
    ([0, 1], 0.5, 0.0),
    ([0, 2], 0.5, 1.0),
])
def test_mask_values(b, xi, expected):
    assert mask_eval(b, xi) == pytest.approx(expected, abs=1e-12)


def test_mask_extreme_points():
    assert mask_is_extreme_at([0, 2], [Fraction(1, 2)])
    assert not mask_is_extreme_at([0, 1], [Fraction(1, 2)])
    assert mask_is_extreme_at([0, 1, 2, 3], [Fraction(1)])


def test_mask_extreme_iff_modulus_one():
    # rationals p/q, q <= 20, inside the containment radius, 1-D triples
    for r, b, l in [(2, [0, 1], [0, 1]), (4, [0, 2], [0, 1]),
                    (4, [0, 2], [0, 3]), (2, [0, 3], [0, 1])]:
        rad = cycle_containment_radius(r, l)
        for q in range(1, 21):
            for p in range(-int(rad * q) - 1, int(rad * q) + 2):
                x = Fraction(p, q)
                if abs(x) > rad:
                    continue
                exact = mask_is_extreme_at(b, [x])
                numeric = abs(mask_eval(b, float(x))) > 1 - 1e-12
                assert exact == numeric, (r, b, l, x)


@pytest.mark.parametrize("r,ell,x,expected", [
    (4, 0, 0, Fraction(0)),
    (4, 3, 1, Fraction(1)),
    (2, 1, 1, Fraction(1)),
    (2, 1, Fraction(1, 3), Fraction(2, 3)),
])
def test_tau_exact_1d(r, ell, x, expected):
    assert tau_exact(r, ell, [x]) == (expected,)


def test_tau_exact_matrix():
    out = tau_exact([[0, 2], [1, 0]], (1, 0), (Fraction(1), Fraction(1)))
    # (R^T)^{-1} = [[0, 1/2], [1, 0]]^{-1}... direct: R^T = [[0,1],[2,0]]
    # solve R^T y = x + l = (2, 1): y = (1/2, 2)... check R^T y: (2, 1) ok
    assert out == (Fraction(1, 2), Fraction(2))
    # the float dual map reads the same inverse, not its transpose
    assert tau_float_many([[0, 2], [1, 0]], (1, 0),
                          np.array([[1.0, 1.0]])).tolist() == [[0.5, 2.0]]


def test_parseval_identity_random_points():
    rng = np.random.default_rng(5)
    for r, b, l in [(2, [0, 1], [0, 1]), (2, [0, 3], [0, 1]),
                    (4, [0, 2], [0, 1]), (4, [0, 2], [0, 3])]:
        t = triple(r, b, l)
        for xi in rng.uniform(-5, 5, size=200):
            total = sum(abs(mask_eval(t.B, tau_float_many(t.R, ell, np.array([[xi]]))[0])) ** 2
                        for ell in t.L.vectors)
            assert total == pytest.approx(1.0, abs=1e-9)


def test_invariant_ball_radius_values():
    # r must satisfy c*r + max|(R^T)^{-1} l| <= r; these are the minimal
    # values up to the 1e-6 margin
    assert invariant_ball_radius(2, [0, 1]) == pytest.approx(1.0, rel=1e-5)
    assert invariant_ball_radius(4, [0, 1]) == pytest.approx(1 / 3, rel=1e-5)
    assert invariant_ball_radius(4, [0, 3]) == pytest.approx(1.0, rel=1e-5)
    assert invariant_ball_radius(2, [0]) == pytest.approx(0.0, abs=1e-12)


def test_invariant_ball_contains_tau_images():
    rng = np.random.default_rng(17)
    for r, l in [(2, [0, 1]), (4, [0, 1]), (4, [0, 3]), (3, [0, 1, 2])]:
        rad = invariant_ball_radius(r, l)
        xs = rng.uniform(-rad, rad, size=(500, 1))
        for ell in l:
            moved = tau_float_many(r, ell, xs)
            assert np.all(np.linalg.norm(moved, axis=1) <= rad)


def test_invariant_ball_not_contractive_propagates():
    with pytest.raises(NotContractive):
        invariant_ball_radius([[0, 2], [1, 0]], [(0, 0), (1, 0)])
    # the containment radius still exists via the norm series
    assert cycle_containment_radius([[0, 2], [1, 0]], [(0, 0), (1, 0)]) > 0
    # every cycle point of the multi-step triple lies within it: each is
    # the fixed point of the composed dual maps of some word
    t = triple([[0, 2], [1, 0]], [(0, 0), (1, 0)], [(0, 0), (0, 1)])
    rad = cycle_containment_radius(t.R, t.L)
    assert rad == pytest.approx(2.000002, rel=1e-12)
    rad_sq = Fraction(rad) ** 2
    reach = Fraction(0)
    for m in range(1, 9):
        for word in itertools.product(t.L.vectors, repeat=m):
            x = fixed_point_of_word(t, word)
            reach = max(reach, sum(c * c for c in x))
    assert 2 <= reach <= rad_sq  # (1, 1) is a cycle point


def test_containment_radius_of_one_step_contractions():
    # M / (1 - c) with M = max_l |(R^T)^{-1} l| and c = ||(R^T)^{-1}||_2
    for r, l, m, c in [(2, [0, 1], 0.5, 0.5), (3, [0, 1, 2], 2 / 3, 1 / 3),
                       (4, [0, 3], 0.75, 0.25),
                       ([[2, 0], [0, 2]], [(0, 0), (1, 0), (0, 1), (1, 1)],
                        2 ** 0.5 / 2, 0.5)]:
        assert cycle_containment_radius(r, l) == pytest.approx(
            m / (1 - c) * (1 + 1e-6), rel=1e-14)


def test_digit_set_validation():
    with pytest.raises(ValueError):
        DigitSet.of([1, 2])        # no zero
    with pytest.raises(ValueError):
        DigitSet.of([0, 1, 1])     # duplicate
