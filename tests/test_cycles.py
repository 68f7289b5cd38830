from fractions import Fraction

import numpy as np
import pytest

from speclab import (MismatchedRL, NonIntegerElement, common_extreme_cycles,
                     dynamically_simple_spectrum, find_extreme_cycles,
                     fixed_point_of_word, mask_eval, triple)
from speclab import cycles
from speclab.cycles import _primitive_necklaces
from speclab.errors import ExactCheckFailed
from speclab.triples import cycle_containment_radius, tau_float_many

import oracles


def test_fixed_point_recheck_raises(monkeypatch):
    # the exact re-application of the word must reproduce the fixed point;
    # a disagreement raises even under python -O
    t = triple(4, [0, 2], [0, 3])
    monkeypatch.setattr(cycles, "tau_exact",
                        lambda r, l, x: tuple(v + 1 for v in x))
    with pytest.raises(ExactCheckFailed):
        fixed_point_of_word(t, [(3,)])


def test_fixed_points_1d():
    t = triple(4, [0, 2], [0, 3])
    assert fixed_point_of_word(t, [(0,)]) == (Fraction(0),)
    assert fixed_point_of_word(t, [(3,)]) == (Fraction(1),)
    t2 = triple(2, [0, 1], [0, 1])
    assert fixed_point_of_word(t2, [(1,)]) == (Fraction(1),)


def test_fixed_point_two_letter_word():
    t = triple(4, [0, 2], [0, 1])
    # tau_0 tau_1: x = (x + 1)/16 -> x = 1/15
    assert fixed_point_of_word(t, [(0,), (1,)]) == (Fraction(1, 15),)


def test_primitive_necklaces_cover_all_words():
    # every word is a rotation of a power of exactly one primitive necklace
    letters, length = 2, 6
    seen = {}
    for m in (1, 2, 3, 6):
        for neck in _primitive_necklaces(letters, m):
            full = neck * (length // m)
            for i in range(m):
                rot = full[i:] + full[:i]
                assert rot not in seen or seen[rot] == (m, neck)
                seen[rot] = (m, neck)
    assert len(seen) == letters ** length


@pytest.mark.parametrize("r,b,l,expected_sets", [
    (4, [0, 2], [0, 1], [{0}]),
    (2, [0, 1], [0, 1], [{0}, {1}]),
    (4, [0, 2], [0, 3], [{0}, {1}]),
    # <3, x> integral allows thirds: {1/3, 2/3} is a genuine 2-cycle here
    (2, [0, 3], [0, 1], [{0}, {1}, {Fraction(1, 3), Fraction(2, 3)}]),
])
def test_find_extreme_cycles_known_triples(r, b, l, expected_sets):
    t = triple(r, b, l)
    cycles = find_extreme_cycles(t, m_max=6)
    got = [set(float(x) for p in c.points for x in p) for c in cycles]
    assert got == [set(float(v) for v in s) for s in expected_sets]


def test_find_extreme_cycles_matches_bruteforce():
    for r, b, l in [(4, [0, 2], [0, 1]), (2, [0, 1], [0, 1]),
                    (4, [0, 2], [0, 3]), (2, [0, 3], [0, 1]),
                    (3, [0, 1, 2], [0, 1, 2]), (4, [0, 1, 2, 3], [0, 1, 2, 3]),
                    (4, [0, 6], [0, 1]), (6, [0, 2, 4], [0, 1, 2])]:
        t = triple(r, b, l)
        ours = {frozenset(p[0] for p in c.points)
                for c in find_extreme_cycles(t, 4)}
        brute = oracles.extreme_cycles_bruteforce_1d(r, b, l, 4)
        assert ours == brute, (r, b, l)


def test_negative_scaling_factor():
    t = triple(-2, [0, 1], [0, 1])
    ours = {frozenset(p[0] for p in c.points) for c in find_extreme_cycles(t, 6)}
    assert ours == oracles.extreme_cycles_bruteforce_1d(-2, [0, 1], [0, 1], 6)
    assert ours == {frozenset({Fraction(0)})}


def test_cycle_search_saturates_at_double_period():
    for r, b, l in [(4, [0, 2], [0, 1]), (2, [0, 1], [0, 1]),
                    (4, [0, 2], [0, 3])]:
        t = triple(r, b, l)
        small = {frozenset(c.points) for c in find_extreme_cycles(t, 3)}
        large = {frozenset(c.points) for c in find_extreme_cycles(t, 6)}
        assert small == large


def test_cycle_words_close_exactly():
    t = triple(4, [0, 2], [0, 3])
    for c in find_extreme_cycles(t, 6):
        # applying the word's maps cyclically permutes the point list
        from speclab import tau_exact
        cur = c.points[0]
        seen = [cur]
        for l in reversed(c.word):
            cur = tau_exact(t.R, l, cur)
            seen.append(cur)
        assert seen[-1] == c.points[0]
        assert set(seen[:-1]) == set(c.points)


def test_cycle_points_inside_containment_ball():
    for r, b, l in [(4, [0, 2], [0, 3]), (2, [0, 1], [0, 1]),
                    (2, [0, 3], [0, 1])]:
        t = triple(r, b, l)
        rad = cycle_containment_radius(t.R, t.L)
        rad_sq = Fraction(rad) ** 2  # float-to-Fraction is exact
        for c in find_extreme_cycles(t, 6):
            for p in c.points:
                assert sum(x * x for x in p) <= rad_sq


def test_unique_transition_property():
    for r, b, l in [(4, [0, 2], [0, 1]), (2, [0, 1], [0, 1]),
                    (4, [0, 2], [0, 3])]:
        t = triple(r, b, l)
        for c in find_extreme_cycles(t, 6):
            for p in c.points:
                mods = sorted(
                    abs(mask_eval(t.B, tau_float_many(t.R, l_, np.array(
                        [[float(x) for x in p]]))[0]))
                    for l_ in t.L.vectors)
                assert mods[-1] == pytest.approx(1.0, abs=1e-9)
                assert all(m < 1 - 1e-9 for m in mods[:-1])


def test_common_cycles_intersection(two_digit_family):
    cycles = common_extreme_cycles(two_digit_family, 3)
    assert [set(float(x) for p in c.points for x in p) for c in cycles] == \
        [{0.0}, {1.0}]
    single = common_extreme_cycles(two_digit_family[:1], 3)
    direct = find_extreme_cycles(two_digit_family[0], 3)
    assert {c.point_set for c in single} == {c.point_set for c in direct}
    fam = [triple(4, [0, 2], [0, 1]), triple(4, [0, 6], [0, 1])]
    common = common_extreme_cycles(fam, 2)
    per_triple = [{frozenset(c.point_set) for c in find_extreme_cycles(t, 2)}
                  for t in fam]
    assert {frozenset(c.point_set) for c in common} == \
        per_triple[0] & per_triple[1]


def test_common_cycles_requires_shared_rl():
    with pytest.raises(MismatchedRL):
        common_extreme_cycles([triple(2, [0, 1], [0, 1]),
                               triple(4, [0, 2], [0, 1])], 2)


def test_spectrum_levels_quarter_cantor(quarter_cantor):
    cycles = find_extreme_cycles(quarter_cantor, 6)
    assert [p[0] for p in dynamically_simple_spectrum(quarter_cantor, cycles, 3)] \
        == [0, 1, 4, 5, 16, 17, 20, 21]
    assert [p[0] for p in dynamically_simple_spectrum(quarter_cantor, cycles, 0)] \
        == [0]


def test_spectrum_levels_two_cycles(lebesgue_triple):
    cycles = find_extreme_cycles(lebesgue_triple, 3)
    lvl2 = dynamically_simple_spectrum(lebesgue_triple, cycles, 2)
    assert [p[0] for p in lvl2] == list(range(-4, 4))


def test_spectrum_levels_nested_and_recursive(quarter_cantor, lebesgue_triple):
    for t in (quarter_cantor, lebesgue_triple):
        cycles = find_extreme_cycles(t, 6)
        prev = dynamically_simple_spectrum(t, cycles, 0)
        for n in range(1, 6):
            cur = dynamically_simple_spectrum(t, cycles, n)
            assert set(prev) <= set(cur)
            # level recursion: next level is exactly R^T level + L
            image = {tuple(t.R.transpose().apply(lam)[i] + l[i]
                           for i in range(t.dim))
                     for lam in prev for l in t.L.vectors}
            assert image == set(cur)
            prev = cur


def test_two_dimensional_block_triple_cycles(two_digit_family):
    # cycles of the block triple are products of the component cycles, and
    # the generated spectrum factors accordingly
    from speclab import build_quasi_product, quasi_product_spec
    spec = quasi_product_spec(2, [0, 1], [0, 1], 2, [[0, 1], [0, 3]], [0, 1])
    big = build_quasi_product(spec)
    cycles = find_extreme_cycles(big, 3)
    pts = {p for c in cycles for p in c.points}
    assert pts == {(Fraction(a), Fraction(b)) for a in (0, 1) for b in (0, 1)}
    lvl = dynamically_simple_spectrum(big, cycles, 2)
    one_d = dynamically_simple_spectrum(
        two_digit_family[0], find_extreme_cycles(two_digit_family[0], 3), 2)
    assert lvl == sorted((a[0], b[0]) for a in one_d for b in one_d)


def test_non_contractive_matrix_cycles():
    # eigenvalues +-sqrt(2), one-step norm exactly 1: the containment-radius
    # fallback drives the search; (R^T)^{-1}(x + l) = ((x2+l2)/2, x1+l1)
    t = triple([[0, 2], [1, 0]], [(0, 0), (1, 0)], [(0, 0), (0, 1)])
    cycles = find_extreme_cycles(t, 6)
    got = {frozenset(c.points) for c in cycles}

    def tau(x, l):
        return (Fraction(x[1] + l[1], 2), x[0] + l[0])

    def extreme(x):  # <b, x> integral for b in {(0,0), (1,0)}
        return x[0].denominator == 1

    # independent oracle: follow unique extremity-preserving transitions
    # from every integer candidate in the containment ball (cycle points of
    # this triple are integral: denominators divide det((R^T)^m - I) and the
    # coordinate swap feeds x2 into the next extremity constraint)
    rad = cycle_containment_radius(t.R, t.L)
    letters = [(0, 0), (0, 1)]
    brute = set()
    span = int(rad) + 1
    for a in range(-span, span + 1):
        for b in range(-span, span + 1):
            x0 = (Fraction(a), Fraction(b))
            if a * a + b * b > rad * rad or not extreme(x0):
                continue
            orbit, cur = [x0], x0
            for _ in range(6):
                nxt = [tau(cur, l) for l in letters if extreme(tau(cur, l))]
                if len(nxt) != 1:
                    break
                cur = nxt[0]
                if cur == x0:
                    brute.add(frozenset(orbit))
                    break
                orbit.append(cur)
    assert got == brute
    assert frozenset({(Fraction(0), Fraction(1)),
                      (Fraction(1), Fraction(0))}) in got


def test_search_summary_marks_extremity_per_triple(two_digit_family):
    from speclab.cycles import search_summary
    cycles = find_extreme_cycles(two_digit_family[1], 6)  # B = {0, 3}
    rep = search_summary(two_digit_family, cycles, 6)
    by_points = {tuple(c["points"][0]): c["extreme_for"]
                 for c in rep["cycles"]}
    assert by_points[("0",)] == [0, 1]
    assert by_points[("1",)] == [0, 1]
    assert by_points[("1/3",)] == [1]  # thirds cycle fails for B = {0, 1}
    assert rep["containment_radius"] > 0


def test_spectrum_rejects_non_integer_cycles(quarter_cantor):
    from speclab.cycles import ExtremeCycle
    fake = ExtremeCycle(((Fraction(1, 3),),), ((0,),))
    with pytest.raises(NonIntegerElement):
        dynamically_simple_spectrum(quarter_cantor, [fake], 2)
