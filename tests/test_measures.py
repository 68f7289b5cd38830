import cmath
import math

import numpy as np
import pytest

from speclab import (ConvolutionSystem, EnsembleConfig, LatticeGenerator,
                     SpeclabError, TruncationPolicy, ensemble_spectrum_report,
                     ensemble_tiling_report, ft_eval, ft_eval_many,
                     ft_partial_eval, ft_tail_eval, find_tiling_lattice,
                     general_product, no_overlap_assess, orthogonality_check,
                     periodic_word, random_word, sample_support, sample_words,
                     self_affine, support_bbox, triple)

import oracles


def test_ft_at_zero_is_exactly_one(quarter_cantor_system):
    v = ft_eval(quarter_cantor_system, 0.0)
    assert v.value == 1.0 + 0.0j
    assert v.tail_bound == 0.0


def test_ft_matches_lebesgue_closed_form(lebesgue_system):
    v = ft_eval(lebesgue_system, 1.0, TruncationPolicy(depth=40))
    assert abs(v.value) < 1e-9
    v = ft_eval(lebesgue_system, 0.5, TruncationPolicy(depth=40))
    assert abs(v.value) == pytest.approx(2 / math.pi, abs=1e-9)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-10, 10, size=100)
    vals, bounds = ft_eval_many(lebesgue_system, xs)
    for x, v, b in zip(xs, vals, bounds):
        assert abs(v - oracles.lebesgue_ft(x)) <= b + 1e-12


def test_ft_modulus_never_exceeds_one(lebesgue_system, quarter_cantor_system):
    rng = np.random.default_rng(2)
    xs = rng.uniform(-50, 50, size=200)
    for sys in (lebesgue_system, quarter_cantor_system):
        vals, _ = ft_eval_many(sys, xs)
        assert np.max(np.abs(vals)) <= 1 + 1e-12


def test_tail_bound_is_monotone_and_valid(lebesgue_system):
    rng = np.random.default_rng(3)
    xs = rng.uniform(-10, 10, size=50)
    for k in (10, 20, 40):
        va, ba = ft_eval_many(lebesgue_system, xs, TruncationPolicy(depth=k))
        vb, bb = ft_eval_many(lebesgue_system, xs, TruncationPolicy(depth=k + 10))
        assert np.all(bb <= ba + 1e-18)
        assert np.all(np.abs(va - vb) <= ba + 1e-15)


def test_ft_tail_levels(lebesgue_system, quarter_cantor_system):
    v = ft_tail_eval(lebesgue_system, 1, 1.0)
    expected = cmath.exp(-1j * math.pi / 2) * (2 / math.pi)
    assert v.value == pytest.approx(expected, abs=1e-9)
    assert ft_tail_eval(quarter_cantor_system, 2, 0.0).value == 1.0 + 0j
    # level 0 tail is the measure itself
    a = ft_tail_eval(lebesgue_system, 0, 0.7)
    b = ft_eval(lebesgue_system, 0.7)
    assert a.value == pytest.approx(b.value, abs=1e-15)


def test_ft_factorizes_through_tail(lebesgue_system, quarter_cantor_system):
    rng = np.random.default_rng(4)
    for sys in (lebesgue_system, quarter_cantor_system):
        for xi in rng.uniform(-5, 5, size=20):
            full = ft_eval(sys, xi)
            for n in (1, 2, 3):
                head = ft_partial_eval(sys, n, xi)
                tail = ft_tail_eval(sys, n, xi)
                err = abs(full.value - head * tail.value)
                assert err <= full.tail_bound + tail.tail_bound + 1e-12


def test_finite_tail_products_stop():
    t = triple(2, [0, 1], [0, 1])
    sys = general_product([t, t, t], tail="finite")
    v = ft_eval(sys, 1.0)
    assert v.tail_bound == 0.0
    # mu_3 at 1: product of exactly three factors
    direct = 1.0
    for k in range(1, 4):
        direct *= (1 + cmath.exp(-2j * math.pi / 2 ** k)) / 2
    assert v.value == pytest.approx(direct, abs=1e-14)


def test_support_bbox_contains_attractor(lebesgue_system,
                                         quarter_cantor_system):
    lo, hi = support_bbox(lebesgue_system)
    assert lo[0] <= 0 and hi[0] >= 1
    lo, hi = support_bbox(quarter_cantor_system)
    assert lo[0] <= 0 and hi[0] >= 2 / 3 - 1e-12
    point = self_affine(triple(2, [0], [0]))
    lo, hi = support_bbox(point)
    assert lo[0] == hi[0] == 0


def test_sample_support_values(lebesgue_system, quarter_cantor_system):
    pts = sample_support(lebesgue_system, 3, 64, seed=1)
    vals = {round(float(v) * 8) for v in pts.ravel()}
    assert vals <= set(range(8))
    pts = sample_support(quarter_cantor_system, 2, 64, seed=2)
    assert {float(v) for v in pts.ravel()} <= {0.0, 1 / 8, 1 / 2, 5 / 8}
    single = sample_support(self_affine(triple(2, [0], [0])), 1, 5, seed=0)
    assert np.all(single == 0)


def test_sample_support_deterministic(lebesgue_system):
    a = sample_support(lebesgue_system, 5, 32, seed=9)
    b = sample_support(lebesgue_system, 5, 32, seed=9)
    assert np.array_equal(a, b)


def test_periodic_system_transform(two_digit_family):
    per = periodic_word(two_digit_family, [0, 1])
    rng = np.random.default_rng(12)
    xs = rng.uniform(-6, 6, size=30)
    vals, bounds = ft_eval_many(per, xs)
    # the period-2 word 0101... as an explicit repeat-last word of depth 60
    word = (0, 1) * 30
    for x, v, b in zip(xs, vals, bounds):
        assert abs(abs(v) - oracles.word_ft_abs(word, x)) <= b + 1e-10


def test_auto_depth_meets_target(lebesgue_system, quarter_cantor_system):
    for sys in (lebesgue_system, quarter_cantor_system):
        vals, bounds = ft_eval_many(sys, np.linspace(-40, 40, 81))
        assert np.all(bounds <= 2e-10)  # default target is 1e-10 on the log scale
    tight = TruncationPolicy(target_error=1e-6)
    _, loose_bounds = ft_eval_many(lebesgue_system, [3.0], tight)
    assert loose_bounds[0] <= 2e-6


def test_periodic_and_word_systems(two_digit_family):
    per = periodic_word(two_digit_family, [0, 1])
    assert per.triple_at(1) is two_digit_family[0]
    assert per.triple_at(2) is two_digit_family[1]
    assert per.triple_at(3) is two_digit_family[0]
    rw = random_word(two_digit_family, [0, 1, 1], tail="repeat_last")
    assert rw.triple_at(5) is two_digit_family[1]
    fin = random_word(two_digit_family, [0, 1], tail="finite")
    assert fin.triple_at(3) is None
    # a general system is finite unless told otherwise, and a field its
    # kind cannot use is refused rather than ignored
    assert ConvolutionSystem("general", tuple(two_digit_family)).finite_length == 2
    for kind, field in (("general", {"word": (0, 1)}),
                        ("self_affine", {"tail": "finite"}),
                        ("periodic", {"word": (0,), "tail": "repeat_last"})):
        with pytest.raises(ValueError, match="takes no"):
            ConvolutionSystem(kind, tuple(two_digit_family[:1]), **field)


def test_norm_series_reads_the_whole_family():
    # systems with one level table share a cache, but the norm series reads
    # every R of the family: a period over the R = 3 triple of a family that
    # also holds R = 2 keeps the looser series, whichever system asked first
    r3, r2 = triple(3, [0, 1, 2], [0, 1, 2]), triple(2, [0, 1], [0, 1])
    assert periodic_word([r3, r2], [0]).tail_norm_sum(1) == pytest.approx(0.5)
    assert self_affine(r3).tail_norm_sum(1) == pytest.approx(1 / 6)


def test_bad_input_is_a_speclab_error(two_digit_family):
    # library callers catch every refusal as a SpeclabError; the ValueError
    # it also is keeps older `except ValueError` callers working
    word = random_word(two_digit_family, (0,) + (1,) * 12)
    lat1 = LatticeGenerator(1)
    fam = tuple(two_digit_family)
    square = [[0, 0], [1, 0], [0, 1], [1, 1]]
    cases = [
        ("unknown system kind", lambda: ConvolutionSystem("bogus", fam)),
        ("unknown tail convention",
         lambda: ConvolutionSystem("random_word", fam, (0, 1), "cyclic")),
        ("need at least one triple", lambda: ConvolutionSystem("general", ())),
        ("triples have mixed dimensions", lambda: ConvolutionSystem(
            "general", (fam[0], triple([[2, 0], [0, 2]], square, square)))),
        ("word digits out of range",
         lambda: ConvolutionSystem("random_word", fam, (0, 2))),
        ("must share R, L, and digit count", lambda: ConvolutionSystem(
            "random_word", (fam[0], triple(4, [0, 2], [0, 1])), (0, 1))),
        ("must share R, L, and digit count", lambda: ConvolutionSystem(
            "random_word", (fam[0], triple(2, [0, 1], [0, 3])), (0, 1))),
        ("n_letters", lambda: sample_words(0, 5, 1)),
        # no sample pairs and no deeper level are refused, not estimated
        # from 0 pairs or left to numpy
        ("samples >= 1", lambda: no_overlap_assess(word, 6, samples=0, cap=16)),
        ("samples >= 1", lambda: no_overlap_assess(word, 6, samples=-5, cap=16)),
        ("extra_depth >= 0",
         lambda: no_overlap_assess(word, 6, extra_depth=-3, cap=16)),
        ("extra_depth >= 0",
         lambda: no_overlap_assess(word, 6, extra_depth=-6, cap=16)),
        # an index cap below 1 would try no lattice, not even Z^d
        ("max_index must be >= 1",
         lambda: find_tiling_lattice(word, window=4, max_index=0)),
        # a count below 1 is refused, not left to numpy or to an empty sweep
        ("count must be >= 1", lambda: sample_support(word, 2, -1)),
        ("count must be >= 1", lambda: sample_support(word, 2, 0)),
        ("max_pairs must be >= 1",
         lambda: orthogonality_check(word, lat1, 4, max_pairs=0)),
        ("level must be >= 0", lambda: ft_partial_eval(word, -1, 0.3)),
        # an ensemble of no samples, of empty words or of no seed stream is
        # refused before any sample runs
        ("samples and word_length must be >= 1", lambda: ensemble_spectrum_report(
            EnsembleConfig(two_digit_family, lat1, samples=0))),
        ("samples and word_length must be >= 1", lambda: ensemble_tiling_report(
            EnsembleConfig(two_digit_family, lat1, samples=0), 1)),
        ("samples and word_length must be >= 1", lambda: ensemble_spectrum_report(
            EnsembleConfig(two_digit_family, lat1, samples=2, word_length=0))),
        ("samples and word_length must be >= 1", lambda: ensemble_tiling_report(
            EnsembleConfig(two_digit_family, lat1, samples=2, word_length=0), 1)),
        ("seed must be >= 0",
         lambda: EnsembleConfig(two_digit_family, lat1, samples=2, seed=-1)),
    ]
    for message, call in cases:
        with pytest.raises(SpeclabError, match=message) as caught:
            call()
        assert isinstance(caught.value, ValueError), message


def test_bad_word_closed_form(two_digit_family):
    # word 0111... : first level {0,1}/2, then Lebesgue on [0, 3/2]
    sys = random_word(two_digit_family, (0,) + (1,) * 20)
    rng = np.random.default_rng(6)
    for xi in rng.uniform(-8, 8, size=40):
        v = ft_eval(sys, xi)
        assert abs(v.value) == pytest.approx(oracles.badword_ft_abs(xi),
                                             abs=v.tail_bound + 1e-10)


def test_no_overlap_verdicts(two_digit_family, quarter_cantor_system,
                             lebesgue_system):
    rep = no_overlap_assess(quarter_cantor_system, 2)
    assert rep.verdict == "proven"
    rep = no_overlap_assess(lebesgue_system, 2)
    assert rep.verdict == "assumed"  # boundary-touching cells: not provable here
    bad = random_word(two_digit_family, (0,) + (1,) * 12)
    rep = no_overlap_assess(bad, 1)
    assert rep.verdict == "estimated"
    assert rep.p_hat > 0
    point = self_affine(triple(2, [0], [0]))
    assert no_overlap_assess(point, 3).verdict == "proven"
    good = random_word(two_digit_family, (1,) + (0,) * 12)
    rep = no_overlap_assess(good, 1)
    assert rep.verdict == "estimated" and rep.p_hat == 0


def test_no_overlap_one_repeated_triple_is_self_affine(two_digit_family):
    # whatever factory builds it, one triple from level 1 on is the
    # self-affine measure of that triple
    for sys in (periodic_word(two_digit_family, [1]),
                random_word(two_digit_family, [1]),
                general_product(two_digit_family[1:], tail="repeat_last")):
        assert sys.prefix == () and sys.period == (two_digit_family[1],)
        assert no_overlap_assess(sys, 1).verdict == "assumed"
    fin = general_product(two_digit_family[1:])
    assert fin.prefix == (two_digit_family[1],) and fin.period == ()


def test_no_overlap_sampled_branch(two_digit_family):
    # a deep enough level overflows the enumeration cap and switches to
    # seeded pair sampling; detection weakens but stays deterministic
    bad = random_word(two_digit_family, (0,) + (1,) * 20)
    rep = no_overlap_assess(bad, 1, samples=30000, seed=5, extra_depth=13)
    assert rep.detail["mode"] == "sampled"
    assert rep.p_hat > 0
    good = random_word(two_digit_family, (1,) + (0,) * 20)
    rep = no_overlap_assess(good, 1, samples=30000, seed=5, extra_depth=13)
    assert rep.detail["mode"] == "sampled" and rep.p_hat == 0


def test_near_pairs_1d_matches_loop():
    from speclab.measures import _min_pairwise_gap, _near_pairs
    rng = np.random.default_rng(11)
    for size, groups, step, tol in ((300, 4, 0.1, 0.3), (500, 7, 0.1, 0.25),
                                    (200, 3, 1e-3, 1e-12), (64, 1, 0.5, 1.0)):
        # grid values give ties and differences that round across tol
        vals = rng.integers(0, size // 5, size=size) * step
        prefixes = rng.integers(0, groups, size=size)
        hits, cross = _near_pairs(vals[:, None], prefixes, tol)
        assert hits == oracles.near_pairs_1d_loop(vals, prefixes, tol)
        assert cross == int((prefixes[:, None] != prefixes[None, :]).sum()) // 2
        assert _min_pairwise_gap(vals[:, None]) == \
            oracles.min_pairwise_gap_loop(vals[:, None])


def test_near_pairs_and_gap_sweep_match_loop_in_2d_and_3d():
    from speclab.measures import _min_pairwise_gap, _near_pairs
    rng = np.random.default_rng(12)
    for dim, size, groups, step, tol in ((2, 300, 4, 0.1, 0.3),
                                         (2, 400, 7, 0.1, 0.25),
                                         (3, 250, 3, 0.1, 0.3),
                                         (3, 200, 5, 1e-3, 1e-12),
                                         (2, 64, 1, 0.5, 1.0)):
        # grid points give ties, repeated points and first-coordinate gaps
        # whose difference rounds across tol while v + tol does not, such as
        # 0.1 * 3 against 0.3; few levels elsewhere make such gaps the norm
        pts = rng.integers(0, 6, size=(size, dim)) * step
        pts[:, 0] = rng.integers(0, size // 5, size=size) * step
        prefixes = rng.integers(0, groups, size=size)
        hits, cross = _near_pairs(pts, prefixes, tol)
        assert hits == oracles.near_pairs_loop(pts, prefixes, tol)
        assert cross == int((prefixes[:, None] != prefixes[None, :]).sum()) // 2
        distinct = np.unique(pts, axis=0)
        # a narrow first axis puts the closest pair many places apart in
        # the sweep order
        narrow = rng.uniform(0, 1, size=(size, dim)) * ([1] + [50] * (dim - 1))
        for sample in (pts, distinct, narrow,
                       distinct + rng.normal(0, 1e-3, distinct.shape)):
            assert _min_pairwise_gap(sample) == oracles.min_pairwise_gap_loop(sample)
