from dataclasses import asdict

import numpy as np
import pytest

from speclab import (EnsembleConfig, LatticeGenerator, NotCompleteResidue,
                     counterexample_probe, ensemble_spectrum_report,
                     ensemble_tiling_report, sample_words, triple)

import oracles


def test_sample_words_deterministic():
    a = sample_words(2, 20, 50, seed=7)
    b = sample_words(2, 20, 50, seed=7)
    assert a == b
    assert len(a) == 50 and all(len(w) == 20 for w in a)
    assert sample_words(1, 5, 3, seed=0) == [(0,) * 5] * 3
    with pytest.raises(ValueError, match="seed >= 0"):
        sample_words(2, 5, 3, seed=-1)


def test_sample_words_per_sample_streams():
    # any subset of samples reproduces in isolation
    full = sample_words(2, 10, 40, seed=3)
    assert sample_words(2, 10, 10, seed=3) == full[:10]


def test_sample_words_frequencies():
    words = sample_words(2, 100, 1000, seed=1)
    digits = np.array(words).ravel()
    assert abs(digits.mean() - 0.5) < 0.01


def _family_cfg(two_digit_family, **kw):
    base = dict(triples=two_digit_family, generator=LatticeGenerator([[1]]),
                word_length=20, samples=25, seed=7, grid=32, window=64)
    base.update(kw)
    return EnsembleConfig(**base)


def test_ensemble_reproducible_and_worker_independent(two_digit_family):
    cfg1 = _family_cfg(two_digit_family, samples=12)
    cfg2 = _family_cfg(two_digit_family, samples=12, workers=4)
    rep1 = ensemble_spectrum_report(cfg1)
    rep2 = ensemble_spectrum_report(cfg2)
    assert [v.word for v in rep1.verdicts] == [v.word for v in rep2.verdicts]
    assert [v.min_q for v in rep1.verdicts] == [v.min_q for v in rep2.verdicts]
    assert rep1.pass_fraction == rep2.pass_fraction


def test_reports_share_words_and_verdicts_pickle(two_digit_family):
    # the words of one config are drawn once: both reports hold the same
    # tuples; verdicts are slotted records, and a pool of two gives the
    # verdicts of one process
    cfg = _family_cfg(two_digit_family, samples=6, seed=11)
    spec = ensemble_spectrum_report(cfg)
    tile = ensemble_tiling_report(cfg, 1.0)
    assert all(s.word is t.word for s, t in zip(spec.verdicts, tile.verdicts))
    assert [v.word for v in spec.verdicts] == sample_words(2, 20, 6, seed=11)
    assert not hasattr(spec.verdicts[0], "__dict__")
    cfg.workers = 2
    pooled = ensemble_spectrum_report(cfg)

    def fields(rep):
        return [(v.index, v.word, v.min_q, v.max_q, v.passed, v.error)
                for v in rep.verdicts]
    assert fields(pooled) == fields(spec)


def test_ensemble_matches_external_oracle(two_digit_family):
    # per-sample minimum Q agrees with a plain-math product evaluation
    cfg = _family_cfg(two_digit_family, samples=5)
    rep = ensemble_spectrum_report(cfg)
    grid = np.arange(32) / 32
    lat = range(-64, 65)
    for v in rep.verdicts:
        direct = min(sum(oracles.word_ft_abs(v.word, x + n) ** 2 for n in lat)
                     for x in grid)
        assert v.min_q == pytest.approx(direct, abs=1e-9)


def test_ensemble_orthogonality_always_holds(two_digit_family):
    # the integer lattice is mutually orthogonal for every word here, so
    # max Q never exceeds 1
    rep = ensemble_spectrum_report(_family_cfg(two_digit_family, samples=30))
    assert all(v.max_q <= 1 + 1e-4 for v in rep.verdicts)


def test_single_triple_family_passes(lebesgue_triple):
    cfg = EnsembleConfig(triples=[lebesgue_triple],
                         generator=LatticeGenerator([[1]]),
                         word_length=10, samples=5, seed=2, grid=32, window=64)
    rep = ensemble_spectrum_report(cfg)
    assert rep.pass_fraction == 1.0
    assert rep.min_q_min >= 0.995


def test_summary_statistics_are_ordered(two_digit_family):
    rep = ensemble_spectrum_report(_family_cfg(two_digit_family, samples=40))
    assert rep.min_q_min <= rep.min_q_p5 <= rep.min_q_median
    assert len(rep.failing_words) == sum(not v.passed for v in rep.verdicts)
    assert len(rep.notes) == 1 and "outside the window" in rep.notes[0]
    assert asdict(rep)["notes"] == rep.notes


def test_c07_rate_with_exact_q(two_digit_family):
    # the acceptance ensemble (seed 7, 200 words, grid 32, window 64) against
    # the window-free Q of the oracle, under the repeat-last tail
    rep = ensemble_spectrum_report(_family_cfg(two_digit_family, samples=200))
    xs = np.arange(32) / 32
    exact = [oracles.repeat_last_exact_q(v.word) for v in rep.verdicts]
    exact_min = [min(oracles.trig_eval(c, x) for x in xs) for c in exact]
    # a window sums part of the same nonnegative series
    assert all(v.min_q <= e + 1e-9 for v, e in zip(rep.verdicts, exact_min))
    flat = [v for v, c in zip(rep.verdicts, exact) if v.word[-1] == 0]
    assert len(flat) == 101
    assert all(c == {0: 1} for v, c in zip(rep.verdicts, exact)
               if v.word[-1] == 0)  # Q == 1 exactly
    assert sum(v.passed for v in flat) == 2
    assert 0.11 <= min(v.min_q for v in flat) < 0.12
    assert 0.99 < max(v.min_q for v in flat) <= 0.995
    # a {0,3} tail is uniform on [0,3]: Q = (1 + 2 cos 2 pi x)^2 / 9
    tail = oracles.repeat_last_exact_q((1,))
    assert tail == oracles.repeat_last_exact_q((1, 1, 1))
    assert oracles.trig_eval(tail, 0.2) == pytest.approx(
        (1 + 2 * np.cos(0.4 * np.pi)) ** 2 / 9, abs=1e-15)
    low = [e for v, e in zip(rep.verdicts, exact_min)
           if v.word[-1] == 1 and e < 1 - 0.01]
    assert len(low) == 43
    assert rep.pass_fraction == pytest.approx(0.010)
    assert (200 - len(low)) / 200 == pytest.approx(0.785)


def test_incomplete_lattice_never_passes(two_digit_family):
    cfg = _family_cfg(two_digit_family, samples=10,
                      generator=LatticeGenerator([[2]]))
    rep = ensemble_spectrum_report(cfg)
    assert rep.pass_fraction == 0.0


def test_monotonicity_in_window(two_digit_family):
    small = ensemble_spectrum_report(_family_cfg(two_digit_family, samples=8,
                                                 window=32))
    large = ensemble_spectrum_report(_family_cfg(two_digit_family, samples=8,
                                                 window=64))
    for a, b in zip(small.verdicts, large.verdicts):
        assert b.min_q >= a.min_q - 1e-12


def test_tiling_report_all_words_pass(two_digit_family):
    cfg = _family_cfg(two_digit_family, samples=30, seed=11)
    rep = ensemble_tiling_report(cfg, 1.0)
    assert rep.pass_fraction == 1.0
    assert max(v.max_q for v in rep.verdicts) < 1e-9


def test_tiling_report_requires_complete_residues(quarter_cantor):
    cfg = EnsembleConfig(triples=[quarter_cantor],
                         generator=LatticeGenerator([[1]]), samples=2,
                         word_length=4, window=16)
    with pytest.raises(NotCompleteResidue):
        ensemble_tiling_report(cfg, 1.0)


def test_tiling_report_single_lebesgue(lebesgue_triple):
    cfg = EnsembleConfig(triples=[lebesgue_triple],
                         generator=LatticeGenerator([[1]]), samples=5,
                         word_length=8, seed=1, window=32)
    rep = ensemble_tiling_report(cfg, 1.0)
    assert rep.pass_fraction == 1.0


def test_probe_bad_word(two_digit_family):
    rep = counterexample_probe(two_digit_family, (0,) + (1,) * 19,
                               LatticeGenerator([[1]]), [0.5], window=200)
    assert rep.verdict == "NonSpectralEvidence"
    q = rep.rows[0].q
    assert q == pytest.approx(oracles.badword_lattice_q(0.5, 200), abs=1e-6)
    assert 0.08 <= q <= 0.13


def test_probe_flat_word(two_digit_family):
    rep = counterexample_probe(two_digit_family, (0,) * 20,
                               LatticeGenerator([[1]]), [0.5], window=200)
    assert rep.verdict == "consistent"
    assert rep.rows[0].q == pytest.approx(1.0, abs=5e-3)


def test_probe_at_zero_is_safe(two_digit_family):
    rep = counterexample_probe(two_digit_family, (0,) + (1,) * 19,
                               LatticeGenerator([[1]]), [0.0], window=64)
    assert rep.rows[0].q >= 1 - 1e-6
    assert rep.verdict == "consistent"


def test_product_vs_ensemble_consistency(two_digit_family):
    # the product-spectrum verdict and the ensemble verdict agree at matched
    # truncation (here: both fall short of the completeness threshold at
    # window 64, for the same windowing reason)
    from speclab import (LatticeGenerator, product_spectrum_check,
                         quasi_product_spec)
    spec = quasi_product_spec(2, [0, 1], [0, 1], 2, [[0, 1], [0, 3]], [0, 1])
    grid = np.array([[0.25, 0.5], [0.5, 0.25], [0.125, 0.375]])
    prod = product_spectrum_check(spec, LatticeGenerator([[1]]),
                                  LatticeGenerator([[1]]), grid=grid, window=32)
    ens = ensemble_spectrum_report(_family_cfg(two_digit_family, samples=40))
    assert prod.passed == (ens.pass_fraction >= 0.9)
