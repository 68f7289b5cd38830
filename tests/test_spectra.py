import math

import numpy as np
import pytest

from speclab import (CycleSpectrumGenerator, ExplicitGenerator,
                     LatticeGenerator, LevelSetsGenerator, SizeCap,
                     VerificationFailed, build_fn, check_spectrum,
                     find_extreme_cycles, general_product, lambda_n,
                     make_q_evaluator, orthogonality_check, qp_eval,
                     random_word, self_affine, strichartz_report,
                     tail_factor_scan, transfer_apply, triple, uniform_grid)

import oracles


def test_lambda_levels(quarter_cantor_system, lebesgue_system):
    assert lambda_n(quarter_cantor_system, 1) == [(0,), (1,)]
    assert lambda_n(quarter_cantor_system, 2) == [(0,), (1,), (4,), (5,)]
    assert lambda_n(lebesgue_system, 3) == [(i,) for i in range(8)]


def test_lambda_levels_nested(quarter_cantor_system):
    prev = set(lambda_n(quarter_cantor_system, 1))
    for n in range(2, 7):
        cur = set(lambda_n(quarter_cantor_system, n))
        assert prev <= cur
        assert len(cur) == 2 ** n
        prev = cur


def test_lambda_collision_warns():
    from speclab.levels import ConvolutionSystem
    # adversarial L: 3 + 3*0 == 0 + 3*1 collides at level 2 (verified triples
    # cannot collide, so the gate has to be forced open for this case)
    t_bad = triple(3, [0, 1, 2], [0, 1, 3], require=False)
    t_bad.status = "verified"
    sys = ConvolutionSystem("self_affine", (t_bad,))
    with pytest.warns(UserWarning, match="collision"):
        vals = lambda_n(sys, 2)
    assert len(vals) == 8  # nine digit words, one coincidence
    with pytest.raises(VerificationFailed, match="collisions"):
        build_fn(sys, 2)


def test_build_fn_trivial_tail_is_unitary(lebesgue_triple):
    sys = general_product([lebesgue_triple] * 3, tail="finite")
    fn = build_fn(sys, 3)
    assert fn.sigma_min == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(fn.tail_moduli, 1.0)


def test_build_fn_quarter_cantor_levels(quarter_cantor_system):
    # sigma(F_n) = {|mu_{>n}(lambda)|^2}: spot-check the level floors against
    # direct cosine products
    for n in range(1, 7):
        fn = build_fn(quarter_cantor_system, n)
        lam_max = (4 ** n - 1) // 3
        direct = oracles.scale4_tail_abs(lam_max, n)
        assert fn.min_tail_modulus == pytest.approx(direct, abs=1e-10)
        assert fn.sigma_min == pytest.approx(direct ** 2, abs=1e-8)
    fn1 = build_fn(quarter_cantor_system, 1)
    assert fn1.min_tail_modulus == pytest.approx(0.9191354, abs=1e-6)
    assert fn1.sigma_min == pytest.approx(0.8448099, abs=1e-6)


def _assert_matches_dense_oracle(fn, levels):
    """fn.sigmas against eigvalsh of the dense F = D U built by the oracle."""
    dense, unitary_err = oracles.dense_fn_sigmas(levels, fn.lambdas,
                                                 fn.tail_moduli)
    assert unitary_err < 1e-10
    assert np.abs(fn.sigmas - dense).max() < 1e-8


def test_build_fn_diagonal_structure(quarter_cantor_system, lebesgue_system):
    for sys, level in ((quarter_cantor_system, (4, [0, 2])),
                       (lebesgue_system, (2, [0, 1]))):
        fn = build_fn(sys, 4)
        assert not fn.collisions
        _assert_matches_dense_oracle(fn, [level] * 4)


def test_build_fn_special_case_inequality(quarter_cantor_system,
                                          lebesgue_system):
    for sys in (quarter_cantor_system, lebesgue_system):
        for n in (1, 3, 5):
            fn = build_fn(sys, n)
            assert fn.sigma_min >= fn.min_tail_modulus ** 2 - 1e-8


def test_build_fn_two_dimensional_block_system():
    from speclab import build_quasi_product, quasi_product_spec
    spec = quasi_product_spec(2, [0, 1], [0, 1], 2, [[0, 1], [0, 3]], [0, 1])
    sys = self_affine(build_quasi_product(spec))
    assert len(lambda_n(sys, 2)) == 16
    fn = build_fn(sys, 2)
    assert not fn.collisions
    t = sys.triples[0]
    level = ([list(r) for r in t.R.rows], [list(b) for b in t.B.vectors])
    _assert_matches_dense_oracle(fn, [level] * 2)
    assert fn.sigma_min >= fn.min_tail_modulus ** 2 - 1e-8


def test_build_fn_size_cap(lebesgue_system):
    with pytest.raises(SizeCap):
        build_fn(lebesgue_system, 5, cap=16)


def test_strichartz_report_quarter_cantor(quarter_cantor_system):
    rep = strichartz_report(quarter_cantor_system, 6)
    assert rep["floor_min_tail_modulus"] >= 0.85
    assert rep["floor_sigma_min"] >= 0.72
    assert "criterion holds up to n_max=6" in rep["verdict"]


def test_strichartz_report_lebesgue_inconclusive(lebesgue_system):
    rep = strichartz_report(lebesgue_system, 6)
    sigmas = [r["sigma_min"] for r in rep["levels"]]
    assert all(b < a for a, b in zip(sigmas, sigmas[1:]))
    for r in rep["levels"]:
        n = r["n"]
        assert r["sigma_min"] == pytest.approx(
            oracles.sinc((2 ** n - 1) / 2 ** n) ** 2, abs=1e-6)


def test_strichartz_trivial_system_is_flat_one():
    point = self_affine(triple(2, [0], [0]))
    rep = strichartz_report(point, 3)
    assert all(r["sigma_min"] == pytest.approx(1.0, abs=1e-12)
               for r in rep["levels"])


def test_tail_factor_scan(quarter_cantor_system, lebesgue_system):
    floor = tail_factor_scan(quarter_cantor_system, 4)
    assert floor >= math.cos(math.pi / 6) - 1e-9
    assert floor == pytest.approx(math.cos(math.pi / 6), abs=0.01)
    assert tail_factor_scan(lebesgue_system, 6) < 0.05
    point = self_affine(triple(2, [0], [0]))
    assert tail_factor_scan(point, 3) == 1.0


def test_qp_eval_lattice_lebesgue(lebesgue_system):
    gen = LatticeGenerator([[1]])
    qv = qp_eval(lebesgue_system, gen, 0.5, window=200)
    assert qv.terms == 401
    assert qv.q == pytest.approx(oracles.lebesgue_lattice_q(0.5, 200), abs=1e-9)
    assert qv.q == pytest.approx(1.0, abs=3e-3)


def test_qp_eval_orthogonal_translate(quarter_cantor_system, quarter_cantor):
    gen = CycleSpectrumGenerator(quarter_cantor,
                                 find_extreme_cycles(quarter_cantor, 6))
    lam0 = gen.level(5)[7][0]
    qv = qp_eval(quarter_cantor_system, gen, -lam0, window=5)
    assert qv.q == pytest.approx(1.0, abs=1e-6)


def test_qp_eval_monotone_in_window(quarter_cantor_system, quarter_cantor):
    gen = CycleSpectrumGenerator(quarter_cantor,
                                 find_extreme_cycles(quarter_cantor, 6))
    qs = [qp_eval(quarter_cantor_system, gen, 0.37, window=w).q
          for w in range(1, 9)]
    assert all(b >= a - 1e-15 for a, b in zip(qs, qs[1:]))
    assert qs[-1] == pytest.approx(1.0, abs=1e-2)
    # orthogonality is exact for this generator, so Q never exceeds 1
    assert max(qs) <= 1 + 1e-8


def test_check_spectrum_lebesgue_vs_integers(lebesgue_system):
    rep = check_spectrum(lebesgue_system, LatticeGenerator([[1]]),
                         np.arange(10) / 10, window=200)
    assert rep.passed
    assert rep.min_q >= 0.99 and rep.max_q <= 1 + 1e-4
    assert rep.notes == []  # no shortfall to explain


def test_check_spectrum_bad_word_fails(two_digit_family):
    sys = random_word(two_digit_family, (0,) + (1,) * 20)
    rep = check_spectrum(sys, LatticeGenerator([[1]]),
                         np.array([0.5]), window=200)
    assert not rep.passed
    assert rep.min_q == pytest.approx(oracles.badword_lattice_q(0.5, 200),
                                      abs=1e-6)
    assert rep.min_q < 0.2
    assert len(rep.notes) == 1 and "outside the window" in rep.notes[0]


def test_check_spectrum_point_mass():
    sys = self_affine(triple(2, [0], [0]))
    rep = check_spectrum(sys, ExplicitGenerator([0]), 8, window=1)
    assert rep.min_q == pytest.approx(1.0, abs=1e-12)
    assert rep.max_q == pytest.approx(1.0, abs=1e-12)
    assert rep.notes == []  # the explicit set is summed in full


def test_orthogonality_checks(quarter_cantor_system, quarter_cantor,
                              lebesgue_system):
    gen = CycleSpectrumGenerator(quarter_cantor,
                                 find_extreme_cycles(quarter_cantor, 6))
    assert orthogonality_check(quarter_cantor_system, gen, 5) <= 1e-8
    assert orthogonality_check(lebesgue_system, LatticeGenerator([[1]]), 64) \
        <= 1e-9
    assert orthogonality_check(lebesgue_system, ExplicitGenerator([0]), 1) == 0.0


def test_orthogonality_check_samples_pairs_past_max_pairs(quarter_cantor_system):
    # 13 lattice points make 78 pairs, so max_pairs 4 checks a seeded sample
    # of pairs: its max is |mu^| at one of the differences 1..12, and this
    # seed's sample misses the exhaustive max
    gen = LatticeGenerator(1)
    sampled = orthogonality_check(quarter_cantor_system, gen, 6, max_pairs=4,
                                  seed=1)
    assert sampled == orthogonality_check(quarter_cantor_system, gen, 6,
                                          max_pairs=4, seed=1)
    exact = [oracles.scale4_ft_abs(d) for d in range(1, 13)]
    assert min(abs(sampled - v) for v in exact) <= 1e-9
    assert sampled < orthogonality_check(quarter_cantor_system, gen, 6) - 0.1


def test_transfer_operator_constants(quarter_cantor):
    grid = uniform_grid(64, 1)
    ones = transfer_apply(quarter_cantor, lambda p: np.ones(len(p)), grid)
    assert np.abs(ones - 1).max() < 1e-12
    halves = transfer_apply(quarter_cantor, lambda p: np.full(len(p), 0.5), grid)
    assert np.abs(halves - 0.5).max() < 1e-12


def test_transfer_fixed_point_of_q(quarter_cantor, quarter_cantor_system):
    gen = CycleSpectrumGenerator(quarter_cantor,
                                 find_extreme_cycles(quarter_cantor, 6))
    grid = uniform_grid(64, 1)
    q_fn = make_q_evaluator(quarter_cantor_system, gen, window=8)
    assert np.abs(transfer_apply(quarter_cantor, q_fn, grid) -
                  q_fn(grid)).max() <= 5e-3


def test_level_sets_generator_matches_lambda_n(quarter_cantor_system):
    gen = LevelSetsGenerator(quarter_cantor_system)
    assert gen.level(3).tolist() == [[v[0]] for v in
                                     lambda_n(quarter_cantor_system, 3)]
    # level 0 is Lambda_0 = {0}, as for the cycle spectrum
    assert gen.level(0).tolist() == [[0]]


def test_level_recursion_for_level_sets(quarter_cantor_system, two_digit_family):
    # self-affine and shared-R word systems: Lambda_{n+1} = R^T Lambda_n + L
    word_sys = random_word(two_digit_family, (0, 1, 1, 0, 1))
    for sys in (quarter_cantor_system, word_sys):
        r = sys.triples[0].R.rows[0][0]
        lset = {v[0] for v in sys.triples[0].L.vectors}
        prev = set(lambda_n(sys, 1))
        assert prev == {(l,) for l in lset}
        for n in range(2, 6):
            cur = set(lambda_n(sys, n))
            assert {(r * lam[0] + l,) for lam in prev for l in lset} == cur
            prev = cur
