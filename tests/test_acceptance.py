"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion computes its quantities first, prints a single summary line,
then asserts, so the line appears whether or not the assertion holds. Run
with `pytest tests/test_acceptance.py -v -s` to see every line.

One clause, c07's pass rate >= 0.95, is the only one kept strict against a
reference figure that the measured mathematics does not reach (see the
assertion marked "reference figure"): windowed completeness at lattice
radius 64 cannot certify words whose tiles fragment at scale 2^-20, and
under the repeat-last tail even the exact, window-free rate is 0.785. The
companion assertions pin the oracle-verified values.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from speclab import (CycleSpectrumGenerator, EnsembleConfig, LatticeGenerator,
                     TruncationPolicy, build_fn, build_quasi_product,
                     check_spectrum, counterexample_probe,
                     dynamically_simple_spectrum, ensemble_spectrum_report,
                     find_extreme_cycles, ft_eval, lambda_n,
                     lattice_tiling_check, make_q_evaluator,
                     orthogonality_check, qp_eval, quasi_product_spec,
                     random_word, self_affine, transfer_apply, triple,
                     uniform_grid, verify_hadamard)

import oracles

DEPTH60 = TruncationPolicy(depth=60)


def _line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {status}{suffix}")


def test_c01_hadamard_verification():
    good = [triple(2, [0, 1], [0, 1], require=False),
            triple(2, [0, 3], [0, 1], require=False)]
    bad = triple(2, [0, 1], [0, 2], require=False)
    residuals = [verify_hadamard(t).residual for t in good]
    bad_passed = verify_hadamard(bad).passed
    timings = []
    for t in good + [bad]:
        per_run = []
        for _ in range(5):
            start = time.perf_counter()
            verify_hadamard(t)
            per_run.append(time.perf_counter() - start)
        timings.append(min(per_run))
    ok = (max(residuals) < 1e-10 and not bad_passed and max(timings) < 1e-3)
    _line("hadamard verification", ok,
          f"residuals {residuals[0]:.2e}/{residuals[1]:.2e}, "
          f"bad pass={bad_passed}, slowest {max(timings)*1e6:.0f}us")
    assert max(residuals) < 1e-10
    assert not bad_passed
    assert max(timings) < 1e-3


def test_c02_extreme_cycles_exact():
    cases = [(4, [0, 2], [0, 1], [{Fraction(0)}]),
             (2, [0, 1], [0, 1], [{Fraction(0)}, {Fraction(1)}]),
             (4, [0, 2], [0, 3], [{Fraction(0)}, {Fraction(1)}])]
    start = time.perf_counter()
    results = []
    for r, b, l, _ in cases:
        t = triple(r, b, l)
        results.append(find_extreme_cycles(t, m_max=6))
    elapsed = time.perf_counter() - start
    exact_ok = all(
        [{p[0] for p in c.points} for c in cycles] == expected
        for (r, b, l, expected), cycles in zip(cases, results))
    brute_ok = all(
        {frozenset(p[0] for p in c.points) for c in cycles}
        == oracles.extreme_cycles_bruteforce_1d(r, b, l, 6)
        for (r, b, l, _), cycles in zip(cases, results))
    ok = exact_ok and brute_ok and elapsed < 1.0
    _line("extreme cycles exact", ok,
          f"brute-force match={brute_ok}, search {elapsed*1e3:.0f}ms")
    assert exact_ok
    assert brute_ok
    assert elapsed < 1.0


def test_c03_cycle_spectrum_completeness(quarter_cantor,
                                         quarter_cantor_system):
    start = time.perf_counter()
    gen = CycleSpectrumGenerator(quarter_cantor,
                                 find_extreme_cycles(quarter_cantor, 6))
    rep = check_spectrum(quarter_cantor_system, gen, 64, window=8,
                         pol=DEPTH60)
    elapsed = time.perf_counter() - start
    ok = rep.min_q >= 0.99 and rep.max_q <= 1.0001 and elapsed < 30
    _line("cycle-spectrum completeness", ok,
          f"minQ={rep.min_q:.6f}, maxQ={rep.max_q:.6f}, {elapsed:.2f}s")
    assert rep.min_q >= 0.99
    assert rep.max_q <= 1.0001
    assert elapsed < 30


def test_c04_level_matrix_criterion(quarter_cantor_system, lebesgue_system):
    qc_rows = [build_fn(quarter_cantor_system, n) for n in range(1, 7)]
    tail_floor = min(fn.min_tail_modulus for fn in qc_rows)
    sigma_floor = min(fn.sigma_min for fn in qc_rows)
    oracle_ok = all(
        fn.min_tail_modulus == pytest.approx(
            oracles.scale4_tail_abs((4 ** fn.n - 1) // 3, fn.n), abs=1e-9)
        for fn in qc_rows)
    leb_rows = [build_fn(lebesgue_system, n) for n in range(1, 7)]
    leb_sigmas = [fn.sigma_min for fn in leb_rows]
    leb_ok = all(
        abs(s - oracles.sinc((2 ** n - 1) / 2 ** n) ** 2) < 1e-6
        for n, s in enumerate(leb_sigmas, start=1))
    decreasing = all(b < a for a, b in zip(leb_sigmas, leb_sigmas[1:]))
    ok = (tail_floor >= 0.85 and sigma_floor >= 0.72 and oracle_ok
          and leb_ok and decreasing)
    _line("level-matrix criterion", ok,
          f"tail floor {tail_floor:.4f}, sigma floor {sigma_floor:.4f}, "
          f"flat-case sigma_6 {leb_sigmas[-1]:.2e}")
    assert tail_floor >= 0.85
    assert sigma_floor >= 0.72
    assert oracle_ok
    assert leb_ok and decreasing


def test_c05_orthogonality(quarter_cantor, quarter_cantor_system):
    gen = CycleSpectrumGenerator(quarter_cantor,
                                 find_extreme_cycles(quarter_cantor, 6))
    worst = orthogonality_check(quarter_cantor_system, gen, 5, pol=DEPTH60)
    ok = worst <= 1e-8
    _line("pairwise orthogonality", ok, f"max |mu^| = {worst:.2e}")
    assert worst <= 1e-8


def test_c06_counterexample_probe(two_digit_family):
    rep = counterexample_probe(two_digit_family, (0,) + (1,) * 19,
                               LatticeGenerator([[1]]), [0.5], window=200,
                               pol=DEPTH60)
    q = rep.rows[0].q
    closed = oracles.badword_lattice_q(0.5, 200)
    ok = (0.08 <= q <= 0.13 and abs(q - closed) < 5e-4
          and rep.verdict == "NonSpectralEvidence")
    _line("non-spectral word probe", ok,
          f"Q(1/2)={q:.5f}, closed form {closed:.5f}, verdict {rep.verdict}")
    assert 0.08 <= q <= 0.13
    assert q == pytest.approx(closed, abs=5e-4)  # 3-decimal agreement
    assert rep.verdict == "NonSpectralEvidence"


def test_c07_ensemble_spectrality(two_digit_family):
    start = time.perf_counter()
    cfg = EnsembleConfig(triples=two_digit_family,
                         generator=LatticeGenerator([[1]]),
                         word_length=20, samples=200, seed=7, grid=32,
                         window=64)
    rep = ensemble_spectrum_report(cfg)
    elapsed = time.perf_counter() - start
    flat = counterexample_probe(two_digit_family, (0,) * 20,
                                LatticeGenerator([[1]]),
                                np.arange(32) / 32, window=64)
    flat_min_q = min(r.q for r in flat.rows)
    ok = (rep.pass_fraction >= 0.95 and flat_min_q >= 0.995 and elapsed < 300)
    _line("ensemble spectrality rate", ok,
          f"pass fraction {rep.pass_fraction:.3f}, flat-word minQ "
          f"{flat_min_q:.4f}, {elapsed:.1f}s")
    assert flat_min_q >= 0.995
    assert elapsed < 300
    # Reference figure: rate >= 0.95 at window 64, length 20. The measured
    # rate is far lower because a lattice window of radius 64 cannot see
    # completeness mass at frequencies ~ 2^20 where these tiles fragment;
    # orthogonality (max Q <= 1) holds for every sampled word.
    assert all(v.max_q <= 1 + 1e-4 for v in rep.verdicts)
    assert rep.pass_fraction >= 0.95, (
        f"measured pass fraction {rep.pass_fraction:.3f} at window 64; "
        "the stated rate is unreachable at this window/word-length pairing")


def test_c08_tiling_checks(two_digit_family, quarter_cantor_system):
    failures = []
    for k in range(100):
        rng = np.random.default_rng([11, k])
        word = tuple(int(x) for x in rng.integers(0, 2, size=20))
        rep = lattice_tiling_check(random_word(two_digit_family, word), 1.0,
                                   window=64)
        if not rep.passed:
            failures.append(word)
    singular = lattice_tiling_check(quarter_cantor_system, 1.0, window=64)
    mu_at_1 = abs(ft_eval(quarter_cantor_system, 1.0, DEPTH60).value)
    mu_at_2 = abs(ft_eval(quarter_cantor_system, 2.0, DEPTH60).value)
    radius1 = lattice_tiling_check(quarter_cantor_system, 1.0, window=1)
    radius2 = lattice_tiling_check(quarter_cantor_system, 1.0, window=2)
    first_witness = (radius1.passed and not radius2.passed
                     and abs(radius2.worst_point[0]) == 2)
    ok = not failures and not singular.passed and first_witness
    _line("lattice tiling", ok,
          f"{100 - len(failures)}/100 words pass, singular fails with "
          f"|mu^({singular.worst_point[0]:.0f})|={singular.max_offlattice_mass:.4f}, "
          f"|mu^(1)|={mu_at_1:.2e}")
    assert not failures
    assert not singular.passed
    # oracle-verified witness: the failure sits at n = +-2, and mu^(1) is an
    # exact zero of the first factor
    assert mu_at_2 == pytest.approx(oracles.scale4_ft_abs(2.0), abs=1e-9)
    assert singular.max_offlattice_mass == pytest.approx(0.6926289, abs=1e-6)
    assert mu_at_1 < 1e-12
    # where the failure is witnessed: mu^(+-1) are exact zeros (the first
    # factor is cos(pi/2)), so the check passes at lattice radius 1 and the
    # first witness appears at radius 2, at n = +-2
    assert first_witness


def test_c09_randomized_quasi_products():
    inner_pools = {
        (2, (0, 1)): [[0, 1], [0, 3], [0, 5]],
        (3, (0, 1, 2)): [[0, 1, 2], [0, 1, 5], [0, 4, 2]],
        (4, (0, 1)): [[0, 2], [0, 6]],
    }
    outer_pool = [(2, [0, 1], [0, 1]), (2, [0, 3], [0, 1]),
                  (3, [0, 1, 2], [0, 1, 2]), (4, [0, 2], [0, 1]),
                  (5, [0], [0])]
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(100):
        r1, a, l1 = outer_pool[rng.integers(0, len(outer_pool))]
        (r, l), pool = list(inner_pools.items())[rng.integers(0, len(inner_pools))]
        b_family = [pool[rng.integers(0, len(pool))] for _ in range(len(a))]
        c = int(rng.integers(-2, 3))
        spec = quasi_product_spec(r1, a, l1, r, b_family, list(l), c=[[c]])
        worst = max(worst, build_quasi_product(spec).residual)
    ok = worst < 1e-9
    _line("randomized quasi-products", ok, f"worst residual {worst:.2e}")
    assert worst < 1e-9


def test_c10_transfer_fixed_point(quarter_cantor, quarter_cantor_system):
    grid = uniform_grid(64, 1)
    ones = transfer_apply(quarter_cantor, lambda p: np.ones(len(p)), grid)
    one_err = float(np.abs(ones - 1).max())
    gen = CycleSpectrumGenerator(quarter_cantor,
                                 find_extreme_cycles(quarter_cantor, 6))
    q_fn = make_q_evaluator(quarter_cantor_system, gen, window=8, pol=DEPTH60)
    fixed_err = float(np.abs(transfer_apply(quarter_cantor, q_fn, grid)
                             - q_fn(grid)).max())
    ok = one_err <= 1e-12 and fixed_err <= 5e-3
    _line("transfer-operator fixed point", ok,
          f"|R1-1|={one_err:.2e}, |RQ-Q|={fixed_err:.2e}")
    assert one_err <= 1e-12
    assert fixed_err <= 5e-3


def test_c11_invariance_suite(quarter_cantor, lebesgue_triple,
                              quarter_cantor_system, lebesgue_system,
                              two_digit_family):
    recursion_ok = True
    nesting_ok = True
    for t, sys in [(quarter_cantor, quarter_cantor_system),
                   (lebesgue_triple, lebesgue_system)]:
        r = t.R.rows[0][0]
        lset = [v[0] for v in t.L.vectors]
        cycles = find_extreme_cycles(t, 6)
        prev_len = None
        for n in range(0, 5):
            cur = {p[0] for p in dynamically_simple_spectrum(t, cycles, n)}
            nxt = {p[0] for p in dynamically_simple_spectrum(t, cycles, n + 1)}
            recursion_ok &= nxt == {r * lam + l for lam in cur for l in lset}
            nesting_ok &= cur <= nxt
        prev = set(lambda_n(sys, 1))
        for n in range(2, 6):
            cur = set(lambda_n(sys, n))
            recursion_ok &= cur == {(r * lam[0] + l,) for lam in prev
                                    for l in lset}
            nesting_ok &= prev <= cur
            prev = cur
    # sigma(F_n) against the dense F = D U the oracle builds in exact phases
    diag_err = unitary_err = 0.0
    word_levels = [(2, [0, 1]), (2, [0, 3]), (2, [0, 3]), (2, [0, 1])]
    for sys, levels in ((quarter_cantor_system, [(4, [0, 2])] * 4),
                        (lebesgue_system, [(2, [0, 1])] * 4),
                        (random_word(two_digit_family, (0, 1, 1, 0)),
                         word_levels)):
        for n in (2, 4):
            fn = build_fn(sys, n)
            dense, u_err = oracles.dense_fn_sigmas(levels[:n], fn.lambdas,
                                                   fn.tail_moduli)
            diag_err = max(diag_err, float(np.abs(fn.sigmas - dense).max()))
            unitary_err = max(unitary_err, u_err)
    ok = (recursion_ok and nesting_ok and diag_err < 1e-8
          and unitary_err < 1e-10)
    _line("invariance suite", ok,
          f"recursion={recursion_ok}, nesting={nesting_ok}, "
          f"diagonal error {diag_err:.2e}, unitarity error {unitary_err:.2e}")
    assert recursion_ok
    assert nesting_ok
    assert diag_err < 1e-8
    assert unitary_err < 1e-10
