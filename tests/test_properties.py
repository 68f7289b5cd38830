"""Property tests of the level sequence, the certified tail bound, the
level-matrix spectrum, the exact inverse and the level table behind the
transform, Parseval and the completeness functional."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from speclab import (LatticeGenerator, LevelSetsGenerator, NonIntegerElement,
                     SingularMatrix, TruncationPolicy, as_int_matrix,
                     build_fn, build_quasi_product, det,
                     dynamically_simple_spectrum, find_extreme_cycles,
                     ft_eval_many, general_product, hadamard_matrix,
                     periodic_word, qp_eval, quasi_product_spec, random_word,
                     self_affine, triple)
from speclab.levels import _atom_count, lambda_word_values
from speclab.linalg import _faddeev_leverrier, charpoly, inverse, inverse_float
from speclab.measures import _exact_atoms
from speclab.triples import DigitSet, mask_eval_many, parseval_defect

import oracles

FAMILY = (triple(2, [0, 1], [0, 1]), triple(2, [0, 3], [0, 1]),
          triple(2, [0, 5], [0, 1]))
# eigenvalues +-sqrt(2) but ||(R^T)^{-1}||_2 = 1: contracts only in two steps
MULTI_STEP = triple([[0, 2], [1, 0]], [(0, 0), (1, 0)], [(0, 0), (0, 1)])

words = st.lists(st.integers(0, len(FAMILY) - 1), min_size=1, max_size=6)
tails = st.sampled_from(["repeat_last", "finite"])


def _system(kind, n_triples, word, tail):
    fam = FAMILY[:n_triples]
    if kind == "self_affine":
        return self_affine(fam[0])
    if kind == "periodic":
        return periodic_word(fam, word)
    if kind == "random_word":
        return random_word(fam, word, tail=tail)
    return general_product(fam, tail=tail)


@given(kind=st.sampled_from(["self_affine", "periodic", "random_word",
                             "general"]),
       word=words, tail=tails, data=st.data())
def test_triple_at_matches_four_kind_rules(kind, word, tail, data):
    n_triples = 1 if kind == "self_affine" else max(word) + 1
    sys = _system(kind, n_triples, word, tail)
    length = len(word) if kind in ("periodic", "random_word") else n_triples
    ks = data.draw(st.lists(st.integers(1, 3 * length + 3), min_size=1,
                            max_size=8))
    for k in ks:
        ref = oracles.level_letter_reference(kind, n_triples, word, tail, k)
        got = sys.triple_at(k)
        assert got is (None if ref is None else FAMILY[ref])
    ends = [k for k in range(1, 3 * length + 4)
            if oracles.level_letter_reference(kind, n_triples, word, tail, k)
            is None]
    assert sys.finite_length == (ends[0] - 1 if ends else None)


def _assert_tail_bound_sound(sys, pts):
    """The value at the chosen depth is within its bound of a deeper one."""
    for x in pts:
        vals, bounds = ft_eval_many(sys, [x])
        depth = sys.depth_for(float(np.linalg.norm(x)), TruncationPolicy())
        deep, _ = ft_eval_many(sys, [x], TruncationPolicy(depth=depth + 30))
        # 1e-14 covers rounding in the 30 extra factors, which the bound omits
        assert abs(vals[0] - deep[0]) <= bounds[0] + 1e-14


@given(word=words, tail=tails,
       xs=st.lists(st.floats(-300, 300), min_size=1, max_size=4))
def test_tail_bound_sound_on_random_words(word, tail, xs):
    _assert_tail_bound_sound(random_word(FAMILY, word, tail=tail), xs)


@given(pts=st.lists(st.tuples(st.floats(-60, 60), st.floats(-60, 60)),
                    min_size=1, max_size=4))
def test_tail_bound_sound_for_multi_step_scaling(pts):
    _assert_tail_bound_sound(self_affine(MULTI_STEP), np.array(pts))


@given(word=st.lists(st.integers(0, 1), min_size=1, max_size=8),
       n=st.integers(1, 6))
def test_fn_sigmas_match_dense_oracle(word, n):
    """sigma(F_n) read off the tail moduli equals eigvalsh of the dense F."""
    fn = build_fn(random_word(FAMILY[:2], word), n)
    digits = ([0, 1], [0, 3])
    levels = [(2, digits[oracles.level_letter_reference(
        "random_word", 2, word, "repeat_last", k)]) for k in range(1, n + 1)]
    dense, unitary_err = oracles.dense_fn_sigmas(levels, fn.lambdas,
                                                 fn.tail_moduli)
    assert unitary_err < 1e-10
    assert np.abs(fn.sigmas - dense).max() < 1e-8


# -- the level table and the kernel it feeds --------------------------------

MIXED = (triple(2, [0, 1], [0, 1]), triple(2, [0, 3], [0, 1]),
         triple(3, [0, 1, 2], [0, 1, 2]), triple(3, [0, 1, 5], [0, 1, 2]),
         triple(4, [0, 2], [0, 1]), triple(4, [0, 1, 2, 3], [0, 1, 2, 3]))
MIXED_2D = (triple([[2, 0], [0, 2]], [(0, 0), (1, 0), (0, 1), (1, 1)],
                   [(0, 0), (1, 0), (0, 1), (1, 1)]),
            MULTI_STEP,
            triple([[3, 1], [0, 2]], [(i, j) for i in range(3) for j in range(2)],
                   [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]))
mixed_seqs = st.lists(st.integers(0, len(MIXED) - 1), min_size=1, max_size=30)


def _digit_sets(d):
    """Up to 16 distinct digits of R^d with 0 at any position."""
    entries = st.integers(-8, 8) if d == 1 else st.integers(-4, 4)
    nonzero = st.tuples(*[entries] * d).filter(any)
    return st.lists(nonzero, max_size=15, unique=True).flatmap(
        lambda bs: st.integers(0, len(bs)).map(
            lambda i: [*bs[:i], (0,) * d, *bs[i:]]))


@given(data=st.data(), d=st.sampled_from([1, 2]))
def test_mask_kernel_matches_per_point_sum(data, d):
    """One exp per nonzero digit agrees with a per-point cmath sum, and with
    two digits in 1-D it is bit for bit the one-exp-and-mean formula it
    replaced (in 2-D the phase <b, x> is a matrix-vector product, which
    numpy may round differently from the matrix product's). The exact digit
    norm is bit for bit the numpy norm it replaced."""
    digits = data.draw(_digit_sets(d))
    assert DigitSet.of(digits).max_norm == float(
        np.linalg.norm(np.array(digits, dtype=float), axis=1).max())
    xs = np.array(data.draw(st.lists(
        st.tuples(*[st.floats(-1, 1)] * d), min_size=1, max_size=8)))
    got = mask_eval_many(DigitSet.of(digits), xs)
    assert got.shape == (len(xs),) and got.dtype == complex
    ref = [oracles.mask_reference(digits, x) for x in xs]
    assert np.abs(got - ref).max() <= 1e-14
    if len(digits) == 2 and d == 1:
        assert got.tobytes() == oracles.mask_mean_formula(digits, xs).tobytes()


@given(words=st.lists(st.integers(0, len(FAMILY) - 1), min_size=1,
                      max_size=8).flatmap(lambda w: st.tuples(
                          st.just(w), st.permutations(w))),
       tail=tails, seq=mixed_seqs.filter(lambda s: len({MIXED[i].R for i in s}) > 1))
def test_words_of_one_family_share_one_level_table(words, tail, seq):
    """Every word of a family of one R reads one exact table, the oracle's;
    a sequence of mixed R's has a table of its own."""
    a, b = (random_word(FAMILY, w, tail=tail) for w in words)
    mixed = general_product([MIXED[i] for i in seq])
    assert a._caches is b._caches
    assert mixed._caches is not a._caches
    n = len(words[0]) + 2
    levels = [2] * (n if tail == "repeat_last" else len(words[0]))
    levels += [None] * (n - len(levels))
    exact = oracles.cumulative_inverses([r for r in levels if r is not None])
    exact += exact[-1:] * (n - len(exact))
    table = a._level_table(n)
    assert b._level_table(n) == table
    assert [[[Fraction(x, den) for x in row] for row in num.rows]
            for num, den in table] == exact
    assert np.shares_memory(a.cumulative_inverse(n), b.cumulative_inverse(n))


def _int_matrix(t):
    return [list(row) for row in t.R.rows]


@given(seq=mixed_seqs, two_d=st.booleans())
def test_level_table_matches_fraction_products(seq, two_d):
    """Every float entry of (R_k...R_1)^{-1} is its exact value rounded once."""
    pool = MIXED_2D if two_d else MIXED
    levels = [pool[i % len(pool)] for i in seq]
    sys = general_product(levels)
    exact = oracles.cumulative_inverses([_int_matrix(t) for t in levels])
    table = sys.cumulative_inverse(len(levels))
    assert table.shape == (len(levels), sys.dim, sys.dim)
    assert table.tolist() == [[[float(x) for x in row] for row in c]
                              for c in exact]
    assert [[[Fraction(x, den) for x in row] for row in num.rows]
            for num, den in sys._level_table(len(levels))] == exact


@given(seq=mixed_seqs.filter(lambda s: len(s) <= 4), two_d=st.booleans(),
       tail=tails, n=st.integers(1, 5))
def test_lambda_words_match_bruteforce_oracle(seq, two_d, tail, n):
    """Lambda_n in digit-word order is sum_k P_k l_k over every digit word,
    past either tail, and the atom count is the enumerator's length."""
    pool = MIXED_2D if two_d else MIXED
    levels = [pool[i % len(pool)] for i in seq]
    sys = general_product(levels, tail=tail)
    letters = [oracles.level_letter_reference("general", len(levels), None,
                                              tail, k) for k in range(1, n + 1)]
    words = lambda_word_values(sys, n)
    assert words == oracles.lambda_words([
        None if i is None else (_int_matrix(levels[i]), levels[i].L.vectors)
        for i in letters])
    assert _atom_count(sys, n) == len(words)
    # the level-sets generator serves the distinct sums, sorted
    assert LevelSetsGenerator(sys).level(n).tolist() == [
        list(map(float, v)) for v in sorted(set(words))]


# 1-D and 2-D triples with 1 to 7 extreme cycles; (2, {0,3}, {0,7}) also
# has cycles through non-integer points
CYCLE_POOL = (triple(4, [0, 2], [0, 1]), triple(2, [0, 3], [0, 7]),
              triple(3, [0, 1, 2], [0, 1, 2]), triple(4, [0, 2], [0, 3]),
              MIXED_2D[0], MULTI_STEP,
              build_quasi_product(quasi_product_spec(
                  2, [0, 1], [0, 1], 2, [[0, 1], [0, 3]], [0, 1])))
POOL_CYCLES = [find_extreme_cycles(t, 6 if t.dim == 1 else 3)
               for t in CYCLE_POOL]


@given(i=st.integers(0, len(CYCLE_POOL) - 1),
       keep=st.sets(st.integers(0, 6), min_size=1), n=st.integers(0, 5))
def test_cycle_spectrum_matches_horner_oracle(i, keep, n):
    """The cycle spectrum at level n is Lambda_n + (R^T)^n S_0, the set the
    Horner loop S -> R^T S + L reaches from S_0 = {-c : c cycle point}."""
    t = CYCLE_POOL[i]
    cycles = [c for k, c in enumerate(POOL_CYCLES[i]) if k in keep] \
        or POOL_CYCLES[i][:1]
    points = [p for c in cycles for p in c.points]
    if any(x.denominator != 1 for p in points for x in p):
        with pytest.raises(NonIntegerElement):
            dynamically_simple_spectrum(t, cycles, n)
        return
    assert dynamically_simple_spectrum(t, cycles, n) == \
        oracles.cycle_spectrum_horner(_int_matrix(t), t.L.vectors, points, n)


@given(seq=st.lists(st.integers(0, len(MIXED) - 1), min_size=1, max_size=4),
       two_d=st.booleans())
def test_exact_atoms_are_fraction_sums_rounded_once(seq, two_d):
    """Level-n atoms over the table's common denominator are the Fraction
    sums sum_k C_k b_k, and each float is that Fraction rounded once."""
    pool = MIXED_2D if two_d else MIXED
    levels = [pool[i % len(pool)] for i in seq]
    cums = oracles.cumulative_inverses([_int_matrix(t) for t in levels])
    exact = [tuple(sum(c[i][j] * b[j] for c, b in zip(cums, digits)
                       for j in range(len(b))) for i in range(levels[0].dim))
             for digits in itertools.product(*(t.B.vectors for t in levels))]
    nums, floats = _exact_atoms(general_product(levels), len(levels))
    den = abs(math.prod(det(t.R) for t in levels))
    assert [tuple(Fraction(x, den) for x in v) for v in nums] == exact
    assert [float(x).hex() for v in exact for x in v] == [
        x.hex() for x in floats.ravel().tolist()]


@given(m=st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.integers(-9, 9), min_size=d, max_size=d),
    min_size=d, max_size=d)))
def test_inverse_is_exact_adjugate_over_determinant(m):
    """M adj(M) = det(M) I exactly; the float view rounds each entry once."""
    im = as_int_matrix(m)
    if det(im) == 0:
        with pytest.raises(SingularMatrix):
            inverse(im)
        return
    adj, d = inverse(im)
    assert d == det(im)
    assert (im @ adj).rows == tuple(tuple(d * (i == j) for j in range(im.dim))
                                    for i in range(im.dim))
    assert inverse_float(im).tolist() == [[float(Fraction(x, d)) for x in row]
                                          for row in adj.rows]


@example(m=[[0]], repeat=False)
@given(m=st.integers(1, 5).flatmap(lambda d: st.lists(
    st.lists(st.integers(-9, 9), min_size=d, max_size=d),
    min_size=d, max_size=d)), repeat=st.booleans())
def test_one_pass_matches_bareiss_and_cofactor_oracles(m, repeat):
    """The Faddeev-LeVerrier pass gives the Bareiss determinant and the
    cofactor adjugate exactly, singular M included (a repeated row), and its
    polynomial p has p(M) = 0 exactly (Cayley-Hamilton)."""
    if repeat and len(m) > 1:
        m = [*m[:-1], m[0]]
    im, n = as_int_matrix(m), len(m)
    p, adj = _faddeev_leverrier(im)
    dt = oracles.bareiss_det(m)
    assert p == charpoly(im) and p[-1] == 1 and len(p) == n + 1
    assert det(im) == dt == (-1) ** n * p[0]
    assert [list(row) for row in adj.rows] == oracles.cofactor_adjugate(m)
    if dt == 0:
        with pytest.raises(SingularMatrix):
            inverse(im)
    else:
        assert inverse(im) == (adj, dt)
    value = [[0] * n for _ in range(n)]
    for c in reversed(p):  # Horner: value <- value M + c I
        value = [[sum(value[i][k] * m[k][j] for k in range(n)) + c * (i == j)
                  for j in range(n)] for i in range(n)]
    assert value == [[0] * n for _ in range(n)]


@given(seq=mixed_seqs.filter(lambda s: len(s) <= 10),
       xs=st.lists(st.floats(-50, 50), min_size=1, max_size=6))
def test_ft_matches_per_level_product(seq, xs):
    levels = [MIXED[i] for i in seq]
    vals, bounds = ft_eval_many(general_product(levels), xs)
    plain = [(t.R.rows[0][0], [b[0] for b in t.B.vectors]) for t in levels]
    assert not bounds.any()  # a finite product has no tail
    for v, x in zip(vals, xs):
        assert abs(v - oracles.level_product_ft(plain, x)) <= 1e-12


# -- Parseval and the completeness functional --------------------------------

def _scaled_triple(n, m, b):
    """(N m, b {0..N-1}, m {0..N-1}): Hadamard whenever gcd(b, N) = 1."""
    return n * m, [b * j for j in range(n)], [m * j for j in range(n)]


coprime = st.tuples(st.integers(2, 5), st.integers(1, 3),
                    st.integers(1, 7)).filter(lambda p: math.gcd(p[2], p[0]) == 1)


scaled = st.tuples(st.integers(2, 5), st.integers(1, 3), st.integers(1, 7))


@example(p=(2, 1, 2), q=(2, 1, 1), shear=0, flip=False)  # R=2, B={0,2}: fails
@given(p=scaled, q=scaled, shear=st.integers(-3, 3), flip=st.booleans())
def test_residual_matches_direct_h(p, q, shear, flip):
    """H and its residual from exact phases equal H and |H*H - I| from a
    float inverse.

    Triples with gcd(b, N) > 1, and most sheared ones, are not Hadamard, so
    failing residuals are compared too. The residual alone cannot see the
    sign of det R (conj(H) is unitary with H), so H is compared as well.
    """
    (r1, b1, l1), (r2, b2, l2) = _scaled_triple(*p), _scaled_triple(*q)
    r1 = -r1 if flip else r1
    cases = ((r1, b1, l1),
             ([[r1, shear], [0, r2]], [(x, y) for x in b1 for y in b2],
              [(x, y) for x in l1 for y in l2]))
    for r, b, l in cases:
        t = triple(r, b, l, require=False)
        assert abs(t.residual - oracles.unitary_residual(r, b, l)) <= 1e-14
        assert np.abs(hadamard_matrix(t)
                      - oracles.direct_hadamard(r, b, l)).max() <= 1e-12
    one = triple(*cases[0], require=False)
    assert (one.status == "verified") == (math.gcd(p[2], p[0]) == 1)


@given(p=coprime, q=coprime,
       xs=st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                   min_size=1, max_size=4))
def test_parseval_on_generated_triples(p, q, xs):
    (r1, b1, l1), (r2, b2, l2) = _scaled_triple(*p), _scaled_triple(*q)
    one = triple(r1, b1, l1)
    prod = triple([[r1, 0], [0, r2]], [(x, y) for x in b1 for y in b2],
                  [(x, y) for x in l1 for y in l2])
    for x, y in xs:
        assert parseval_defect(one, x) <= 1e-12
        assert parseval_defect(prod, (x, y)) <= 1e-12


@given(word=words, x=st.floats(0, 1, exclude_max=True),
       windows=st.tuples(st.integers(0, 12), st.integers(0, 12)))
def test_q_bounded_and_monotone_in_window(word, x, windows):
    sys = random_word(FAMILY, word)
    gen = LatticeGenerator([[1]])
    small, large = (qp_eval(sys, gen, x, window=w) for w in sorted(windows))
    for q in (small, large):
        assert q.q <= 1 + q.q_bound + 1e-12
    assert large.q >= small.q
