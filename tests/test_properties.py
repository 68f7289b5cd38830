"""Property tests of the level sequence, the certified tail bound and the
level-matrix spectrum."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from speclab import (TruncationPolicy, build_fn, ft_eval_many,
                     general_product, periodic_word, random_word, self_affine,
                     triple)

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
