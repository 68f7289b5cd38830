"""Exact level data of an infinite convolution measure.

A measure is the level sequence of Hadamard triples that generates it. Its
level data are integers: the level table (R_k...R_1)^{-1} = N_k / D_k, the
level-word sums of the atoms and the frequency levels Lambda_n +
R_1^T...R_n^T S, one construction for Lambda_n = L_1 + R_1^T L_2 + ...
(S = {0}) and the cycle spectrum (S = -cycles). This module computes them
on plain integer tuples and loads no numpy; only the float views
(`cumulative_inverse`, the norm series) import it when first called.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from operator import add
from typing import TYPE_CHECKING, Sequence

from .errors import DimensionMismatch, InvalidInput
from .linalg import IntMatrix, identity, inv_transpose_series, inverse
from .triples import HadamardTriple

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TARGET = 1e-10
DEFAULT_MAX_DEPTH = 200


@dataclass(frozen=True)
class TruncationPolicy:
    """Either a fixed product depth or a target tail error with a cap."""

    depth: int | None = None
    target_error: float = DEFAULT_TARGET
    max_depth: int = DEFAULT_MAX_DEPTH


DEFAULT_POLICY = TruncationPolicy()


@dataclass
class ConvolutionSystem:
    """Level sequence of verified Hadamard triples defining one measure.

    kind: "self_affine" | "periodic" | "random_word" | "general"
    word: the letters of periodic and random_word
    tail: "repeat_last" | "finite" (what happens beyond the explicit data) of
        random_word ("repeat_last" by default) and general ("finite")
    Which fields each kind takes is decided here alone: a field its kind
    cannot use raises InvalidInput rather than being ignored.

    Every kind is one level sequence: the letters (indices into `triples`)
    of an explicit prefix, then a period repeated forever, empty when the
    sequence is finite. self_affine is ((), (0,)), periodic ((), word),
    repeat_last (seq[:-1], seq[-1:]) and finite (seq, ()), with seq the
    word or, for general, the triples in order.
    """

    kind: str
    triples: tuple[HadamardTriple, ...]
    word: tuple[int, ...] | None = None
    tail: str | None = None
    _caches: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("self_affine", "periodic", "random_word", "general"):
            raise InvalidInput(f"unknown system kind {self.kind!r}")
        if self.kind in ("self_affine", "general") and self.word is not None:
            raise InvalidInput(f"{self.kind} system takes no 'word' field")
        if self.kind in ("self_affine", "periodic") and self.tail is not None:
            raise InvalidInput(f"{self.kind} system takes no 'tail' field")
        if self.tail is None:
            self.tail = "finite" if self.kind == "general" else "repeat_last"
        if self.tail not in ("repeat_last", "finite"):
            raise InvalidInput(f"unknown tail convention {self.tail!r}")
        if not self.triples:
            raise InvalidInput("need at least one triple")
        for t in self.triples:
            t.require_verified()
        d = self.triples[0].dim
        if any(t.dim != d for t in self.triples):
            raise InvalidInput("triples have mixed dimensions")
        if self.kind in ("periodic", "random_word"):
            if not self.word:
                raise InvalidInput(f"{self.kind} system needs a digit word")
            if any(not 0 <= w < len(self.triples) for w in self.word):
                raise InvalidInput("word digits out of range")
        if self.kind == "random_word":
            r0, l0, m0 = self.triples[0].R, self.triples[0].L, len(self.triples[0].B)
            for t in self.triples[1:]:
                if t.R != r0 or t.L != l0 or len(t.B) != m0:
                    raise InvalidInput(
                        "random-word triples must share R, L, and digit count")
        if self.kind == "self_affine":
            if len(self.triples) != 1:
                raise InvalidInput("self-affine system takes exactly one triple")
            self._letters = ((), (0,))
        elif self.kind == "periodic":
            self._letters = ((), tuple(self.word))
        else:
            seq = (tuple(self.word) if self.kind == "random_word"
                   else tuple(range(len(self.triples))))
            self._letters = ((seq, ()) if self.tail == "finite"
                             else (seq[:-1], seq[-1:]))
        # one table per R sequence, shared by every word of a random-word family
        self._caches = _shared_caches(
            tuple(t.R for t in self.prefix), tuple(t.R for t in self.period),
            frozenset(t.R for t in self.triples))

    # -- level structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.triples[0].dim

    @property
    def prefix(self) -> tuple[HadamardTriple, ...]:
        """Triples of the explicit levels before the period."""
        return tuple(self.triples[i] for i in self._letters[0])

    @property
    def period(self) -> tuple[HadamardTriple, ...]:
        """Triples repeated forever after the prefix; empty if finite."""
        return tuple(self.triples[i] for i in self._letters[1])

    @property
    def explicit_length(self) -> int:
        return len(self._letters[0]) + len(self._letters[1])

    @property
    def finite_length(self) -> int | None:
        """Total level count for finite-tail systems, else None."""
        prefix, period = self._letters
        return None if period else len(prefix)

    def letter_at(self, k: int) -> int | None:
        """Index into `triples` of level k >= 1; None past a finite tail."""
        if k < 1:
            raise InvalidInput("levels are 1-indexed")
        prefix, period = self._letters
        if k <= len(prefix):
            return prefix[k - 1]
        if not period:
            return None
        return period[(k - 1 - len(prefix)) % len(period)]

    def triple_at(self, k: int) -> HadamardTriple | None:
        """Triple generating level k >= 1; None past a finite tail."""
        i = self.letter_at(k)
        return None if i is None else self.triples[i]

    def distinct_triples(self) -> list[HadamardTriple]:
        seen: list[HadamardTriple] = []
        for t in self.triples:
            if not any(t is s for s in seen):
                seen.append(t)
        return seen

    @property
    def max_digit_norm(self) -> float:
        return max(t.B.max_norm for t in self.distinct_triples())

    # -- contraction machinery --------------------------------------------

    def tail_norm_sum(self, k: int) -> float:
        """Upper bound on sum_{j>k} ||(R_j...R_1)^{-T}||_2."""
        fin = self.finite_length
        if fin is not None and k >= fin:
            return 0.0
        if "series" not in self._caches:
            self._caches["series"] = inv_transpose_series(
                t.R for t in self.distinct_triples())
        return self._caches["series"].tail(k)

    def depth_for(self, max_xi_norm: float, pol: TruncationPolicy) -> int:
        """Product depth meeting the policy for |xi| <= max_xi_norm.

        Always covers the explicit prefix and one period (truncating earlier
        would still be sound, the bound holds for any digit choice, but the
        value would ignore specified levels).
        """
        lo = min(self.explicit_length, pol.max_depth)
        if pol.depth is not None:
            k = max(pol.depth, lo)
        else:
            amp = 2.0 * math.pi * self.max_digit_norm * max(max_xi_norm, 0.0)
            k = lo
            while k < pol.max_depth and amp * self.tail_norm_sum(k) > pol.target_error:
                k += 1
        fin = self.finite_length
        if fin is not None:
            k = min(k, fin)
        return max(k, 1)

    def _level_table(self, upto: int) -> list[tuple[IntMatrix, int]]:
        """C_k = (R_k...R_1)^{-1} = N_k / D_k, k = 1..upto, as (N_k, D_k).

        The one place C_k is built: C_k = C_{k-1} adj(R_k) / det(R_k) keeps
        N_k and D_k integers, and C_k = C_{k-1} past a finite tail.
        """
        table = self._caches.get("levels", [])
        if len(table) < upto:
            table = list(table)  # stored whole: sharers never see it half built
            num, den = table[-1] if table else (identity(self.dim), 1)
            for k in range(len(table) + 1, upto + 1):
                if (t := self.triple_at(k)) is not None:
                    adj, det_r = inverse(t.R)
                    num, den = num @ adj, den * det_r
                table.append((num, den))
            self._caches["levels"] = table
        return table[:upto]

    def cumulative_inverse(self, upto: int) -> np.ndarray:
        """(R_k...R_1)^{-1} for k = 1..upto, shape (upto, d, d), each entry
        its exact value rounded once: no rounding compounds across levels."""
        import numpy as np
        flt = self._caches.get("levels_float", np.empty((0, self.dim, self.dim)))
        if len(flt) < upto:
            rows = [[[x / den for x in row] for row in num.rows]
                    for num, den in self._level_table(upto)]
            flt = np.array(rows, dtype=float).reshape(-1, self.dim, self.dim)
            flt.flags.writeable = False  # shared by every system of these R's
            self._caches["levels_float"] = flt
        return flt[:upto]


# one cache per (prefix R's, period R's, family R's), bounded
_shared_caches = functools.lru_cache(maxsize=64)(lambda *rs: {})


# -- factories --------------------------------------------------------------


def self_affine(t: HadamardTriple) -> ConvolutionSystem:
    return ConvolutionSystem("self_affine", (t,))


def periodic_word(triples: Sequence[HadamardTriple], word: Sequence[int]) -> ConvolutionSystem:
    return ConvolutionSystem("periodic", tuple(triples), tuple(word))


def random_word(triples: Sequence[HadamardTriple], word: Sequence[int],
                tail: str | None = None) -> ConvolutionSystem:
    return ConvolutionSystem("random_word", tuple(triples), tuple(word), tail)


def general_product(triples: Sequence[HadamardTriple],
                    tail: str | None = None) -> ConvolutionSystem:
    return ConvolutionSystem("general", tuple(triples), None, tail)


# -- level words --------------------------------------------------------------


def level_word_sums(sys: ConvolutionSystem, n: int, options) -> list[tuple[int, ...]]:
    """Every sum o_1 + ... + o_n over levels 1..n, in digit-word order.

    options(k, t) gives the per-digit integer vectors o_k of level k's
    triple t; level 1 is the outermost index, and a level past a finite tail
    has the single option 0.
    """
    acc = [(0,) * sys.dim]
    for k in range(1, n + 1):
        t = sys.triple_at(k)
        if t is not None:
            opts = options(k, t)
            acc = [tuple(map(add, a, o)) for a in acc for o in opts]
    return acc


def _atom_count(sys: ConvolutionSystem, n: int) -> int:
    return math.prod(1 if t is None else len(t.B)
                     for t in map(sys.triple_at, range(1, n + 1)))


def lambda_word_values(sys: ConvolutionSystem, n: int) -> list[tuple[int, ...]]:
    """Lambda_n elements in digit-word order (with any collisions kept)."""
    cum = [identity(sys.dim)]  # P_k = R_1^T ... R_{k-1}^T, exact
    for k in range(1, n):
        t = sys.triple_at(k)
        cum.append(cum[-1] if t is None else cum[-1] @ t.R.transpose())
    return level_word_sums(
        sys, n, lambda k, t: [cum[k - 1].apply(l) for l in t.L.vectors])


def lambda_n(sys: ConvolutionSystem, n: int) -> list[tuple[int, ...]]:
    """Level-n frequency set, deduplicated and sorted."""
    if n < 1:
        raise InvalidInput("level must be >= 1")
    return _level_set(sys, n)


def _level_set(sys: ConvolutionSystem, n: int, seeds=None) -> list[tuple[int, ...]]:
    """sorted{lambda + R_1^T...R_n^T s : lambda in Lambda_n, s in seeds}, for
    integer seeds ({0} if None), read only after n is checked. A collision
    among Lambda_n's digit words breaks the bijective indexing the
    completeness criterion relies on, so it is reported as a warning."""
    if n < 0:
        raise DimensionMismatch(f"the level must be >= 0, got {n}")
    vals = lambda_word_values(sys, n)
    if len(set(vals)) != len(vals):
        warnings.warn(f"Lambda_{n} has collisions ({len(vals)} words, {len(set(vals))} "
                      "distinct sums); orthogonality counting breaks", stacklevel=3)
    p = identity(sys.dim)  # R_1^T ... R_n^T, exact
    for t in map(sys.triple_at, range(1, n + 1)):
        p = p if t is None else p @ t.R.transpose()
    shifts = [p.apply(s) for s in ([(0,) * sys.dim] if seeds is None else seeds)]
    return sorted({tuple(map(add, lam, s)) for lam in vals for s in shifts})
