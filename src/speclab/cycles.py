"""Exact enumeration of extreme cycles and the spectrum they generate.

A cycle is found from its defining word: the fixed point of the composed
dual maps tau_{l_1}...tau_{l_m} is an exact rational (the system
((R^T)^m - I) x = sum_j (R^T)^{m-j} l_j is integer and nonsingular for
expansive R, and is solved by `linalg.inverse`, whose adjugate and
determinant come from one integer Faddeev-LeVerrier pass per period),
and extremity |m_B| = 1 is decided by integrality of <b, x>.
Words are enumerated as primitive necklaces so each cycle appears once.
The spectrum they generate is the level set of `levels` seeded by -cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (ExactCheckFailed, InvalidInput, MismatchedRL,
                     NonIntegerElement)
from .levels import _level_set, self_affine
from .linalg import IntMatrix, as_int_vector, inverse, mat_pow
from .triples import (HadamardTriple, cycle_containment_radius,
                      mask_is_extreme_at, tau_exact)

RatPoint = tuple[Fraction, ...]


@dataclass(frozen=True)
class ExtremeCycle:
    """A tau-orbit on which the digit mask has modulus one.

    points are in orbit order starting at the fixed point of the canonical
    (rotation-minimal) word; word holds the frequency vectors l_1..l_m.
    """

    points: tuple[RatPoint, ...]
    word: tuple[tuple[int, ...], ...]

    @property
    def period(self) -> int:
        return len(self.word)

    @property
    def point_set(self) -> frozenset[RatPoint]:
        return frozenset(self.points)

    def to_dict(self, extreme_for: Sequence[int] | None = None) -> dict:
        out = {
            "period": self.period,
            "word": [list(l) for l in self.word],
            "points": [[str(x) for x in p] for p in self.points],
        }
        if extreme_for is not None:
            out["extreme_for"] = list(extreme_for)
        return out


def _primitive_necklaces(n_letters: int, length: int) -> Iterable[tuple[int, ...]]:
    """Index words that are lexicographically minimal among their rotations
    and not a power of a shorter word."""
    def gen(prefix):
        if len(prefix) == length:
            rots = [prefix[i:] + prefix[:i] for i in range(1, length)]
            if all(prefix < r for r in rots):  # strict: also rejects powers
                yield tuple(prefix)
            return
        for a in range(n_letters):
            yield from gen(prefix + [a])

    if length == 1:
        yield from ((a,) for a in range(n_letters))
    else:
        yield from gen([])


def fixed_point_of_word(t: HadamardTriple, word: Sequence) -> RatPoint:
    """Exact fixed point of tau_{l_1} o ... o tau_{l_m}.

    Solves A x = s with A = (R^T)^m - I and s = sum_j (R^T)^{m-j} l_j as
    x = adj(A) s / det(A), and verifies the result by exact re-application
    of the word. s is accumulated by Horner's rule, s <- R^T s + l_j.
    """
    ls = [as_int_vector(l, t.dim) for l in word]
    if not ls:
        raise InvalidInput("word must be nonempty")
    rt = t.R.transpose()
    rhs = (0,) * t.dim
    for l in ls:
        rhs = tuple(a + b for a, b in zip(rt.apply(rhs), l))
    a = mat_pow(rt, len(ls)).rows
    adj, dt = inverse(IntMatrix(tuple(
        tuple(x - (i == j) for j, x in enumerate(r)) for i, r in enumerate(a))))
    x = tuple(Fraction(s, dt) for s in adj.apply(rhs))
    y = x
    for l in reversed(ls):
        y = tau_exact(t.R, l, y)
    if y != x:
        raise ExactCheckFailed(
            f"fixed point {x} of word {ls} is not reproduced by the dual maps")
    return x


def find_extreme_cycles(t: HadamardTriple, m_max: int = 6) -> list[ExtremeCycle]:
    """All extreme cycles of period <= m_max, exactly.

    Complete for the stated period bound only; no a-priori bound on cycle
    periods is known, so callers should report m_max alongside the result.
    """
    return common_extreme_cycles([t], m_max)


def common_extreme_cycles(triples: Sequence[HadamardTriple],
                          m_max: int = 6) -> list[ExtremeCycle]:
    """Cycles extreme for every triple in a family sharing R and L.

    The tau-dynamics depend only on (R, L), so candidate cycles are
    enumerated once and extremity is tested against each digit set.
    """
    if m_max < 1:
        raise InvalidInput("m_max must be >= 1")
    base = triples[0]
    for t in triples[1:]:
        if t.R != base.R or t.L != base.L:
            raise MismatchedRL("family must share R and L")
    letters = base.L.vectors
    found: dict[frozenset, ExtremeCycle] = {}
    for m in range(1, m_max + 1):
        for idx_word in _primitive_necklaces(len(letters), m):
            word = tuple(letters[i] for i in idx_word)
            x0 = fixed_point_of_word(base, word)
            if not all(mask_is_extreme_at(t.B, x0) for t in triples):
                continue
            pts = [x0]
            cur = x0
            for l in reversed(word[1:]):
                cur = tau_exact(base.R, l, cur)
                pts.append(cur)
            if len(set(pts)) != len(pts):
                continue  # degenerate orbit duplicates a shorter cycle
            if not all(mask_is_extreme_at(t.B, p) for t in triples for p in pts[1:]):
                continue
            key = frozenset(pts)
            if key not in found:
                found[key] = ExtremeCycle(tuple(pts), word)
    return sorted(found.values(), key=lambda c: (c.period, c.points))


def _spectrum_seeds(cycles: Iterable[ExtremeCycle]) -> Iterable[tuple[int, ...]]:
    """{-c : c cycle point} as integer vectors, level 0 of the cycle
    spectrum; a generator, so that the level set checks its level first."""
    points = [p for c in cycles for p in c.points]
    if not points:
        raise InvalidInput("need at least one cycle (the trivial {0} always exists)")
    for p in points:
        if any(x.denominator != 1 for x in p):
            raise NonIntegerElement(f"cycle point {p} is not an integer vector")
        yield tuple(-int(x) for x in p)


def dynamically_simple_spectrum(t: HadamardTriple,
                                cycles: Iterable[ExtremeCycle],
                                n: int) -> list[tuple[int, ...]]:
    """Level-n slice of the spectrum generated by extreme cycles.

    Level n is Lambda_n + (R^T)^n {-c : c cycle point}, the level set of
    `self_affine(t)` seeded by the negated cycle points; the cycles are closed
    under the dual maps, so the levels are nested. All elements must be
    integer vectors; a non-integer element means a non-extreme cycle was
    supplied.
    """
    return _level_set(self_affine(t), n, _spectrum_seeds(cycles))


def search_summary(triples: HadamardTriple | Sequence[HadamardTriple],
                   cycles: Sequence[ExtremeCycle], m_max: int) -> dict:
    """Report payload: the bound searched, the containment certificate, and
    per-cycle extremity flags against each triple of the family."""
    fam = [triples] if isinstance(triples, HadamardTriple) else list(triples)
    payload = []
    for c in cycles:
        which = [i for i, t in enumerate(fam)
                 if all(mask_is_extreme_at(t.B, p) for p in c.points)]
        payload.append(c.to_dict(extreme_for=which))
    return {
        "m_max": m_max,
        "complete_for_periods_up_to": m_max,
        "containment_radius": cycle_containment_radius(fam[0].R, fam[0].L),
        "cycles": payload,
    }
