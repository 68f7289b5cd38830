"""Hadamard triples, masks, dual maps, and the invariant ball.

A triple (R, B, L) couples an expansive integer matrix with a digit set B
and frequency set L of equal size; it is verified by checking that the
N x N matrix H = [exp(2 pi i <R^{-1} b, l>)] / sqrt(N) is unitary. Each
phase of H is an exact rational k / det R with k an integer, so building and
verifying a triple needs no numpy; it loads only when a float path first runs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Iterable

from .errors import DimensionMismatch, InvalidInput, VerificationFailed
from .linalg import (IntMatrix, as_int_matrix, as_int_vector, as_rat_vector,
                     contraction_factor, inv_transpose_series, inverse,
                     inverse_float, is_expansive, RatVector)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class _VectorSet:
    """Finite set of integer vectors containing 0; `of` names it `_what`."""

    vectors: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, vs):
        vecs = tuple(as_int_vector(v) for v in vs)
        if not vecs:
            raise InvalidInput(f"{cls._what} must be nonempty")
        if len({len(v) for v in vecs}) > 1:
            raise InvalidInput(f"{cls._what} vectors have mixed dimensions")
        if len(set(vecs)) != len(vecs):
            raise InvalidInput(f"{cls._what} contains duplicates")
        if (0,) * len(vecs[0]) not in vecs:
            raise InvalidInput(f"{cls._what} must contain the zero vector")
        return cls(vecs)

    @property
    def dim(self) -> int:
        return len(self.vectors[0])

    def __len__(self) -> int:
        return len(self.vectors)

    def as_numpy(self) -> np.ndarray:
        import numpy as np
        return np.array(self.vectors, dtype=float)


@dataclass(frozen=True)
class DigitSet(_VectorSet):
    """Finite set of integer digit vectors containing 0."""

    _what = "digit set"

    @property
    def max_norm(self) -> float:
        return math.sqrt(max(sum(x * x for x in v) for v in self.vectors))


@dataclass(frozen=True)
class FrequencySet(_VectorSet):
    """Finite set of integer frequency vectors containing 0."""

    _what = "frequency set"


@dataclass
class HadamardTriple:
    """(R, B, L) with verification state attached.

    `status` is one of "unverified", "verified", "failed"; `residual` holds
    the max-entry residual of H*H - I from the last verification.
    """

    R: IntMatrix
    B: DigitSet
    L: FrequencySet
    status: str = "unverified"
    residual: float | None = None

    def __post_init__(self):
        if self.B.dim != self.R.dim or self.L.dim != self.R.dim:
            raise DimensionMismatch("digit/frequency dimension != matrix dimension")
        if not is_expansive(self.R):
            raise InvalidInput("R is not expansive")

    @property
    def dim(self) -> int:
        return self.R.dim

    @property
    def size(self) -> int:
        return len(self.B)

    def require_verified(self, tol: float = DEFAULT_TOL) -> None:
        if self.status == "unverified":
            verify_hadamard(self, tol)
        if self.status != "verified":
            raise VerificationFailed(
                f"triple failed unitarity check (residual {self.residual:.3g})")


def triple(r, digits, freqs, tol: float = DEFAULT_TOL,
           require: bool = True) -> HadamardTriple:
    """Build and verify a Hadamard triple from loose inputs."""
    t = HadamardTriple(as_int_matrix(r), DigitSet.of(digits), FrequencySet.of(freqs))
    res = verify_hadamard(t, tol)
    if require and not res.passed:
        raise VerificationFailed(
            f"not a Hadamard triple: residual {res.residual:.3g} > {tol:g}")
    return t


@dataclass(frozen=True)
class VerifyResult:
    passed: bool
    residual: float


def _phase_rows(t: HadamardTriple) -> list[list[complex]]:
    """Rows of sqrt(N) H, from exact integer phases.

    <R^{-1} b, l> = k / det R with k = <adj(R) b, l> an integer, so the
    entry exp(2 pi i k / det R) is read off k mod det R (which takes the sign
    of det R): no float inverse enters the phases.
    """
    adj, d = inverse(t.R)
    ab = [adj.apply(b) for b in t.B.vectors]
    return [[cmath.exp(2j * cmath.pi * (sum(map(mul, a, l)) % d) / d)
             for a in ab] for l in t.L.vectors]


def hadamard_matrix(t: HadamardTriple) -> np.ndarray:
    """The candidate unitary H, rows indexed by L and columns by B."""
    import numpy as np
    return np.array(_phase_rows(t)) / math.sqrt(len(t.B))


def verify_hadamard(t: HadamardTriple, tol: float = DEFAULT_TOL) -> VerifyResult:
    """Check H*H = I from H's exact phases and record the result on t.

    The diagonal of H*H is 1 by construction, so the residual is its largest
    off-diagonal modulus. Genuine triples sit at machine-epsilon residuals
    while failures are at least of order 1/N, so a check at tol=1e-9 is
    decisive.
    """
    if len(t.B) != len(t.L):
        raise DimensionMismatch(f"#B={len(t.B)} != #L={len(t.L)}")
    cols = list(zip(*_phase_rows(t)))
    conj = [[z.conjugate() for z in c] for c in cols]
    resid = max((abs(sum(map(mul, conj[i], cj)))
                 for i in range(len(cols)) for cj in cols[i + 1:]),
                default=0.0) / len(cols)
    t.residual = resid
    t.status = "verified" if resid <= tol else "failed"
    return VerifyResult(resid <= tol, resid)


def mask_eval(digits: DigitSet | Iterable, xi) -> complex:
    """m_B(xi) = mean of exp(2 pi i <b, xi>) over the digit set."""
    import numpy as np
    b = digits if isinstance(digits, DigitSet) else DigitSet.of(digits)
    return complex(mask_eval_many(b, np.atleast_1d(np.asarray(xi, dtype=float))))


def mask_eval_many(digits: DigitSet, xs: np.ndarray) -> np.ndarray:
    """Vectorized m_B over points of shape (..., d)."""
    return _mask(digits, xs)


def _mask(digits: DigitSet, xs: np.ndarray) -> np.ndarray:
    """The one mask kernel: one contiguous exp per nonzero digit and the
    exact 1 for b = 0, summed in digit order as numpy's mean sums them."""
    import numpy as np
    if len(digits) == 1:
        return np.ones(np.shape(xs)[:-1], dtype=complex)
    terms = [np.exp(2j * np.pi * np.matmul(xs, b)) if any(b) else 1.0
             for b in digits.vectors]
    return sum(terms[1:], terms[0]) / len(digits)


def mask_is_extreme_at(digits: DigitSet | Iterable, x) -> bool:
    """Exact test for |m_B(x)| = 1 at a rational point.

    With 0 in B this is equivalent to <b, x> being an integer for every
    digit b, which is decidable over Fractions.
    """
    b = digits if isinstance(digits, DigitSet) else DigitSet.of(digits)
    xv = as_rat_vector(x, b.dim)
    for vec in b.vectors:
        s = sum(Fraction(vec[i]) * xv[i] for i in range(b.dim))
        if s.denominator != 1:
            return False
    return True


def tau_exact(r, ell, x) -> RatVector:
    """Exact dual map (R^T)^{-1}(x + ell) = adj(R)^T (x + ell) / det R."""
    rm = as_int_matrix(r)
    adj, d = inverse(rm)
    lv = as_int_vector(ell, rm.dim)
    y = [a + b for a, b in zip(as_rat_vector(x, rm.dim), lv)]
    return tuple(sum(map(mul, col, y)) / d for col in zip(*adj.rows))


def tau_float_many(r, ell, xs: np.ndarray) -> np.ndarray:
    """Dual map applied to an array of points (float path for sweeps)."""
    import numpy as np
    rm = as_int_matrix(r)
    lv = np.asarray(as_int_vector(ell, rm.dim), dtype=float)
    return (xs + lv) @ inverse_float(rm)


def invariant_ball_radius(r, freqs: FrequencySet | Iterable,
                          margin: float = 1e-6) -> float:
    """Radius r with tau_l(B_r) inside B_r for every l in L.

    With M = max_l |(R^T)^{-1} l| and c = ||(R^T)^{-1}||_2 < 1, any
    r >= M/(1-c) works: |tau_l(x)| <= c|x| + M. That is the cycle
    containment radius of a one-step contraction, margin included; when
    c >= 1 no such ball need exist and NotContractive is raised.
    """
    contraction_factor(r)  # NotContractive propagates to the caller
    return cycle_containment_radius(r, freqs, margin)


def cycle_containment_radius(r, freqs: FrequencySet | Iterable,
                             margin: float = 1e-6) -> float:
    """Radius certified to contain every cycle point of the dual maps.

    With S = (R^T)^{-1} and M = max_l |S l|, a cycle point is
    x = sum_{j>=1} S^j l_j over its (rotated, repeated) word, so
    |x| <= M sum_{j>=0} ||S^j||_2 = M (1 + tail(0)) by the norm series,
    whether S contracts in one step or only in several. The radius carries
    a small relative margin so the containment is strict.
    """
    import numpy as np
    rm = as_int_matrix(r)
    fs = freqs if isinstance(freqs, FrequencySet) else FrequencySet.of(freqs)
    m = float(np.linalg.norm(fs.as_numpy() @ inverse_float(rm), axis=1).max())
    return m * (1.0 + inv_transpose_series([rm]).tail(0)) * (1.0 + margin)


def parseval_defect(t: HadamardTriple, xi) -> float:
    """|1 - sum_l |m_B(tau_l xi)|^2|; zero for a genuine triple."""
    import numpy as np
    x = np.atleast_1d(np.asarray(xi, dtype=float))[None, :]
    total = sum(abs(mask_eval_many(t.B, tau_float_many(t.R, ell, x))[0]) ** 2
                for ell in t.L.vectors)
    return float(abs(1.0 - total))
