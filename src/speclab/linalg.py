"""Exact integer/rational linear algebra.

Everything that feeds a certificate (determinants, expansivity, residue
classes, cycle fixed points) runs over Python integers and
``fractions.Fraction``; floating point only appears in the norm series
behind ``contraction_factor``, which is an estimate rather than a
certificate. One integer Faddeev-LeVerrier pass gives the characteristic
polynomial, det(M) and adj(M). Every inverse and every exact solve reads
``inverse``'s exact adj(M) / det(M), or its float view; numpy loads only
there and in the norm series, not on import.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ExactCheckFailed, InvalidInput, NotContractive, SingularMatrix

IntVector = tuple[int, ...]
RatVector = tuple[Fraction, ...]

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class IntMatrix:
    """Square integer matrix, row-major."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = len(self.rows)
        if d == 0 or any(len(r) != d for r in self.rows):
            raise InvalidInput("matrix must be square and nonempty")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        a, b = self.rows, other.rows
        d = len(a)
        return IntMatrix(tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
            for i in range(d)))

    def apply(self, v: Sequence[int]) -> IntVector:
        return tuple(sum(r[j] * v[j] for j in range(len(r))) for r in self.rows)


def _plain(x):
    """numpy arrays and scalars as nested lists and Python numbers."""
    return x.tolist() if hasattr(x, "tolist") else x


def _int_entry(x) -> int:
    """An int, or an integral float or Fraction, as an int."""
    if isinstance(x, int):
        return int(x)
    x = _plain(x)
    if isinstance(x, (int, float, Fraction)) and x % 1 == 0:
        return int(x)
    raise InvalidInput(f"expected an integer, got {x!r}")


def as_int_matrix(m) -> IntMatrix:
    """Coerce an int, nested sequence, or numpy array to IntMatrix."""
    if isinstance(m, IntMatrix):
        return m
    m = _plain(m)
    if not isinstance(m, (list, tuple)):
        return IntMatrix(((_int_entry(m),),))
    rows = [_plain(r) for r in m]
    if len(rows) == 1 and not isinstance(rows[0], (list, tuple)):
        return IntMatrix(((_int_entry(rows[0]),),))
    if not rows or any(not isinstance(r, (list, tuple)) or len(r) != len(rows)
                       for r in rows):
        raise InvalidInput(f"not a square matrix: {m!r}")
    return IntMatrix(tuple(tuple(map(_int_entry, r)) for r in rows))


def as_int_vector(v, dim: int | None = None) -> IntVector:
    """Coerce a scalar or sequence to an integer tuple."""
    v = _plain(v)
    if isinstance(v, (list, tuple)):
        out = tuple(map(_int_entry, v))
    else:
        out = (_int_entry(v),)
    if dim is not None and len(out) != dim:
        raise InvalidInput(f"expected a {dim}-vector, got {out}")
    return out


def as_rat_vector(v, dim: int | None = None) -> RatVector:
    if isinstance(v, (int, Fraction)):
        out = (Fraction(v),)
    else:
        out = tuple(Fraction(x) for x in v)
    if dim is not None and len(out) != dim:
        raise InvalidInput(f"expected a {dim}-vector, got {out}")
    return out


def identity(d: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(d))
                           for i in range(d)))


def mat_pow(m: IntMatrix, k: int) -> IntMatrix:
    out = identity(m.dim)
    for _ in range(k):
        out = out @ m
    return out


def _faddeev_leverrier(m: IntMatrix) -> tuple[tuple[int, ...], IntMatrix]:
    """det(xI - M) as (c_0, ..., c_d), c_d = 1, and adj(M): one exact pass.

    M_1 = I, c_{d-k} = -tr(M M_k) / k and M_{k+1} = M M_k + c_{d-k} I, so
    adj(M) = (-1)^(d-1) M_d and det(M) = (-1)^d c_0. Each division by k is
    exact for an integer M.
    """
    d = m.dim
    coeffs, mk, prod = [1], identity(d), m  # prod = M M_k
    for k in range(1, d + 1):
        c, rem = divmod(-sum(prod.rows[i][i] for i in range(d)), k)
        if rem:
            raise ExactCheckFailed(f"characteristic polynomial coefficient "
                                   f"{c + rem / k} is not integral")
        coeffs.append(c)
        if k < d:
            mk = IntMatrix(tuple(tuple(x + c * (i == j) for j, x in enumerate(r))
                                 for i, r in enumerate(prod.rows)))
            prod = m @ mk
    sign = (-1) ** (d - 1)
    return (tuple(reversed(coeffs)),
            IntMatrix(tuple(tuple(sign * x for x in r) for r in mk.rows)))


def charpoly(m: IntMatrix) -> tuple[int, ...]:
    """Coefficients (c_0, ..., c_d) of det(xI - M), c_d = 1, exact."""
    return _faddeev_leverrier(m)[0]


def det(m) -> int:
    """Exact determinant, (-1)^d c_0 of the characteristic polynomial."""
    m = as_int_matrix(m)
    return (-1) ** m.dim * charpoly(m)[0]


def _roots_strictly_inside_unit_disk(coeffs: Sequence[int]) -> bool:
    """Exact Schur-Cohn test: all roots of sum c_i z^i in the open unit disk.

    Ties (|c_0| == |c_n| at any stage) count as failure, so roots on the
    circle are rejected. Every step stays in the integers.
    """
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    while len(c) > 1:
        n = len(c) - 1
        c0, cn = c[0], c[-1]
        if abs(c0) >= abs(cn):
            return False
        # One Schur reduction step; new leading coefficient is cn^2 - c0^2 > 0.
        c = [cn * c[i + 1] - c0 * c[n - 1 - i] for i in range(n)]
    return True


def is_expansive(m) -> bool:
    """True iff every eigenvalue of M has modulus strictly greater than 1.

    Decided exactly: the reversed characteristic polynomial must have all
    roots strictly inside the unit disk (Schur-Cohn over integers).
    """
    m = as_int_matrix(m)
    p = charpoly(m)  # ascending powers, monic
    if p[0] == 0:  # zero eigenvalue
        return False
    reversed_p = tuple(reversed(p))
    return _roots_strictly_inside_unit_disk(reversed_p)


@functools.lru_cache(maxsize=256)
def inverse(m: IntMatrix) -> tuple[IntMatrix, int]:
    """M^{-1} = adj(M) / det(M), exactly: (adj M, det M), cached per M.

    The one place an inverse is formed; raises SingularMatrix when
    det M = 0.
    """
    p, adj = _faddeev_leverrier(m)
    if p[0] == 0:
        raise SingularMatrix("matrix is singular")
    return adj, (-1) ** m.dim * p[0]


def inverse_float(m: IntMatrix) -> np.ndarray:
    """M^{-1} as floats, each entry adj(M)_ij / det(M) rounded once."""
    import numpy as np
    adj, dt = inverse(m)
    return np.array([[x / dt for x in row] for row in adj.rows])


def solve_exact(a, v) -> RatVector:
    """Exact rational solve; raises SingularMatrix when det a = 0.

    With q the common denominator of a's entries, A = q a is an integer
    matrix and x = adj(A) (q v) / det(A), read from `inverse`.
    """
    if isinstance(a, IntMatrix):
        a = a.rows
    elif isinstance(a, (int, Fraction)):
        a = ((a,),)
    rows = [[Fraction(x) for x in row] for row in a]
    q = math.lcm(*(x.denominator for row in rows for x in row))
    adj, dt = inverse(IntMatrix(tuple(tuple(int(x * q) for x in row)
                                      for row in rows)))
    qv = [q * x for x in as_rat_vector(v, len(rows))]
    return tuple(sum(c * x for c, x in zip(row, qv)) / dt for row in adj.rows)


def residue_classes_distinct(r, digits: Iterable) -> bool:
    """True iff no two digits are congruent modulo R Z^d (exact).

    b - b' lies in R Z^d iff adj(R)(b - b') = 0 mod det R, so the digits
    are distinct modulo R iff their keys adj(R) b mod |det R| are.
    """
    r = as_int_matrix(r)
    adj, dt = inverse(r)
    keys = [tuple(x % abs(dt) for x in adj.apply(as_int_vector(b, r.dim)))
            for b in digits]
    return len(set(keys)) == len(keys)


def is_complete_residue_set(r, digits: Iterable) -> bool:
    """True iff the digits form a complete residue system for R."""
    r = as_int_matrix(r)
    ds = list(digits)
    return len(ds) == abs(det(r)) and residue_classes_distinct(r, ds)


def contraction_factor(r) -> float:
    """Operator 2-norm of (R^T)^{-1} (largest singular value).

    Raises NotContractive when the norm is >= 1 even though R may be
    expansive; callers then fall back to `multi_step_contraction`.
    """
    return inv_transpose_series([r], max_steps=1).c


def multi_step_contraction(r, max_steps: int = 32) -> tuple[int, float]:
    """Smallest k <= max_steps with ||(R^T)^{-k}||_2 < 1, and that norm.

    Exists for every expansive R since the spectral radius of (R^T)^{-1}
    is < 1.
    """
    series = inv_transpose_series([r], max_steps)
    return len(series.heads), series.c


@dataclass(frozen=True)
class NormSeries:
    """Envelope ||S_j ... S_1||_2 <= c^q * heads[r] for j = q*k0 + r.

    Here S_i = (R_i^T)^{-1}, k0 = len(heads), heads[r] = ||S^r||_2 (so
    heads[0] = 1) and c = ||S^k0||_2 < 1; it follows from
    ||S^(q k0 + r)|| <= ||S^k0||^q ||S^r||. A product of several one-step
    contractions has k0 = 1 and c = max ||S_i||.
    """

    c: float
    heads: tuple[float, ...]

    def tail(self, k: int) -> float:
        """Upper bound on sum_{j>k} ||S_j ... S_1||_2.

        Head r first enters at the smallest q with q*k0 + r > k, that is at
        q = ceil((k + 1 - r) / k0) (or 0), and contributes a geometric series
        in c from there.
        """
        k0 = len(self.heads)
        total = sum(h * self.c ** max(0, -((r - k - 1) // k0))
                    for r, h in enumerate(self.heads))
        return total / (1.0 - self.c)


def inv_transpose_series(rs: Iterable, max_steps: int = 32) -> NormSeries:
    """Norm envelope of products of the inverse transposes of `rs`.

    One matrix: blocked by its first contracting power k0 <= max_steps.
    Several distinct matrices: every one must be a one-step contraction,
    otherwise NotContractive.
    """
    import numpy as np
    invs = [inverse_float(m).T for m in {as_int_matrix(r) for r in rs}]
    if len(invs) > 1:
        c = max(float(np.linalg.norm(s, 2)) for s in invs)
        if c >= 1.0:
            raise NotContractive(
                "mixed scaling matrices with a non-contractive step")
        return NormSeries(c, (1.0,))
    power, heads = np.eye(len(invs[0])), [1.0]
    for _ in range(max_steps):
        power = power @ invs[0]
        c = float(np.linalg.norm(power, 2))
        if c < 1.0:
            return NormSeries(c, tuple(heads))
        heads.append(c)
    raise NotContractive(
        f"no contracting power of (R^T)^-1 within {max_steps} steps")

