"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against plain math/cmath/Fraction
(or raw numpy eigensolvers) with no imports from the package under test, so
a test comparing the two routes is a genuine cross-check.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np


def sinc(x: float) -> float:
    return 1.0 if x == 0 else math.sin(math.pi * x) / (math.pi * x)


def lebesgue_ft(xi: float) -> complex:
    """Transform of Lebesgue measure on [0, 1]."""
    return cmath.exp(-1j * math.pi * xi) * sinc(xi)


def lebesgue_lattice_q(xi: float, window: int) -> float:
    return sum(sinc(xi + n) ** 2 for n in range(-window, window + 1))


def badword_ft_abs(xi: float) -> float:
    """|mu^| for the digit word 0111... over B(0)={0,1}, B(1)={0,3}, R=2."""
    return abs(math.cos(math.pi * xi / 2) * sinc(1.5 * xi))


def badword_lattice_q(xi: float, window: int) -> float:
    return sum(badword_ft_abs(xi + n) ** 2 for n in range(-window, window + 1))


def scale4_ft_abs(xi: float, digit: int = 2, depth: int = 80) -> float:
    """|mu^| for the scale-4 measure with digits {0, digit}: plain product."""
    out = 1.0
    for k in range(1, depth + 1):
        out *= abs(math.cos(math.pi * digit * xi / 4 ** k))
    return out


def scale4_tail_abs(xi: float, n: int, digit: int = 2, depth: int = 80) -> float:
    out = 1.0
    for k in range(n + 1, n + depth + 1):
        out *= abs(math.cos(math.pi * digit * xi / 4 ** k))
    return out


def eig_expansive(matrix, pad: float = 1e-9) -> bool:
    """Float-eigenvalue oracle: all |lambda| > 1 + pad."""
    ev = np.linalg.eigvals(np.array(matrix, dtype=float))
    return bool(np.all(np.abs(ev) > 1 + pad))


def eig_near_unit_circle(matrix, eps: float = 1e-6) -> bool:
    ev = np.linalg.eigvals(np.array(matrix, dtype=float))
    return bool(np.any(np.abs(np.abs(ev) - 1) < eps))


def residues_distinct_bruteforce(r, digits) -> bool:
    """b == b' mod R Z^d decided by searching integer solutions of R x = b - b'."""
    rm = np.array(r, dtype=int)
    if rm.ndim == 0:
        rm = rm.reshape(1, 1)
    d = rm.shape[0]
    inv_norm = float(np.abs(np.linalg.inv(rm)).sum())
    ds = [np.atleast_1d(np.array(b, dtype=int)) for b in digits]
    for i in range(len(ds)):
        for j in range(i):
            diff = ds[i] - ds[j]
            bound = int(math.ceil(inv_norm * (abs(diff).max() + 1))) + 1
            for x in itertools.product(range(-bound, bound + 1), repeat=d):
                if np.array_equal(rm @ np.array(x), diff):
                    return False
    return True


def complete_residue_bruteforce(r, digits) -> bool:
    rm = np.array(r, dtype=int)
    if rm.ndim == 0:
        rm = rm.reshape(1, 1)
    detr = abs(round(float(np.linalg.det(rm))))
    return len(list(digits)) == detr and residues_distinct_bruteforce(r, digits)


def extreme_cycles_bruteforce_1d(r: int, digits, freqs, m_max: int) -> set[frozenset]:
    """Point-driven extreme-cycle search for 1-D triples.

    Enumerates every rational p/q with q = |r^m - 1| (m <= m_max) inside the
    containment radius max|l| / (|r| - 1), keeps the ones where <b, x> is
    integral for all digits, and follows the unique modulus-one transition
    until it returns or escapes. Independent of the word-driven search.
    """
    radius = Fraction(max(abs(l) for l in freqs), abs(r) - 1) * Fraction(101, 100)
    candidates: set[Fraction] = set()
    for m in range(1, m_max + 1):
        q = abs(r ** m - 1)
        lim = int(radius * q) + 1
        for p in range(-lim, lim + 1):
            candidates.add(Fraction(p, q))

    def extreme(x: Fraction) -> bool:
        return all((Fraction(b) * x).denominator == 1 for b in digits)

    cycles: set[frozenset] = set()
    for x in candidates:
        if not extreme(x):
            continue
        orbit = [x]
        cur = x
        for _ in range(m_max):
            nxt = [Fraction(cur + l, r) for l in freqs
                   if extreme(Fraction(cur + l, r))]
            if len(nxt) != 1:
                break
            cur = nxt[0]
            if cur == x:
                cycles.add(frozenset(orbit))
                break
            orbit.append(cur)
    return cycles


def direct_hadamard(r, digits, freqs) -> np.ndarray:
    """H = [exp(2 pi i <R^{-1} b, l>)] / sqrt(N) from a float inverse."""
    rm = np.array(r, dtype=float)
    if rm.ndim == 0:
        rm = rm.reshape(1, 1)
    b = np.array([np.atleast_1d(x) for x in digits], dtype=float)
    l = np.array([np.atleast_1d(x) for x in freqs], dtype=float)
    return np.exp(2j * np.pi * (l @ np.linalg.inv(rm) @ b.T)) / math.sqrt(len(b))


def unitary_residual(r, digits, freqs) -> float:
    """Direct |H*H - I| residual for a candidate triple."""
    h = direct_hadamard(r, digits, freqs)
    return float(np.abs(h.conj().T @ h - np.eye(len(h))).max())


def word_ft_abs(word, xi, digit_sets=((0, 1), (0, 3)), r: int = 2,
                depth: int = 60) -> float:
    """|mu^| for a repeat-last word over 1-D digit sets (plain product)."""
    out = 1.0
    for k in range(1, depth + 1):
        w = word[k - 1] if k <= len(word) else word[-1]
        ds = digit_sets[w]
        z = sum(cmath.exp(2j * math.pi * b * xi / r ** k) for b in ds) / len(ds)
        out *= abs(z)
    return out


def repeat_last_exact_q(word, digit_sets=((0, 1), (0, 3))) -> dict[int, Fraction]:
    """Exact Fourier coefficients of Q(x) = sum_n |mu^(x + n)|^2.

    mu is the scale-2 repeat-last word measure over digit sets {0, b}. The
    tail (the last letter forever) is uniform on [0, b], whose Q has the
    coefficients (b - |k|) / b^2 for |k| < b. Each letter in front of it
    applies the transfer operator Q(x) = sum_j |m((x + j)/2)|^2 Q'((x + j)/2),
    which on coefficients is c_k = 2 (|m|^2 * c')_{2k}. No window is involved.
    """
    for ds in digit_sets:
        assert len(ds) == 2 and ds[0] == 0 and ds[1] > 0, ds
    b = digit_sets[word[-1]][1]
    coeffs = {k: Fraction(b - abs(k), b * b) for k in range(1 - b, b)}
    for letter in reversed(word):
        d = digit_sets[letter][1]
        mask = {-d: Fraction(1, 4), 0: Fraction(1, 2), d: Fraction(1, 4)}
        conv: dict[int, Fraction] = {}
        for a, x in mask.items():
            for k, y in coeffs.items():
                conv[a + k] = conv.get(a + k, 0) + x * y
        coeffs = {k // 2: 2 * v for k, v in conv.items() if k % 2 == 0 and v}
    return coeffs


def trig_eval(coeffs: dict[int, Fraction], x: float) -> float:
    """sum_k c_k e^{2 pi i k x} for real, symmetric coefficients."""
    return sum(float(v) * math.cos(2 * math.pi * k * x) for k, v in coeffs.items())


def level_letter_reference(kind: str, n_triples: int, word, tail: str,
                           k: int) -> int | None:
    """Index of the triple at level k >= 1 under the four system kinds.

    Kept as the reference for the level sequence: self_affine repeats its one
    triple, periodic cycles through the word, random_word reads the word and
    general the triples in order, and past the explicit data both either
    repeat the last letter ("repeat_last") or stop ("finite", None).
    """
    if kind == "self_affine":
        return 0
    if kind == "periodic":
        return word[(k - 1) % len(word)]
    seq = list(word) if kind == "random_word" else list(range(n_triples))
    if k <= len(seq):
        return seq[k - 1]
    return seq[-1] if tail == "repeat_last" else None


def _frac_inverse(m):
    """Exact inverse of a square integer matrix by Gauss-Jordan elimination."""
    d = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
         for i, row in enumerate(m)]
    for c in range(d):
        p = next(r for r in range(c, d) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(d):
            if r != c and a[r][c] != 0:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[d:] for row in a]


def cumulative_inverses(rs) -> list[list[list[Fraction]]]:
    """(R_k...R_1)^{-1} = R_1^{-1} ... R_k^{-1} for k = 1..len(rs), as exact
    Fraction matrices built level by level; each R an integer or a square
    integer matrix."""
    out, cum = [], None
    for r in rs:
        step = _frac_inverse(np.atleast_2d(np.array(r, dtype=object)).tolist())
        cum = step if cum is None else [
            [sum(cum[i][k] * step[k][j] for k in range(len(step)))
             for j in range(len(step))] for i in range(len(cum))]
        out.append(cum)
    return out


def lambda_words(levels) -> list[tuple[int, ...]]:
    """Lambda_n in digit-word order, collisions kept, by brute force: the sum
    of P_k l_k over every word (l_1, ..., l_n) of itertools.product, with
    P_k = R_1^T ... R_{k-1}^T. `levels` gives each level's (R, L) as integer
    lists, or None past a finite tail, where the only option is 0."""
    d = len(next(lv for lv in levels if lv is not None)[0])
    ps, p = [], [[int(i == j) for j in range(d)] for i in range(d)]
    for lv in levels:
        ps.append(p)
        if lv is not None:  # P_{k+1} = P_k R_k^T
            p = [[sum(p[i][m] * lv[0][j][m] for m in range(d)) for j in range(d)]
                 for i in range(d)]
    options = [[[0] * d] if lv is None else lv[1] for lv in levels]
    return [tuple(sum(pk[i][j] * l[j] for pk, l in zip(ps, word)
                      for j in range(d)) for i in range(d))
            for word in itertools.product(*options)]


def cycle_spectrum_horner(r, freqs, points, n: int) -> list[tuple[int, ...]]:
    """Level n of the spectrum generated by integer cycle points, by
    Horner's rule: level 0 is {-p : p in points} and each further level
    applies S -> R^T S + L. `r` is a d x d integer list; `freqs` and
    `points` hold d-vectors."""
    level = {tuple(-int(x) for x in p) for p in points}
    for _ in range(n):
        level = {tuple(sum(r[j][i] * lam[j] for j in range(len(lam))) + l[i]
                       for i in range(len(lam)))
                 for lam in level for l in freqs}
    return sorted(level)


def bareiss_det(m) -> int:
    """Exact determinant of a square integer matrix (nested lists) by
    fraction-free Bareiss elimination."""
    a = [list(r) for r in m]
    d = len(a)
    sign, prev = 1, 1
    for k in range(d - 1):
        if a[k][k] == 0:
            for i in range(k + 1, d):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[d - 1][d - 1]


def cofactor_adjugate(m) -> list[list[int]]:
    """adj(M)_ij = (-1)^(i+j) det(M with row j and column i removed), the
    minors by `bareiss_det`; adj of a 1x1 matrix is [[1]]."""
    d = len(m)
    if d == 1:
        return [[1]]

    def minor(i, j):
        return [[x for c, x in enumerate(row) if c != j]
                for r, row in enumerate(m) if r != i]

    return [[(-1) ** (i + j) * bareiss_det(minor(j, i)) for j in range(d)]
            for i in range(d)]


def shear_reference(r1, r, c, a, letters) -> np.ndarray:
    """Quasi-product shear g = sum_k D_k a_{letters[k-1]} as the float
    double sum D_k = -sum_{j<k} R^{-(j+1)} C R1^{-(k-j)}, from LAPACK
    inverses; r1 is r x r, r is d x d, c is d x r and a holds the outer
    digits as rows."""
    r1_inv = np.linalg.inv(np.atleast_2d(np.array(r1, dtype=float)))
    r_inv = np.linalg.inv(np.atleast_2d(np.array(r, dtype=float)))
    c = np.array(c, dtype=float).reshape(len(r_inv), len(r1_inv))
    a = np.array(a, dtype=float).reshape(-1, len(r1_inv))
    power = np.linalg.matrix_power
    out = np.zeros(len(r_inv))
    for k, letter in enumerate(letters, start=1):
        d_k = -sum(power(r_inv, j + 1) @ c @ power(r1_inv, k - j)
                   for j in range(k))
        out += d_k @ a[letter]
    return out


def level_product_ft(levels, xi: float) -> complex:
    """Finite 1-D product prod_k mean_b exp(-2 pi i b xi / (r_1...r_k)) over
    plain (r, digits) levels: the transform of a finite convolution."""
    out, scale = 1 + 0j, 1
    for r, digits in levels:
        scale *= r
        out *= sum(cmath.exp(-2j * math.pi * b * xi / scale)
                   for b in digits) / len(digits)
    return out


def dense_fn_sigmas(levels, lambdas, moduli) -> tuple[np.ndarray, float]:
    """(eigvalsh(F* F), max |U* U - I|) for the dense level matrix F = D U.

    levels holds plain (R, B) per level 1..n: R an integer or a square
    integer matrix, B a list of integer digits or digit vectors. The level-n
    atoms b_w = sum_k (R_k...R_1)^{-1} b_k and the phases <b_w, lambda> mod 1
    are exact Fractions; U = [e^{-2 pi i <b_w, lambda>}] / sqrt(M_n) has one
    row per given lambda and D = diag(moduli).
    """
    atoms = [[Fraction(0)] * len(np.atleast_1d(lambdas[0]))]
    cums = cumulative_inverses([r for r, _ in levels])
    for cum, (_, digits) in zip(cums, levels):
        scaled = [[sum(row[j] * int(x) for j, x in enumerate(np.atleast_1d(b)))
                   for row in cum] for b in digits]
        atoms = [[a + s for a, s in zip(atom, sb)]
                 for atom in atoms for sb in scaled]
    phase = np.array([[float(sum(b * int(x) for b, x in
                                 zip(atom, np.atleast_1d(lam))) % 1)
                       for atom in atoms] for lam in lambdas])
    u = np.exp(-2j * np.pi * phase) / math.sqrt(len(atoms))
    f = np.asarray(moduli, dtype=float)[:, None] * u
    unitary_err = float(np.abs(u.conj().T @ u - np.eye(len(atoms))).max())
    return np.linalg.eigvalsh(f.conj().T @ f), unitary_err


def near_pairs_1d_loop(values, prefixes, tol: float) -> int:
    """Pairs of 1-D points strictly within tol whose prefixes differ.

    The sort-and-scan loop that the vectorised count replaced, kept as its
    reference.
    """
    order = np.argsort(values)
    v = np.asarray(values)[order]
    pr = np.asarray(prefixes)[order]
    hits = 0
    for i in range(len(v)):
        k = i + 1
        while k < len(v) and v[k] - v[i] < tol:
            if pr[k] != pr[i]:
                hits += 1
            k += 1
    return hits


def near_pairs_loop(pts, prefixes, tol: float) -> int:
    """Pairs of points in R^d (d >= 2) strictly within tol, in the Euclidean
    norm, whose prefixes differ: every pair, one point at a time.

    The loop that the first-coordinate sweep replaced, kept as its reference.
    """
    pts, prefixes = np.asarray(pts), np.asarray(prefixes)
    hits = 0
    for i in range(len(pts)):
        d = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
        hits += int(((d < tol) & (prefixes[i + 1:] != prefixes[i])).sum())
    return hits


def min_pairwise_gap_loop(pts) -> float:
    """Least Euclidean distance over every pair of points: the loop that the
    first-coordinate sweep replaced, kept as its reference."""
    pts = np.asarray(pts)
    best = math.inf
    for i in range(len(pts) - 1):
        best = min(best, float(np.linalg.norm(pts[i + 1:] - pts[i], axis=1).min()))
    return best


def mask_reference(digits, x) -> complex:
    """m_B(x) = sum_b exp(2 pi i <b, x>) / |B| at one point, term by term
    with cmath; `digits` lists integer vectors and x is one point."""
    return sum(cmath.exp(2j * math.pi * sum(bi * xi for bi, xi in zip(b, x)))
               for b in digits) / len(digits)


def mask_mean_formula(digits, xs) -> np.ndarray:
    """m_B over points xs of shape (..., d) as one exp of the whole phase
    matrix xs B^T and its mean over the digit axis: the formula the
    per-digit kernel replaced, kept as its reference."""
    b = np.asarray(digits, dtype=float).reshape(len(digits), -1)
    return np.exp(2j * np.pi * (xs @ b.T)).mean(axis=-1)
