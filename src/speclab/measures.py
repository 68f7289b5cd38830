"""Fourier transforms, support geometry and no-overlap of the measures.

The measure mu = delta_{R_1^{-1}B_1} * delta_{(R_2 R_1)^{-1}B_2} * ... is
the level sequence `levels.ConvolutionSystem`; the float kernels here read
its exact level table. Transforms are truncated products with a certified
tail bound: with c bounding the per-level contraction of (R_k^T)^{-1},
|m_B(eta) - 1| <= 2 pi max|b| |eta| and |eta_k| <= c^k |xi| give

    |mu^(xi) - prod_{k<=K}| <= |prod_{k<=K}| * (exp(sum_{k>K} eps_k) - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidInput
from .levels import (ConvolutionSystem, DEFAULT_POLICY, TruncationPolicy,
                     _atom_count, level_word_sums)
from .linalg import residue_classes_distinct
from .triples import HadamardTriple, _mask

# -- Fourier transform -------------------------------------------------------


@dataclass(frozen=True)
class FtValue:
    value: complex
    tail_bound: float


def _as_points(dim: int, x, what: str = "xi") -> np.ndarray:
    """x as an (m, dim) float array of points in R^dim.

    The one shape rule for points, grids and frequency sets: in 1-D a
    scalar, a flat list or an (m, 1) array; in R^dim a length-dim vector
    (one point) or an (m, dim) array, with m >= 1. Anything else raises.
    """
    pts = np.asarray(x, dtype=float)
    if not pts.size:
        raise DimensionMismatch(f"{what} must list at least one point")
    if dim == 1 and pts.ndim < 2:
        return pts.reshape(-1, 1)
    if pts.shape == (dim,):
        return pts.reshape(1, dim)
    if pts.ndim == 2 and pts.shape[1] == dim:
        return pts
    raise DimensionMismatch(f"{what} must be points in R^{dim}, "
                            f"got an array of shape {pts.shape}")


def _as_point(dim: int, x, what: str = "xi") -> np.ndarray:
    """x as a (1, dim) array: the rule of `_as_points`, for exactly one point."""
    pts = _as_points(dim, x, what)
    if len(pts) != 1:
        raise DimensionMismatch(f"{what} must be one point in R^{dim}, "
                                f"got {len(pts)}")
    return pts


def _as_basis(dim: int, x) -> np.ndarray:
    """x as a dim x dim float lattice basis; a bare number is a 1-D basis."""
    basis = np.atleast_2d(np.asarray(x, dtype=float))
    if basis.shape != (dim, dim):
        raise DimensionMismatch(f"lattice basis must be {dim}x{dim}, "
                                f"got an array of shape {np.shape(x)}")
    return basis


def _ft_product(sys: ConvolutionSystem, pts: np.ndarray, depth: int,
                skip_upto: int = 0) -> np.ndarray:
    """prod_{skip_upto < k <= depth} conj(m_{B_k})((R_k...R_1)^{-T} xi).

    With xi as a row, eta_k = xi C_k comes straight from the level table,
    so the skipped levels cost nothing; conj m_B(eta) = m_B(-eta), and
    negating C_k negates every phase exactly.
    """
    vals = np.ones(len(pts), dtype=complex)
    cum = sys.cumulative_inverse(depth)
    for k in range(skip_upto + 1, depth + 1):
        if (t := sys.triple_at(k)) is not None:
            vals *= _mask(t.B, pts @ -cum[k - 1])
    return vals


def ft_eval_many(sys: ConvolutionSystem, xi, pol: TruncationPolicy = DEFAULT_POLICY,
                 skip_upto: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Fourier transform at an array of points; returns (values, tail bounds).

    With skip_upto = n it is the transform of the tail measure mu_{>n}, and
    the product runs at least to level n.
    """
    pts = _as_points(sys.dim, xi)
    norms = np.linalg.norm(pts, axis=1)
    depth = max(sys.depth_for(float(norms.max(initial=0.0)), pol), skip_upto)
    vals = _ft_product(sys, pts, depth, skip_upto)
    amp = 2.0 * math.pi * sys.max_digit_norm * norms
    bounds = np.abs(vals) * np.expm1(amp * sys.tail_norm_sum(depth))
    return vals, bounds


def ft_eval(sys: ConvolutionSystem, xi, pol: TruncationPolicy = DEFAULT_POLICY) -> FtValue:
    """mu^(xi) as a truncated product with a certified tail bound."""
    vals, bounds = ft_eval_many(sys, _as_point(sys.dim, xi), pol)
    return FtValue(complex(vals[0]), float(bounds[0]))


def ft_tail_eval_many(sys: ConvolutionSystem, n: int, xi,
                      pol: TruncationPolicy = DEFAULT_POLICY) -> tuple[np.ndarray, np.ndarray]:
    """Transform of the tail measure mu_{>n} at an array of points."""
    if n < 0:
        raise InvalidInput("level must be >= 0")
    return ft_eval_many(sys, xi, pol, skip_upto=n)


def ft_tail_eval(sys: ConvolutionSystem, n: int, xi,
                 pol: TruncationPolicy = DEFAULT_POLICY) -> FtValue:
    vals, bounds = ft_tail_eval_many(sys, n, _as_point(sys.dim, xi), pol)
    return FtValue(complex(vals[0]), float(bounds[0]))


def ft_partial_eval(sys: ConvolutionSystem, n: int, xi) -> complex:
    """Transform of the finite convolution mu_n (exact product, no tail)."""
    if n < 0:
        raise InvalidInput("level must be >= 0")
    return complex(_ft_product(sys, _as_point(sys.dim, xi), n)[0])


# -- support geometry --------------------------------------------------------


def support_radius(sys: ConvolutionSystem, from_level: int = 0) -> float:
    """Certified Euclidean radius bound for the attractor K_{from_level}."""
    return sys.max_digit_norm * sys.tail_norm_sum(from_level)


def support_bbox(sys: ConvolutionSystem) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box certified to contain the support K_0."""
    rho = support_radius(sys, 0)
    lo = np.full(sys.dim, -rho)
    hi = np.full(sys.dim, rho)
    return lo, hi


def sample_support(sys: ConvolutionSystem, n: int, count: int,
                   seed: int = 0) -> np.ndarray:
    """count i.i.d. draws of sum_{k<=n} (R_k...R_1)^{-1} b_k, uniform digits."""
    if n < 1:
        raise InvalidInput("need at least one digit level")
    if count < 1:
        raise InvalidInput(f"count must be >= 1, got {count}")
    return _sample_atoms(sys, n, count, np.random.default_rng(seed))[1]


# -- no-overlap assessment ----------------------------------------------------


@dataclass(frozen=True)
class NoOverlapReport:
    verdict: str                 # "proven" | "assumed" | "estimated"
    level: int
    p_hat: float | None = None
    detail: dict = field(default_factory=dict)


def _exact_atoms(sys: ConvolutionSystem, n: int) -> tuple[list[tuple], np.ndarray]:
    """All level-n atoms in digit-word order, exactly and as floats.

    The atom sum_k N_k b_k / D_k is the integer numerator sum_k N_k b_k
    (D / D_k) over D = |D_n|, and numerator / D rounds it once.
    """
    table = sys._level_table(n)
    den = abs(table[-1][1])

    def options(k: int, t: HadamardTriple) -> list[list[int]]:
        num, den_k = table[k - 1]
        return [[x * (den // den_k) for x in num.apply(b)] for b in t.B.vectors]

    nums = level_word_sums(sys, n, options)
    return nums, np.array([[x / den for x in v] for v in nums])


def no_overlap_assess(sys: ConvolutionSystem, n: int, samples: int = 4096,
                      seed: int = 0, extra_depth: int = 8,
                      cap: int = 4096) -> NoOverlapReport:
    """Assess the no-overlap condition for levels 1..n.

    Proven: exact separation certificate (digit residues distinct at every
    level, level-n atoms pairwise farther apart than a certified diameter
    bound on K_n). Assumed: the level sequence repeats one verified triple
    from level 1 on, so the measure is self-affine (no overlap is known for
    that class). Estimated: fraction of deep-level atom
    pairs with distinct level-n prefixes that land within the tail diameter
    bound; sampling never upgrades to Proven.
    """
    if n < 1:
        raise InvalidInput("level must be >= 1")
    if samples < 1 or extra_depth < 0:
        raise InvalidInput("need samples >= 1 and extra_depth >= 0")
    triples_used = {id(t): t for t in map(sys.triple_at, range(1, n + 1))
                    if t is not None}
    if all(len(t.B) == 1 for t in triples_used.values()):
        return NoOverlapReport("proven", n, detail={"reason": "singleton digits"})

    m_n = _atom_count(sys, n)
    # distinct digit residues at every level make the atoms distinct: b_n is
    # R_n...R_1 x mod R_n, then b_{n-1} likewise, and so on down
    if m_n <= cap and all(residue_classes_distinct(t.R, t.B.vectors)
                          for t in triples_used.values()):
        diam = 2.0 * support_radius(sys, n)
        min_gap = _min_pairwise_gap(_exact_atoms(sys, n)[1])
        if min_gap > diam:
            return NoOverlapReport("proven", n, detail={
                "min_gap": min_gap, "tail_diameter_bound": diam})
    if not sys.prefix and len(sys.period) == 1:
        return NoOverlapReport("assumed", n, detail={
            "reason": "self-affine measure of a verified Hadamard triple"})

    # Deep-enumeration / Monte-Carlo estimate. Translate overlap shows up as
    # level-m atoms from different level-n digit prefixes falling within the
    # diameter bound of the level-m tail.
    m = n + extra_depth
    tol = max(2.0 * support_radius(sys, m), 1e-12)
    if _atom_count(sys, m) <= cap:
        _, pts = _exact_atoms(sys, m)
        # digit-word order puts each level-n prefix in one contiguous block
        prefixes = np.arange(len(pts)) // (len(pts) // m_n)
        hits, pairs = _near_pairs(pts, prefixes, tol)
        mode = "exhaustive"
    else:
        rng = np.random.default_rng(seed)
        w1, p1 = _sample_atoms(sys, m, samples, rng)
        w2, p2 = _sample_atoms(sys, m, samples, rng)
        cross = ~np.all(w1[:, :n] == w2[:, :n], axis=1)
        close = np.linalg.norm(p1 - p2, axis=1) < tol
        hits = int((close & cross).sum())
        pairs = int(cross.sum())
        mode = "sampled"
    p_hat = hits / max(pairs, 1)
    return NoOverlapReport("estimated", n, p_hat=p_hat, detail={
        "deep_level": m, "near_pairs": hits, "pairs": pairs,
        "tolerance": tol, "mode": mode})


def _sample_atoms(sys: ConvolutionSystem, m: int, count: int, rng):
    """(digit words, float atom positions) for `count` random level-m atoms."""
    words = np.zeros((count, m), dtype=np.int64)
    pts = np.zeros((count, sys.dim))
    cum = sys.cumulative_inverse(m)
    for k in range(1, m + 1):
        t = sys.triple_at(k)
        if t is None:
            break
        digits = t.B.as_numpy()
        idx = rng.integers(0, len(digits), size=count)
        words[:, k - 1] = idx
        pts += digits[idx] @ cum[k - 1].T
    return words, pts


def _min_pairwise_gap(pts: np.ndarray) -> float:
    if len(pts) < 2:
        return math.inf
    # sweep the points in order of their first coordinate, one offset at a
    # time; once every pair at an offset is a first-coordinate gap >= best
    # apart, so is every pair further on
    p = pts[np.argsort(pts[:, 0])]
    best = math.inf
    for s in range(1, len(p)):
        if (p[s:, 0] - p[:-s, 0]).min() >= best:
            break
        best = min(best, float(np.linalg.norm(p[s:] - p[:-s], axis=1).min()))
    return best


def _sweep_ends(v: np.ndarray, tol: float) -> np.ndarray:
    """For ascending v, the first k > i with v[k] - v[i] >= tol, for each i."""
    n = len(v)
    i = np.arange(n)
    hi = np.maximum(np.searchsorted(v, v + tol), i + 1)
    # searchsorted tests v[k] < v[i] + tol, which rounds differently; step
    # each boundary to where v[k] - v[i] < tol itself turns false
    while (up := (hi < n) & (v[np.minimum(hi, n - 1)] - v < tol)).any():
        hi += up
    while (down := (hi > i + 1) & (v[hi - 1] - v >= tol)).any():
        hi -= down
    return hi


def _near_pairs(pts: np.ndarray, prefixes: np.ndarray,
                tol: float) -> tuple[int, int]:
    """(#cross-prefix pairs strictly within tol, #cross-prefix pairs)."""
    n = len(pts)
    _, counts = np.unique(prefixes, return_counts=True)
    total_cross = n * (n - 1) // 2 - int((counts * (counts - 1) // 2).sum())
    # a pair whose first coordinates lie tol or more apart has a norm of at
    # least tol (sqrt(x * x) rounds back to |x|), so only pairs inside each
    # point's first-coordinate window are measured, one offset at a time
    order = np.argsort(pts[:, 0])
    p, pre = pts[order], prefixes[order]
    reach = _sweep_ends(p[:, 0], tol) - np.arange(n)
    hits = 0
    for s in range(1, int(reach.max())):
        i = np.flatnonzero(reach > s)
        d = np.linalg.norm(p[i + s] - p[i], axis=1)
        hits += int(((d < tol) & (pre[i + s] != pre[i])).sum())
    return hits, total_cross
