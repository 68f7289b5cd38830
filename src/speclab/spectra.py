"""Candidate spectra and completeness diagnostics.

The level frequency sets Lambda_n come from `levels`; three instruments,
all driven by the truncated Fourier product, test them and other candidates:

* the level matrices F_n = [ |mu_{>n}^(lambda)| e^{-2 pi i <b, lambda>} ] /
  sqrt(M_n) and their minimum "singular value", here the minimum eigenvalue
  of F* F (squared classical singular values; this convention is used
  throughout, including reports), read off the tail moduli because the
  phase part of F_n is unitary;
* the completeness functional Q(xi) = sum_lambda |mu^(xi + lambda)|^2, which
  equals 1 identically exactly when the frequency set is a spectrum;
* the transfer operator Rf(xi) = sum_l |m_B(tau_l xi)|^2 f(tau_l xi), whose
  fixed points include Q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .cycles import ExtremeCycle, _spectrum_seeds
from .errors import DimensionMismatch, InvalidInput, SizeCap, VerificationFailed
from .levels import (ConvolutionSystem, DEFAULT_POLICY, TruncationPolicy,
                     _atom_count, _level_set, lambda_n, lambda_word_values,
                     self_affine)
from .measures import (_as_basis, _as_point, _as_points, _ft_product,
                       ft_eval_many, ft_tail_eval_many)
from .triples import HadamardTriple, mask_eval_many, tau_float_many

FN_SIZE_CAP = 2 ** 18


# -- spectrum generators ------------------------------------------------------


class SpectrumGenerator:
    """Level-indexed producer of finite integer frequency sets.

    level(n) returns an (m, d) integer array; levels are nested for the
    level-set and cycle-spectrum kinds, and 0 is always in level(0).
    `windowed` is False only when every level is the whole frequency set.
    """

    dim: int
    windowed = True

    def level(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


def _require_dim(dim: int, gen: SpectrumGenerator) -> None:
    """Raise DimensionMismatch unless gen's frequencies lie in R^dim."""
    if gen.dim != dim:
        raise DimensionMismatch(f"{gen.describe()['kind']} generator is "
                                f"{gen.dim}-D but the system is {dim}-D")


def _require_window(window: int) -> None:
    """Raise DimensionMismatch for a negative window, which lists no level."""
    if window < 0:
        raise DimensionMismatch(f"the window must be >= 0, got {window}")


class LevelSetsGenerator(SpectrumGenerator):
    """Lambda_n + R_1^T...R_n^T S for the system's own triples, with S the
    negated points of `cycles`: S = {0} without cycles (None), so level n is
    Lambda_n = L_1 + R_1^T L_2 + ... and level 0 is {0}."""

    cycles = None

    def __init__(self, sys: ConvolutionSystem):
        self.sys = sys
        self.dim = sys.dim

    def level(self, n: int) -> np.ndarray:
        seeds = None if self.cycles is None else _spectrum_seeds(self.cycles)
        return np.array(_level_set(self.sys, n, seeds), dtype=float)

    def describe(self) -> dict:
        return {"kind": "level_sets"}


class CycleSpectrumGenerator(LevelSetsGenerator):
    """Spectrum generated by extreme cycles, by digit-layer level: the level
    sets of `self_affine(t)` seeded by the cycles."""

    def __init__(self, t: HadamardTriple, cycles: Sequence[ExtremeCycle]):
        super().__init__(self_affine(t))
        self.triple = t
        self.cycles = tuple(cycles)

    def describe(self) -> dict:
        return {"kind": "cycle_spectrum",
                "cycles": [c.to_dict() for c in self.cycles]}


class LatticeGenerator(SpectrumGenerator):
    """Points G m for integer m with ||m||_inf <= level."""

    def __init__(self, basis):
        self.dim = len(basis) if np.ndim(basis) == 2 else 1
        self.basis = _as_basis(self.dim, basis)

    def level(self, n: int) -> np.ndarray:
        _require_window(n)
        rng = np.arange(-n, n + 1)
        coords = np.array(list(itertools.product(rng, repeat=self.dim)),
                          dtype=float)
        return coords @ self.basis.T

    def describe(self) -> dict:
        return {"kind": "lattice", "basis": self.basis.tolist()}


class ExplicitGenerator(SpectrumGenerator):
    """A fixed finite frequency set, identical at every level."""

    windowed = False

    def __init__(self, points):
        self.dim = np.shape(points)[1] if np.ndim(points) == 2 else 1
        self.points = _as_points(self.dim, points, "explicit points")

    def level(self, n: int) -> np.ndarray:
        return self.points

    def describe(self) -> dict:
        return {"kind": "explicit", "count": len(self.points)}


class ProductGenerator(SpectrumGenerator):
    """Cartesian product of two generators (block coordinates)."""

    def __init__(self, first: SpectrumGenerator, second: SpectrumGenerator):
        self.first = first
        self.second = second
        self.dim = first.dim + second.dim
        self.windowed = first.windowed or second.windowed

    def level(self, n: int) -> np.ndarray:
        a = self.first.level(n)
        b = self.second.level(n)
        out = np.zeros((len(a) * len(b), self.dim))
        out[:, :self.first.dim] = np.repeat(a, len(b), axis=0)
        out[:, self.first.dim:] = np.tile(b, (len(a), 1))
        return out

    def describe(self) -> dict:
        return {"kind": "product", "first": self.first.describe(),
                "second": self.second.describe()}


# -- the level matrices F_n ---------------------------------------------------


@dataclass
class FnMatrix:
    """Spectrum of the level matrix F_n, rows recorded for reproducibility.

    `collisions` is always False: build_fn raises on a Lambda_n collision,
    which only a triple that is not genuinely Hadamard can cause.
    """

    n: int
    sigma_min: float
    sigmas: np.ndarray            # eigenvalues of F* F, ascending
    lambdas: list[tuple[int, ...]]   # row order (digit-word order)
    tail_moduli: np.ndarray       # |mu_{>n}^(lambda)| per row
    tail_bounds: np.ndarray
    collisions: bool = False

    @property
    def min_tail_modulus(self) -> float:
        return float(self.tail_moduli.min())


def build_fn(sys: ConvolutionSystem, n: int,
             pol: TruncationPolicy = DEFAULT_POLICY,
             cap: int = FN_SIZE_CAP) -> FnMatrix:
    """Eigenvalue spectrum of F_n, read off the tail moduli.

    F_n = D_n U_n with D_n = diag |mu_{>n}^(lambda)| over lambda in Lambda_n
    and U_n = [e^{-2 pi i <b_w, lambda>}] / sqrt(M_n) over the level-n atoms
    b_w. When every level triple is Hadamard, U_n is unitary, so F_n* F_n is
    unitarily similar to D_n^2 and sigma(F_n) = {|mu_{>n}^(lambda)|^2}, with
    no matrix built. ConvolutionSystem verifies every triple on
    construction, the same precondition every transform and tail bound
    relies on. Distinct digit words of Hadamard triples give orthogonal
    rows, so a Lambda_n collision means some triple is not genuinely
    Hadamard and raises VerificationFailed.
    """
    m_n = _atom_count(sys, n)
    if m_n > cap:
        raise SizeCap(f"M_n = {m_n} exceeds cap {cap}")
    lambdas = lambda_word_values(sys, n)
    if len(set(lambdas)) != len(lambdas):
        raise VerificationFailed(
            f"Lambda_{n} has collisions: some level triple is not Hadamard")
    tail_vals, tail_bounds = ft_tail_eval_many(
        sys, n, np.array(lambdas, dtype=float), pol)
    moduli = np.abs(tail_vals)
    sigmas = np.sort(moduli ** 2)
    return FnMatrix(n=n, sigma_min=float(sigmas[0]), sigmas=sigmas,
                    lambdas=lambdas, tail_moduli=moduli,
                    tail_bounds=tail_bounds)


def strichartz_report(sys: ConvolutionSystem, n_max: int,
                      pol: TruncationPolicy = DEFAULT_POLICY,
                      cap: int = FN_SIZE_CAP) -> dict:
    """Per-level sigma_min and tail-modulus floors up to n_max.

    Finite-level evidence only: a positive floor up to n_max says nothing
    about the infimum over all n, and the verdict string is worded
    accordingly.
    """
    if n_max < 1:
        raise InvalidInput("n_max must be >= 1")
    rows = []
    for n in range(1, n_max + 1):
        fn = build_fn(sys, n, pol, cap)
        rows.append({"n": n, "sigma_min": fn.sigma_min,
                     "min_tail_modulus": fn.min_tail_modulus})
    floor_sigma = min(r["sigma_min"] for r in rows)
    floor_tail = min(r["min_tail_modulus"] for r in rows)
    verdict = (f"criterion holds up to n_max={n_max} with floor "
               f"sigma_min={floor_sigma:.6g}, tail={floor_tail:.6g} "
               "(no claim about the infimum over all n)")
    return {"levels": rows, "floor_sigma_min": floor_sigma,
            "floor_min_tail_modulus": floor_tail, "verdict": verdict}


def tail_factor_scan(sys: ConvolutionSystem, n_max: int, depth: int = 20) -> float:
    """min over levels n <= n_max, lambda in Lambda_n, and offsets j <= depth
    of the single-factor modulus |m_{B_{n+j}}((R_{n+j}...R_1)^{-T} lambda)|."""
    best = 1.0
    for n in range(1, n_max + 1):
        lam = np.array(lambda_n(sys, n), dtype=float)
        for k in range(n + 1, n + depth + 1):
            best = min(best, float(np.abs(_ft_product(sys, lam, k, k - 1)).min()))
    return best


# -- completeness functional --------------------------------------------------


@dataclass(frozen=True)
class QValue:
    q: float
    terms: int
    q_bound: float


def qp_eval(sys: ConvolutionSystem, gen: SpectrumGenerator, xi,
            window: int = 8,
            pol: TruncationPolicy = DEFAULT_POLICY) -> QValue:
    """Windowed completeness sum Q(xi) = sum |mu^(xi + lambda)|^2.

    Monotone nondecreasing in the window; the bound accumulates the
    per-term truncation slack 2|v|b + b^2.
    """
    q, slack, terms = _q_grid(sys, gen, _as_point(sys.dim, xi), window, pol)
    return QValue(float(q[0]), terms, float(slack[0]))


def _q_grid(sys: ConvolutionSystem, gen: SpectrumGenerator, grid: np.ndarray,
            window: int, pol: TruncationPolicy) -> tuple[np.ndarray, np.ndarray, int]:
    """Q over an (m, d) grid in one batched transform call."""
    _require_dim(sys.dim, gen)
    _require_window(window)
    lam = gen.level(window)
    pts = grid[:, None, :] + lam[None, :, :]
    vals, bounds = ft_eval_many(sys, pts.reshape(-1, sys.dim), pol)
    vals = vals.reshape(len(grid), len(lam))
    bounds = bounds.reshape(len(grid), len(lam))
    q = (np.abs(vals) ** 2).sum(axis=1)
    slack = (2 * np.abs(vals) * bounds + bounds ** 2).sum(axis=1)
    return q, slack, len(lam)


def window_notes(gen: SpectrumGenerator, window: int, min_q: float,
                 eps_complete: float) -> list[str]:
    """Report notes saying that a Q shortfall was measured over a window only.

    Empty when the sweep met the completeness floor or the generator's
    frequency set was summed in full.
    """
    if not (gen.windowed and min_q < 1 - eps_complete):
        return []
    return [f"windowed: Q sums |mu^(xi + lambda)|^2 only over the frequencies "
            f"of generator level {window}, so a shortfall 1 - Q may be mass "
            "outside the window rather than evidence of incompleteness"]


def uniform_grid(count: int, dim: int) -> np.ndarray:
    """count points per axis in [0, 1)^dim."""
    axes = [np.arange(count) / count for _ in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _grid_points(dim: int, grid) -> np.ndarray:
    """A grid as (m, dim) points; an int is `uniform_grid`'s count per axis."""
    if isinstance(grid, (int, np.integer)):
        grid = uniform_grid(int(grid), dim)
    return _as_points(dim, grid, "grid")


@dataclass
class QPoint:
    xi: tuple[float, ...]
    q: float
    terms: int
    q_bound: float


def _q_rows(pts: np.ndarray, q, slack, terms: int) -> list[QPoint]:
    """One QPoint per point of a Q sweep, as every report lists them."""
    return [QPoint(tuple(map(float, xi)), float(qi), terms, float(si))
            for xi, qi, si in zip(pts, q, slack)]


@dataclass
class AnalysisReport:
    """Result of a grid sweep with every knob echoed for reproducibility."""

    kind: str
    params: dict
    rows: list = field(default_factory=list)
    min_q: float = math.nan
    max_q: float = math.nan
    passed: bool = False
    notes: list = field(default_factory=list)

    def csv_rows(self) -> list[str]:
        dim = len(self.rows[0].xi) if self.rows else 1
        header = ",".join(f"xi_{i}" for i in range(dim)) + ",Q,terms,tail_bound"
        lines = [header]
        for r in self.rows:
            xi = ",".join(repr(x) for x in r.xi)
            lines.append(f"{xi},{r.q!r},{r.terms},{r.q_bound!r}")
        return lines


def check_spectrum(sys: ConvolutionSystem, gen: SpectrumGenerator, grid,
                   window: int = 8, eps_complete: float = 0.01,
                   eps_orth: float = 1e-4,
                   pol: TruncationPolicy = DEFAULT_POLICY) -> AnalysisReport:
    """Grid sweep of Q with pass/fail thresholds.

    Pass means min Q >= 1 - eps_complete and max Q <= 1 + eps_orth. The
    thresholds are parameters because the achievable floor depends on the
    window; the report echoes everything needed to rerun it, and its notes
    say when a completeness shortfall was measured over a window only.
    """
    grid = _grid_points(sys.dim, grid)
    q, slack, terms = _q_grid(sys, gen, grid, window, pol)
    return AnalysisReport(
        kind="spectrum_check",
        params={"generator": gen.describe(), "window": window,
                "eps_complete": eps_complete, "eps_orth": eps_orth,
                "grid_points": len(grid),
                "policy": asdict(pol)},
        rows=_q_rows(grid, q, slack, terms),
        min_q=float(q.min()), max_q=float(q.max()),
        passed=bool(q.min() >= 1 - eps_complete and q.max() <= 1 + eps_orth),
        notes=window_notes(gen, window, float(q.min()), eps_complete))


def orthogonality_check(sys: ConvolutionSystem, gen: SpectrumGenerator,
                        window: int, max_pairs: int = 200_000,
                        pol: TruncationPolicy = DEFAULT_POLICY,
                        seed: int = 0) -> float:
    """max |mu^(lambda - lambda')| over distinct pairs in the window.

    Exhaustive when the pair count fits under max_pairs, otherwise a seeded
    sample of pairs.
    """
    _require_dim(sys.dim, gen)
    _require_window(window)
    if max_pairs < 1:
        raise InvalidInput(f"max_pairs must be >= 1, got {max_pairs}")
    lam = gen.level(window)
    n = len(lam)
    if n < 2:
        return 0.0
    total = n * (n - 1) // 2
    if total <= max_pairs:
        idx = np.triu_indices(n, k=1)
        diffs = lam[idx[0]] - lam[idx[1]]
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=max_pairs)
        j = rng.integers(0, n, size=max_pairs)
        keep = i != j
        diffs = lam[i[keep]] - lam[j[keep]]
    diffs = np.unique(diffs, axis=0)
    vals, _ = ft_eval_many(sys, diffs, pol)
    return float(np.abs(vals).max())


# -- transfer operator --------------------------------------------------------


def transfer_apply(t: HadamardTriple, f: Callable[[np.ndarray], np.ndarray],
                   grid) -> np.ndarray:
    """Pointwise R f(xi) = sum_l |m_B(tau_l xi)|^2 f(tau_l xi) on a grid.

    f is an evaluator over (m, d) arrays, not a table of samples, so no
    interpolation error enters fixed-point tests.
    """
    pts = _as_points(t.dim, grid, "grid")
    out = np.zeros(len(pts))
    for ell in t.L.vectors:
        moved = tau_float_many(t.R, ell, pts)
        w = np.abs(mask_eval_many(t.B, moved)) ** 2
        out += w * np.asarray(f(moved), dtype=float)
    return out


def make_q_evaluator(sys: ConvolutionSystem, gen: SpectrumGenerator,
                     window: int = 8,
                     pol: TruncationPolicy = DEFAULT_POLICY) -> Callable:
    """Vectorized xi -> Q(xi) closure for transfer-operator experiments."""

    def evaluator(pts: np.ndarray) -> np.ndarray:
        q, _, _ = _q_grid(sys, gen, _as_points(sys.dim, pts), window, pol)
        return q

    return evaluator
