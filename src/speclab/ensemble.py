"""Monte Carlo over random digit words.

Words are sampled uniformly and independently per position; sample k draws
from a stream seeded by (seed, k) so any subset of samples reproduces in
isolation and results do not depend on the worker count. Finite words stand
in for infinite ones through the repeat-last tail; reports therefore speak
of pass fractions at a stated truncation, never of probability-one claims.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotCompleteResidue
from .linalg import is_complete_residue_set
from .levels import DEFAULT_POLICY, TruncationPolicy, random_word
from .measures import _as_basis, _as_points
from .quasiproduct import _require_tiling_window, lattice_tiling_check
from .spectra import (QPoint, SpectrumGenerator, _grid_points, _q_grid,
                      _q_rows, _require_dim, _require_window, check_spectrum,
                      window_notes)
from .triples import HadamardTriple


@functools.lru_cache(maxsize=8)
def _words(n_letters: int, length: int, count: int,
           seed: int) -> tuple[tuple[int, ...], ...]:
    """The words of `sample_words`, drawn once and shared by the reports."""
    return tuple(tuple(int(x) for x in np.random.default_rng([seed, k])
                       .integers(0, n_letters, size=length))
                 for k in range(count))


def sample_words(n_letters: int, length: int, count: int,
                 seed: int = 0) -> list[tuple[int, ...]]:
    """count uniform words over {0..n_letters-1}; word k comes from the
    stream seeded by (seed, k)."""
    if n_letters < 1 or length < 1 or count < 1 or seed < 0:
        raise InvalidInput("need n_letters, length, count >= 1 and seed >= 0")
    return list(_words(n_letters, length, count, seed))


@dataclass
class EnsembleConfig:
    triples: Sequence[HadamardTriple]
    generator: SpectrumGenerator
    word_length: int = 20
    samples: int = 200
    seed: int = 0
    grid: int | np.ndarray = 32
    window: int = 64
    eps_complete: float = 0.01
    eps_orth: float = 1e-4
    policy: TruncationPolicy = DEFAULT_POLICY
    workers: int = 1
    tail: str = "repeat_last"

    def __post_init__(self):
        if not self.triples:
            raise DimensionMismatch("an ensemble needs at least one triple")
        _require_dim(self.triples[0].dim, self.generator)
        _require_window(self.window)
        if min(self.samples, self.word_length) < 1:
            raise InvalidInput(
                f"samples and word_length must be >= 1, got {self.samples} "
                f"and {self.word_length}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")

    def echo(self) -> dict:
        return {
            "n_letters": len(self.triples), "word_length": self.word_length,
            "samples": self.samples, "seed": self.seed,
            "grid": int(self.grid) if isinstance(self.grid, (int, np.integer))
            else np.asarray(self.grid).tolist(),
            "window": self.window, "eps_complete": self.eps_complete,
            "eps_orth": self.eps_orth, "workers": self.workers,
            "tail": self.tail, "generator": self.generator.describe(),
            "policy": asdict(self.policy),
        }


@dataclass(slots=True)
class SampleVerdict:
    index: int
    word: tuple[int, ...]
    passed: bool
    min_q: float
    max_q: float
    error: str | None = None


@dataclass
class EnsembleReport:
    kind: str
    config: dict
    verdicts: list[SampleVerdict]
    pass_fraction: float
    min_q_min: float
    min_q_median: float
    min_q_p5: float
    failing_words: list[tuple[int, ...]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    # samples that raised, counted by exception type name
    error_counts: dict[str, int] = field(default_factory=dict)

    def csv_rows(self) -> list[str]:
        lines = ["index,word,min_q,max_q,passed,error"]
        for v in self.verdicts:
            word = "".join(str(d) for d in v.word)
            lines.append(f"{v.index},{word},{v.min_q!r},{v.max_q!r},"
                         f"{int(v.passed)},{v.error or ''}")
        return lines


def _sample(cfg: EnsembleConfig, check, k: int) -> SampleVerdict:
    """Verdict for word k; check(sys) gives (passed, min_q, max_q)."""
    word = _words(len(cfg.triples), cfg.word_length, cfg.samples, cfg.seed)[k]
    try:
        passed, min_q, max_q = check(random_word(cfg.triples, word, tail=cfg.tail))
        return SampleVerdict(k, word, passed, min_q, max_q)
    except Exception as exc:  # recorded, not fatal
        return SampleVerdict(k, word, False, float("nan"), float("nan"),
                             error=f"{type(exc).__name__}: {exc}")


def _spectrum_check(cfg: EnsembleConfig, sys) -> tuple[bool, float, float]:
    rep = check_spectrum(sys, cfg.generator, cfg.grid, window=cfg.window,
                         eps_complete=cfg.eps_complete, eps_orth=cfg.eps_orth,
                         pol=cfg.policy)
    return rep.passed, rep.min_q, rep.max_q


def _tiling_check(cfg: EnsembleConfig, basis, tol: float,
                  sys) -> tuple[bool, float, float]:
    """The off-lattice mass stands in for both min_q and max_q."""
    rep = lattice_tiling_check(sys, basis, window=cfg.window, pol=cfg.policy,
                               tol=tol)
    return rep.passed, rep.max_offlattice_mass, rep.max_offlattice_mass


def _run_samples(runner, cfg: EnsembleConfig) -> list[SampleVerdict]:
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            verdicts = list(pool.map(runner, range(cfg.samples)))
    else:
        verdicts = [runner(k) for k in range(cfg.samples)]
    return sorted(verdicts, key=lambda v: v.index)


def _aggregate(kind: str, cfg: EnsembleConfig,
               verdicts: list[SampleVerdict]) -> EnsembleReport:
    min_qs = [v.min_q for v in verdicts if not np.isnan(v.min_q)]
    min_qs_sorted = sorted(min_qs) or [float("nan")]
    p5 = min_qs_sorted[max(0, int(0.05 * len(min_qs_sorted)) - 1)] \
        if len(min_qs_sorted) > 1 else min_qs_sorted[0]
    return EnsembleReport(
        kind=kind, config=cfg.echo(), verdicts=verdicts,
        pass_fraction=sum(v.passed for v in verdicts) / len(verdicts),
        error_counts=dict(sorted(Counter(v.error.split(":", 1)[0]
                                         for v in verdicts if v.error).items())),
        min_q_min=min(min_qs_sorted), min_q_median=statistics.median(min_qs_sorted),
        min_q_p5=p5,
        failing_words=[v.word for v in verdicts if not v.passed])


def ensemble_spectrum_report(cfg: EnsembleConfig) -> EnsembleReport:
    """check_spectrum over `samples` random words; order-independent."""
    _grid_points(cfg.generator.dim, cfg.grid)  # refuse a bad grid up front
    runner = functools.partial(
        _sample, cfg, functools.partial(_spectrum_check, cfg))
    rep = _aggregate("ensemble_spectrum", cfg, _run_samples(runner, cfg))
    rep.notes = window_notes(cfg.generator, cfg.window, rep.min_q_min,
                             cfg.eps_complete)
    return rep


def ensemble_tiling_report(cfg: EnsembleConfig, basis,
                           tol: float = 1e-7) -> EnsembleReport:
    """lattice_tiling_check over random words.

    Requires every digit set to be a complete residue system for its R and
    a basis of the family's dimension; min_q/max_q columns carry the
    off-lattice mass instead of Q.
    """
    basis = _as_basis(cfg.generator.dim, basis)
    _require_tiling_window(cfg.window)
    for t in cfg.triples:
        if not is_complete_residue_set(t.R, t.B.vectors):
            raise NotCompleteResidue(
                f"digit set {t.B.vectors} is not a complete residue system")
    runner = functools.partial(
        _sample, cfg, functools.partial(_tiling_check, cfg, basis, tol))
    return _aggregate("ensemble_tiling", cfg, _run_samples(runner, cfg))


@dataclass
class ProbeReport:
    word: tuple[int, ...]
    rows: list[QPoint]
    verdict: str
    threshold: float
    config: dict


def counterexample_probe(triples: Sequence[HadamardTriple], word,
                         gen: SpectrumGenerator, probes,
                         window: int = 200,
                         pol: TruncationPolicy = DEFAULT_POLICY,
                         q_slack: float = 0.01,
                         tail: str = "repeat_last") -> ProbeReport:
    """Q at chosen probe points for one explicit word.

    Verdict "NonSpectralEvidence" when some probe falls below
    1 - 10 * q_slack; anything above reads "consistent". The lambda = 0 term
    contributes |mu^(xi)|^2 <= 1, so probes at xi = 0 always stay near 1.
    """
    sys = random_word(triples, tuple(int(x) for x in word), tail=tail)
    pts = _as_points(sys.dim, probes, "'probes'")
    q, slack, terms = _q_grid(sys, gen, pts, window, pol)
    rows = _q_rows(pts, q, slack, terms)
    threshold = 1.0 - 10.0 * q_slack
    verdict = "NonSpectralEvidence" if q.min() < threshold else "consistent"
    return ProbeReport(tuple(int(x) for x in word), rows, verdict, threshold,
                       {"window": window, "q_slack": q_slack, "tail": tail})
