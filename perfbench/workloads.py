"""The four benchmark workloads.

Each workload is a closed loop with one client: one process that waits for
each result before it issues the next call. A workload builds its inputs from
the seed in ``setup``, runs one fixed amount of work per ``run_pass`` and
returns one ``Op`` per operation, and checks every pass's outputs in
``verify`` after the timed phase. Truncation is always the library's default
policy (target tail error 1e-10); the grids, windows, sample counts, ``m_max``
and ``n_max`` below fix the amount of work, so computing less fails the
checks instead of reading as faster.

``setup`` imports speclab itself, so its time includes the import.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any

TARGET = 1e-10
# a reported tail bound may exceed the target only by rounding
TARGET_SLACK = TARGET * (1 + 1e-6)
REPEAT_TOL = 1e-12


@dataclass
class Op:
    seconds: float
    output: Any = None
    error: str | None = None


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _close(a, b, tol=REPEAT_TOL) -> bool:
    import numpy as np
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


class Workload:
    name = ""
    ops_per_pass = 0

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.mark = lambda label: None   # set by a tracer to tag spans

    def setup(self) -> None:
        raise NotImplementedError

    def timed_setup(self) -> float:
        """Run the set-up and return its seconds."""
        start = perf_counter()
        self.setup()
        return perf_counter() - start

    def run_pass(self, p: int) -> list[Op]:
        raise NotImplementedError

    def verify(self, passes: list[list[Op]]) -> dict[tuple[int, int], str]:
        """Failure reason per (pass, op) index; empty when all are correct."""
        raise NotImplementedError

    def _timed(self, label: str, fn, *args, **kwargs) -> Op:
        self.mark(label)
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # one failed op, recorded; the loop goes on
            return Op(perf_counter() - start, None, _error(exc))
        return Op(perf_counter() - start, out)


def _sl():
    return importlib.import_module("speclab")


def _oracles():
    return importlib.import_module("oracles")


def _repeat_failures(passes, same) -> dict:
    """Later passes must reproduce the first pass's outputs."""
    bad = {}
    for p in range(1, len(passes)):
        for k, (first, op) in enumerate(zip(passes[0], passes[p])):
            if op.error is None and first.error is None and not same(first.output, op.output):
                bad[(p, k)] = "output differs from pass 0"
    return bad


def _fail_all(passes, k, reason, bad):
    for p in range(len(passes)):
        bad.setdefault((p, k), reason)


# -- ensemble ------------------------------------------------------------------


class Ensemble(Workload):
    """Random-word ensemble, the c07/c08 shapes (Laba & Wang 2002).

    Why: about 93% of its time is the truncated-product kernel on about
    4,128 points per word, plus Q sums and per-sample fan-out. All words
    share R, the mechanism behind ROADMAP items 1 and 4. The tiling half uses
    the same kernel on only 128 points per word, so a table-building gain
    that costs small point sets shows up there.

    One op is one word: its spectrum check plus its tiling check. A word's
    latency is the time of those two calls, seen through thin timers on the
    two names the ensemble module calls; if an implementation stops calling
    them once per word, each word gets the report's time divided by the
    number of words.
    """

    name = "ensemble"
    SAMPLES, LENGTH, GRID, WINDOW = 200, 20, 32, 64
    ORACLE_WORDS = 4
    ops_per_pass = SAMPLES

    def setup(self):
        sl = _sl()
        self.family = [sl.triple(2, [0, 1], [0, 1]), sl.triple(2, [0, 3], [0, 1])]
        self.word_seed = random.Random(f"ensemble/{self.seed}").randrange(2 ** 31)
        self.cfg = sl.EnsembleConfig(
            triples=self.family, generator=sl.LatticeGenerator([[1]]),
            word_length=self.LENGTH, samples=self.SAMPLES, seed=self.word_seed,
            grid=self.GRID, window=self.WINDOW, workers=1)

    def _timed_report(self, report, *args):
        """Run one ensemble report; per-word call times from thin timers."""
        ens = importlib.import_module("speclab.ensemble")
        times = []
        saved = {n: getattr(ens, n) for n in ("check_spectrum", "lattice_tiling_check")}

        def timer(fn):
            def call(*a, **k):
                t0 = perf_counter()
                try:
                    return fn(*a, **k)
                finally:
                    times.append(perf_counter() - t0)
            return call

        for n, fn in saved.items():
            setattr(ens, n, timer(fn))
        start = perf_counter()
        try:
            rep = report(*args)
        finally:
            elapsed = perf_counter() - start
            for n, fn in saved.items():
                setattr(ens, n, fn)
        if len(times) != self.SAMPLES:
            times = [elapsed / self.SAMPLES] * self.SAMPLES
        return rep, times

    def run_pass(self, p):
        sl = _sl()
        self.mark(f"p{p}.spectrum")
        try:
            spec, t_spec = self._timed_report(sl.ensemble_spectrum_report, self.cfg)
            self.mark(f"p{p}.tiling")
            tile, t_tile = self._timed_report(sl.ensemble_tiling_report, self.cfg, 1.0)
        except Exception as exc:
            return [Op(0.0, None, _error(exc)) for _ in range(self.SAMPLES)]
        ops = []
        for k in range(self.SAMPLES):
            vs = spec.verdicts[k] if k < len(spec.verdicts) else None
            vt = tile.verdicts[k] if k < len(tile.verdicts) else None
            errors = [v.error for v in (vs, vt) if v is not None and v.error]
            ops.append(Op(t_spec[k] + t_tile[k], (spec, tile, vs, vt),
                          "; ".join(errors) or None))
        return ops

    def verify(self, passes):
        import numpy as np
        sl, orc = _sl(), _oracles()
        bad = {}
        words = [tuple(int(x) for x in np.random.default_rng([self.word_seed, k])
                       .integers(0, 2, size=self.LENGTH)) for k in range(self.SAMPLES)]
        for p, ops in enumerate(passes):
            if ops[0].output is None:
                continue
            spec, tile = ops[0].output[:2]
            for rep, kind in ((spec, "ensemble_spectrum"), (tile, "ensemble_tiling")):
                c = rep.config
                echoed = (rep.kind == kind and c["samples"] == self.SAMPLES
                          and c["grid"] == self.GRID and c["window"] == self.WINDOW
                          and c["word_length"] == self.LENGTH
                          and c["policy"]["depth"] is None
                          and c["policy"]["target_error"] == TARGET
                          and len(rep.verdicts) == self.SAMPLES)
                if not echoed:
                    for k in range(self.SAMPLES):
                        bad.setdefault((p, k), f"{kind} report does not echo the fixed work")
            for k, op in enumerate(ops):
                _, _, vs, vt = op.output
                if vs is None or vt is None or vs.index != k or vt.index != k:
                    bad.setdefault((p, k), "missing verdict")
                elif vs.word != words[k] or vt.word != words[k]:
                    bad.setdefault((p, k), "verdict for another word")
                elif not vs.max_q <= 1 + 1e-4:
                    bad.setdefault((p, k), f"max Q {vs.max_q} > 1 + 1e-4")
                elif not vt.passed:
                    # both digit sets are complete residue systems mod 2, so
                    # every word's measure tiles by Z
                    bad.setdefault((p, k), f"tiling verdict FAIL ({vt.min_q:.3g})")
        bad.update(_repeat_failures(passes, lambda a, b: (
            (a[2].min_q, a[2].max_q, a[2].passed, a[3].min_q, a[3].passed)
            == (b[2].min_q, b[2].max_q, b[2].passed, b[3].min_q, b[3].passed))))

        # independent recomputation of min Q for a seeded subset of words, and
        # the tail bounds reached at exactly the points each check evaluates
        pick = random.Random(f"ensemble-oracle/{self.seed}").sample(
            range(self.SAMPLES), self.ORACLE_WORDS)
        grid = np.arange(self.GRID) / self.GRID
        lattice = np.arange(-self.WINDOW, self.WINDOW + 1)
        for k in pick:
            vs = passes[0][k].output and passes[0][k].output[2]
            if vs is None:
                continue
            word = words[k]
            q = [sum(orc.word_ft_abs(word, x + n) ** 2 for n in lattice) for x in grid]
            if abs(min(q) - vs.min_q) > 1e-9:
                _fail_all(passes, k, f"min Q {vs.min_q!r} != oracle {min(q)!r}", bad)
            sys_ = sl.random_word(self.family, word)
            _, b1 = sl.ft_eval_many(sys_, (grid[:, None] + lattice[None, :]).ravel())
            _, b2 = sl.ft_eval_many(sys_, lattice[lattice != 0].astype(float))
            if max(b1.max(), b2.max()) > TARGET_SLACK:
                _fail_all(passes, k, "tail bound above the policy target", bad)
        return bad


# -- level matrices ------------------------------------------------------------


class LevelMatrices(Workload):
    """build_fn(sys, n) for n = 1..n_max on five systems.

    Why: spectra does most of the work here: the Fraction phase loop, the
    gram matmul and eigvalsh (at n = 10, eigvalsh is about 0.32 s of 1.15 s
    under a profiler). The kernel gets only M_n points per call. This is the
    work strichartz_report does, kept under FN_SIZE_CAP so the parent commit
    runs it. ROADMAP item 2 (F_n = D_n U_n) should move this workload and
    leave ``ensemble`` alone.
    """

    name = "level_matrices"
    WORDS, WORD_LENGTH = 3, 10
    ops_per_pass = 10 + 6 + WORDS * 10

    def setup(self):
        sl = _sl()
        family = [sl.triple(2, [0, 1], [0, 1]), sl.triple(2, [0, 3], [0, 1])]
        rng = random.Random(f"level_matrices/{self.seed}")
        self.systems = [
            ("quarter_cantor", sl.self_affine(sl.triple(4, [0, 2], [0, 1])), 10, 2),
            ("ternary", sl.self_affine(sl.triple(3, [0, 1, 2], [0, 1, 2])), 6, 3),
        ]
        for i in range(self.WORDS):
            word = tuple(rng.randrange(2) for _ in range(self.WORD_LENGTH))
            self.systems.append((f"word{i}", sl.random_word(family, word), 10, 2))

    def _build(self, sys_, n):
        fn = _sl().build_fn(sys_, n)
        # keep what verification needs, drop the dense matrix
        return {"n": fn.n, "m": len(fn.lambdas), "sigmas": fn.sigmas,
                "moduli": fn.tail_moduli, "bounds": fn.tail_bounds,
                "lambdas": fn.lambdas, "collisions": fn.collisions}

    def _plan(self):
        return [(label, s, n, digits) for label, s, n_max, digits in self.systems
                for n in range(1, n_max + 1)]

    def run_pass(self, p):
        return [self._timed(f"p{p}.{label}.n{n}", self._build, s, n)
                for label, s, n, _ in self._plan()]

    def verify(self, passes):
        import numpy as np
        orc = _oracles()
        bad = {}
        plan = self._plan()
        for p, ops in enumerate(passes):
            for k, ((label, _, n, digits), op) in enumerate(zip(plan, ops)):
                out = op.output
                if out is None:
                    continue
                if out["n"] != n or out["m"] != digits ** n or out["collisions"]:
                    bad[(p, k)] = f"{label} n={n}: level size or collisions off"
                elif np.max(out["bounds"]) > TARGET_SLACK:
                    bad[(p, k)] = f"{label} n={n}: tail bound above the policy target"
                elif not np.max(np.abs(np.sort(out["sigmas"])
                                       - np.sort(out["moduli"] ** 2))) <= 1e-8:
                    bad[(p, k)] = f"{label} n={n}: sigma(F*F) != tail moduli squared"
        for k, (label, _, n, _) in enumerate(plan):
            out = passes[0][k].output
            if label != "quarter_cantor" or out is None:
                continue
            ref = [orc.scale4_tail_abs(lam[0], n) for lam in out["lambdas"]]
            if not np.max(np.abs(np.array(ref) - out["moduli"])) <= 1e-9:
                _fail_all(passes, k, f"quarter-Cantor tail moduli off at n={n}", bad)
        bad.update(_repeat_failures(passes, lambda a, b: (
            _close(a["sigmas"], b["sigmas"]) and _close(a["moduli"], b["moduli"]))))
        return bad


# -- exact search --------------------------------------------------------------


def _rat_inverse(m):
    """Gauss-Jordan inverse of a small integer matrix over Fractions."""
    d = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
         for i, row in enumerate(m)]
    for c in range(d):
        piv = next(r for r in range(c, d) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(d):
            if r != c and a[r][c] != 0:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[d:] for row in a]


def cycle_problem(r, digits, freqs, points) -> str | None:
    """Exact check that `points` is one extreme cycle of the dual maps.

    Every point must have integral <b, x> for all digits b, and exactly one
    map tau_l(x) = (R^T)^{-1}(x + l) must lead to another point of the set;
    following those maps from any point must visit the whole set and return.
    """
    rows = [[r]] if isinstance(r, int) else r
    d = len(rows)
    inv_t = _rat_inverse([[rows[j][i] for j in range(d)] for i in range(d)])
    vec = (lambda v: (v,)) if d == 1 else tuple
    pts = [tuple(Fraction(x) for x in p) for p in points]
    pset = set(pts)
    if len(pset) != len(pts) or not pts:
        return "repeated or missing points"
    for x in pts:
        if any(sum(Fraction(b) * xi for b, xi in zip(vec(bv), x)).denominator != 1
               for bv in digits):
            return f"not extreme at {x}"
    succ = {}
    for x in pts:
        nxt = set()
        for lv in freqs:
            y = [xi + li for xi, li in zip(x, vec(lv))]
            z = tuple(sum(inv_t[i][j] * y[j] for j in range(d)) for i in range(d))
            if z in pset:
                nxt.add(z)
        if len(nxt) != 1:
            return f"{len(nxt)} successors in the cycle at {x}"
        succ[x] = nxt.pop()
    x, seen = pts[0], []
    for _ in pts:
        seen.append(x)
        x = succ[x]
    if x != pts[0] or len(set(seen)) != len(pts):
        return "orbit does not close over the whole set"
    return None


class ExactSearch(Workload):
    """One measure at a time: extreme cycles and the instruments on their
    spectra (Dutkay & Jorgensen 2007).

    Why: each triple is studied alone, with no shared R. The cycle search
    (ROADMAP item 3) and exact linalg take about a third of a pass, and the
    kernel runs on 2-D and non-dyadic (R = 3) single systems, where an
    ensemble-table optimisation must not apply: the prediction there is no
    change. The kernel takes most of the rest, above all in the ternary
    cycle-spectrum sweep (2 * 3^8 frequencies on 64 grid points). The seed
    picks the probe-grid offsets. One op is one instrument call, 34 a pass:
    each cycle-spectrum sweep runs as eight calls of eight grid points, so
    that no single op takes seconds (the ternary sweep takes about 3.5 s
    whole, and no longer in pieces).

    The 2-D binary triple is the 2-D Lebesgue triple. Its cycle-spectrum
    sweep at grid 64 would need 64^2 * 4 * 4^8 (about 1e9) transform points,
    so it gets the lattice checks against Z^2 instead.
    """

    name = "exact_search"
    TRIPLES = [
        ("quarter_cantor", 4, [0, 2], [0, 1], 12),
        ("ternary", 3, [0, 1, 2], [0, 1, 2], 8),
        ("two_three_seven", 2, [0, 3], [0, 7], 10),
        ("quarter_cantor_l3", 4, [0, 2], [0, 3], 10),
        ("lebesgue_2d", [[2, 0], [0, 2]], [[0, 0], [1, 0], [0, 1], [1, 1]],
         [[0, 0], [1, 0], [0, 1], [1, 1]], 4),
    ]
    # the 1-D triples whose cycles are all integer points
    SPECTRAL = ("quarter_cantor", "ternary", "quarter_cantor_l3")
    GRID, WINDOW, GRID_2D, TILING_WINDOW = 64, 8, 16, 32
    CHUNK = 8   # grid points per check_spectrum call
    CHUNKS = GRID // CHUNK
    ops_per_pass = len(TRIPLES) + (CHUNKS + 1) * len(SPECTRAL) + 2

    def setup(self):
        import numpy as np
        sl = _sl()
        rng = random.Random(f"exact_search/{self.seed}")
        self.triples = {label: sl.triple(r, b, l) for label, r, b, l, _ in self.TRIPLES}
        self.systems = {label: sl.self_affine(self.triples[label])
                        for label in (*self.SPECTRAL, "lebesgue_2d")}
        self.grid = ((np.arange(self.GRID) + rng.random()) / self.GRID)[:, None]
        offset = np.array([rng.random(), rng.random()]) / self.GRID_2D
        self.grid_2d = sl.uniform_grid(self.GRID_2D, 2) + offset

    def run_pass(self, p):
        import numpy as np
        sl = _sl()
        ops, cycles = [], {}
        for label, *_, m_max in self.TRIPLES:
            op = self._timed(f"p{p}.cycles.{label}", sl.find_extreme_cycles,
                             self.triples[label], m_max)
            cycles[label] = op.output
            ops.append(op)
        for label in self.SPECTRAL:
            sys_ = self.systems[label]
            if cycles[label] is None:
                ops += [Op(0.0, None, "no cycles to generate a spectrum")
                        for _ in range(self.CHUNKS + 1)]
                continue
            gen = sl.CycleSpectrumGenerator(self.triples[label], cycles[label])
            for c in range(0, self.GRID, self.CHUNK):
                ops.append(self._timed(f"p{p}.check.{label}.{c}", sl.check_spectrum, sys_,
                                       gen, self.grid[c:c + self.CHUNK], window=self.WINDOW))
            ops.append(self._timed(f"p{p}.orth.{label}", sl.orthogonality_check,
                                   sys_, gen, self.WINDOW))
        leb = self.systems["lebesgue_2d"]
        ops.append(self._timed(f"p{p}.check.lebesgue_2d", sl.check_spectrum, leb,
                               sl.LatticeGenerator(np.eye(2)), self.grid_2d,
                               window=self.WINDOW))
        ops.append(self._timed(f"p{p}.tiling.lebesgue_2d", sl.lattice_tiling_check,
                               leb, np.eye(2), window=self.TILING_WINDOW))
        return ops

    def _check_report(self, rep, grid_points):
        per_term = 2 * TARGET_SLACK + TARGET_SLACK ** 2
        if rep.params["window"] != self.WINDOW or rep.params["grid_points"] != grid_points:
            return "check does not echo the fixed window and grid"
        if rep.params["policy"]["target_error"] != TARGET or rep.params["policy"]["depth"] is not None:
            return "check ran under another truncation policy"
        if any(row.q_bound > row.terms * per_term for row in rep.rows):
            return "tail bound above the policy target"
        return None

    def verify(self, passes):
        import numpy as np
        cyc_mod = importlib.import_module("speclab.cycles")
        orc = _oracles()
        bad = {}
        ops0 = passes[0]
        k = 0
        for label, r, b, l, m_max in self.TRIPLES:
            cycles = ops0[k].output
            if cycles is not None:
                problem = None
                summary = cyc_mod.search_summary(self.triples[label], cycles, m_max)
                if summary["m_max"] != m_max or any(c.period > m_max for c in cycles):
                    problem = "search does not echo m_max"
                for c in cycles:
                    problem = problem or cycle_problem(r, b, l, c.points)
                if problem is None and isinstance(r, int):
                    found = {frozenset(p[0] for p in c.points)
                             for c in cycles if c.period <= 6}
                    if found != orc.extreme_cycles_bruteforce_1d(r, b, l, 6):
                        problem = "cycles of period <= 6 differ from the brute-force oracle"
                if problem is None and label == "two_three_seven" and \
                        [c.period for c in cycles] != [1, 1, 2, 3, 3, 6, 6]:
                    problem = f"periods {[c.period for c in cycles]} != 1,1,2,3,3,6,6"
                integer = all(x.denominator == 1 for c in cycles for p in c.points for x in p)
                if problem is None and isinstance(r, int) and integer != (label in self.SPECTRAL):
                    problem = "integer cycle spectrum expected only for " + ", ".join(self.SPECTRAL)
                if problem:
                    _fail_all(passes, k, f"{label}: {problem}", bad)
            k += 1
        for label in self.SPECTRAL:
            for c in range(self.CHUNKS):
                rep = ops0[k + c].output
                if rep is None:
                    continue
                problem = self._check_report(rep, self.CHUNK)
                if problem is None and not _close(
                        [row.xi[0] for row in rep.rows],
                        self.grid[c * self.CHUNK:(c + 1) * self.CHUNK, 0]):
                    problem = "check swept other grid points"
                if problem is None and not (rep.passed and rep.max_q <= 1 + 1e-4):
                    problem = f"cycle spectrum check FAIL (min Q {rep.min_q:.6f})"
                if problem:
                    _fail_all(passes, k + c, f"{label}: {problem}", bad)
            k += self.CHUNKS
            orth = ops0[k].output
            if orth is not None and not orth <= 1e-9:
                _fail_all(passes, k, f"{label}: |mu^(l - l')| = {orth:.3g}", bad)
            k += 1
        rep = ops0[k].output
        if rep is not None:
            problem = self._check_report(rep, self.GRID_2D ** 2)
            if problem is None:
                # Lebesgue on [0,1]^2: Q factors into two 1-D window sums
                ref = [orc.lebesgue_lattice_q(row.xi[0], self.WINDOW)
                       * orc.lebesgue_lattice_q(row.xi[1], self.WINDOW) for row in rep.rows]
                if not np.max(np.abs(np.array(ref) - [row.q for row in rep.rows])) <= 1e-9:
                    problem = "2-D Lebesgue Q differs from the sinc oracle"
            if problem:
                _fail_all(passes, k, f"lebesgue_2d: {problem}", bad)
        tiling = ops0[k + 1].output
        if tiling is not None and not (
                tiling.passed and tiling.window == self.TILING_WINDOW
                and tiling.checked == (2 * self.TILING_WINDOW + 1) ** 2 - 1):
            _fail_all(passes, k + 1, "lebesgue_2d: Z^2 tiling check FAIL or window off", bad)

        def same(a, b):
            if isinstance(a, list):
                return a == b
            if isinstance(a, float):
                return _close(a, b)
            if hasattr(a, "rows"):
                return _close([r.q for r in a.rows], [r.q for r in b.rows])
            return a.passed == b.passed and _close(a.max_offlattice_mass, b.max_offlattice_mass)

        bad.update(_repeat_failures(passes, same))
        return bad


# -- cli -----------------------------------------------------------------------

FAMILY = [{"R": 2, "B": [0, 1], "L": [0, 1]}, {"R": 2, "B": [0, 3], "L": [0, 1]}]
QC = {"R": 4, "B": [0, 2], "L": [0, 1]}
VERIFY_POOL = [{"R": 2, "B": [0, 1], "L": [0, 1]}, {"R": 2, "B": [0, 3], "L": [0, 1]},
               QC, {"R": 4, "B": [0, 2], "L": [0, 3]},
               {"R": 3, "B": [0, 1, 2], "L": [0, 1, 2]}, {"R": 2, "B": [0, 3], "L": [0, 7]}]
# two-letter 1-D triples: the same necklace count, so similar search cost
CYCLES_POOL = [QC, {"R": 4, "B": [0, 2], "L": [0, 3]}, {"R": 2, "B": [0, 3], "L": [0, 1]},
               {"R": 2, "B": [0, 1], "L": [0, 1]}, {"R": 2, "B": [0, 3], "L": [0, 7]}]
REPORT_KEYS = {
    "verify": {"config", "passed", "residual", "size", "dim"},
    "cycles": {"config", "m_max", "complete_for_periods_up_to",
               "containment_radius", "cycles"},
    "spectrum": {"config", "level", "frequencies"},
    "check": {"kind", "params", "min_q", "max_q", "passed", "rows"},
    "strichartz": {"config", "levels", "floor_sigma_min",
                   "floor_min_tail_modulus", "verdict"},
    "quasiproduct": {"config", "spec", "triple", "residual", "passed"},
    "tiling": {"config"},
    "probe": {"word", "verdict", "threshold", "config", "rows"},
    "random": {"kind", "config", "verdicts", "pass_fraction"},
}


def _triples_in(payload):
    """(R, B, L) of every triple a CLI input names."""
    if isinstance(payload, list):
        for x in payload:
            yield from _triples_in(x)
    elif isinstance(payload, dict):
        if {"R", "B", "L"} <= payload.keys():
            yield payload["R"], payload["B"], payload["L"]
        if {"R1", "a", "L1"} <= payload.keys():   # quasi-product spec
            yield payload["R1"], payload["a"], payload["L1"]
            for b in payload["B_family"]:
                yield payload["R"], b, payload["L"]
        for x in payload.values():
            yield from _triples_in(x)


@dataclass
class Invocation:
    command: str
    rep: int
    payload: dict
    flags: list
    expected_exit: int


class Cli(Workload):
    """The speclab CLI, one subprocess at a time, on small inputs.

    Why: each call takes 0.22-0.39 s, and ``import speclab`` is about 0.20 s
    of that (``import numpy`` alone 0.15 s, a bare interpreter 0.055 s).
    Start-up, parsing, verification and report writing dominate, and nothing
    else measures them. They are the last layer in ROADMAP aim 1.

    Each subcommand runs three times on seeded inputs drawn from pools of
    equal cost. Set-up builds the inputs, verifies every triple in them with
    speclab and writes them as JSON files. The expected exit code is part of each op's check: ``random``
    and the quarter-Cantor ``tiling`` exit with 2 by design.
    """

    name = "cli"
    REPS = 3
    COMMANDS = ("verify", "cycles", "spectrum", "check", "strichartz",
                "quasiproduct", "tiling", "probe", "random")
    ops_per_pass = REPS * len(COMMANDS)

    def _invocations(self) -> list[Invocation]:
        out = []
        for command in self.COMMANDS:
            rng = random.Random(f"cli/{self.seed}/{command}")
            for rep in range(self.REPS):
                word8 = [rng.randrange(2) for _ in range(8)]
                flags, code = [], 0
                if command == "verify":
                    payload = rng.choice(VERIFY_POOL)
                elif command == "cycles":
                    payload, flags = rng.choice(CYCLES_POOL), ["--mmax", "8"]
                elif command in ("spectrum", "strichartz"):
                    payload = {"kind": "random_word", "triples": FAMILY, "word": word8}
                    flags = ["--window", "8"]
                elif command == "check":
                    payload = {"system": {"kind": "self_affine", "triples": [QC]},
                               "generator": {"kind": "cycle_spectrum", "triple": QC,
                                             "mmax": rng.randrange(4, 9)}}
                    flags = ["--grid", "64"]
                elif command == "quasiproduct":
                    payload = {"R1": 2, "a": [0, 1], "L1": [0, 1], "R": 2,
                               "B_family": [[0, 1], [0, 3]], "L": [0, 1],
                               "C": [[rng.randrange(4)]]}
                elif command == "tiling":
                    # a Lebesgue-type word tiles by Z; quarter-Cantor does not
                    payload, code = [
                        ({"kind": "random_word", "triples": FAMILY, "word": word8,
                          "lattice": 1}, 0),
                        ({"kind": "self_affine", "triples": [QC], "lattice": 1}, 2),
                        ({"triples": FAMILY, "lattice": 1}, 0)][rep]
                    if rep == 2:
                        flags = ["--samples", "20", "--seed", str(rng.randrange(10 ** 6))]
                elif command == "probe":
                    # a word ending in {0,3}-levels has Q far below 1 near 1/2
                    payload = {"triples": FAMILY, "word": word8[:3] + [1, 1, 1],
                               "probes": [0.5 + rng.uniform(-0.05, 0.05)],
                               "generator": {"kind": "lattice", "basis": 1}}
                    code = 2
                else:  # random: windowed pass fraction is far below 0.9
                    payload = {"triples": FAMILY, "generator": {"kind": "lattice", "basis": 1}}
                    flags = ["--samples", "20", "--window", "16",
                             "--seed", str(rng.randrange(10 ** 6))]
                    code = 2
                out.append(Invocation(command, rep, payload, flags, code))
        return out

    def setup(self):
        self.invocations = self._invocations()
        sl = _sl()
        self.inputs = []
        for inv in self.invocations:
            # every triple written must be a Hadamard triple, so that the
            # expected exit codes hold
            for r, b, l in _triples_in(inv.payload):
                sl.triple(r, b, l)
            path = self.workdir / f"{inv.command}{inv.rep}.json"
            path.write_text(json.dumps(inv.payload))
            self.inputs.append(path)
        self.in_process = False
        self.peak_rss_kb = 0
        self.report_bytes = {}
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def _argv(self, inv, path, out):
        return [inv.command, "--input", str(path), "--out", str(out), *inv.flags]

    def _spawn(self, argv, out):
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            proc = subprocess.Popen([sys.executable, "-m", "speclab.cli", *argv],
                                    stdout=so, stderr=se, env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def _main(self, argv, out):
        import contextlib
        import io
        cli = importlib.import_module("speclab.cli")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code

    def run_pass(self, p):
        run = self._main if self.in_process else self._spawn
        tag = "t" if self.in_process else "p"
        ops = []
        for inv, path in zip(self.invocations, self.inputs):
            out = self.workdir / f"{tag}{p}" / f"{inv.command}{inv.rep}"
            op = self._timed(f"p{p}.{inv.command}{inv.rep}", run,
                             self._argv(inv, path, out), out)
            op.output = (op.output, out)
            ops.append(op)
        self.report_bytes[p] = sum(f.stat().st_size for f in (self.workdir / f"{tag}{p}").rglob("*")
                                   if f.is_file() and f.name not in ("stdout.txt", "stderr.txt"))
        return ops

    def exit_mismatches(self, ops) -> int:
        return sum(op.output[0] != inv.expected_exit
                   for op, inv in zip(ops, self.invocations))

    def _report_problem(self, inv, out: Path) -> str | None:
        orc = _oracles()
        name = f"{inv.command}_report.json"
        try:
            rep = json.loads((out / name).read_text())
        except (OSError, ValueError) as exc:
            return f"{name}: {_error(exc)}"
        missing = REPORT_KEYS[inv.command] - set(rep)
        if missing:
            return f"{name} lacks {sorted(missing)}"
        c = inv.command
        if c == "verify" and not (rep["passed"] and rep["residual"] < 1e-9):
            return "verify did not pass"
        if c == "cycles":
            if rep["m_max"] != 8:
                return "cycles does not echo --mmax 8"
            t = inv.payload
            for cyc in rep["cycles"]:
                problem = cycle_problem(t["R"], t["B"], t["L"], [[Fraction(x) for x in p] for p in cyc["points"]])
                if problem:
                    return f"cycle {cyc['points']}: {problem}"
        if c == "spectrum" and (rep["level"] != 8 or rep["frequencies"] != [[i] for i in range(256)]):
            # Lambda_8 = {0, ..., 255} for R = 2, L = {0, 1}, whatever the word
            return "spectrum is not Lambda_8 = {0..255}"
        if c == "check" and not (rep["passed"] and rep["params"]["window"] == 8
                                 and rep["params"]["grid_points"] == 64 and len(rep["rows"]) == 64):
            return "check failed or does not echo grid 64, window 8"
        if c == "strichartz" and not (rep["config"]["n_max"] == 8 and len(rep["levels"]) == 8
                                      and rep["floor_sigma_min"] > 0):
            return "strichartz does not cover n = 1..8 with a positive floor"
        if c == "quasiproduct" and not (rep["passed"] and rep["residual"] < 1e-9
                                        and rep["triple"]["R"][1][0] == inv.payload["C"][0][0]):
            return "quasiproduct assembly off"
        if c == "tiling":
            if inv.rep < 2:
                r = rep.get("report", {})
                if r.get("window") != 8 or r.get("checked") != 16:
                    return "tiling does not echo window 8"
                if inv.rep == 1 and abs(r["max_offlattice_mass"] - orc.scale4_ft_abs(2.0)) > 1e-9:
                    return "quarter-Cantor off-lattice mass differs from the oracle"
            elif len(rep.get("verdicts", [])) != 20 or not all(v["passed"] for v in rep["verdicts"]):
                return "family tiling did not pass 20 of 20 words"
        if c == "probe":
            xi, word = inv.payload["probes"][0], inv.payload["word"]
            ref = sum(orc.word_ft_abs(word, xi + n) ** 2 for n in range(-8, 9))
            if rep["verdict"] != "NonSpectralEvidence" or abs(rep["rows"][0]["q"] - ref) > 1e-9:
                return f"probe Q {rep['rows'][0]['q']!r} != oracle {ref!r}"
        if c == "random":
            cfg, vs = rep["config"], rep["verdicts"]
            if not (cfg["samples"] == 20 and cfg["window"] == 16 and cfg["word_length"] == 20
                    and len(vs) == 20 and rep["pass_fraction"] < 0.9):
                return "random does not echo 20 samples at window 16"
            if any(v["error"] is not None or v["max_q"] > 1 + 1e-4 for v in vs):
                return "random has errored samples or max Q > 1 + 1e-4"
        return None

    def verify(self, passes):
        bad = {}
        for p, ops in enumerate(passes):
            for k, (op, inv) in enumerate(zip(ops, self.invocations)):
                if op.error is not None:
                    continue
                code, out = op.output
                if code != inv.expected_exit:
                    bad[(p, k)] = f"{inv.command}{inv.rep}: exit {code}, expected {inv.expected_exit}"
                else:
                    problem = self._report_problem(inv, out)
                    if problem:
                        bad[(p, k)] = f"{inv.command}{inv.rep}: {problem}"
        return bad


WORKLOADS = {w.name: w for w in (Ensemble, LevelMatrices, ExactSearch, Cli)}
