"""Layer tracing for the benchmark, done from outside the package.

A layer is one speclab module. Every public module-level function of a layer
module is wrapped on every speclab namespace that binds it: a function
imported into another module (``ft_eval_many`` into ``spectra``,
``quasiproduct`` and ``ensemble``, say) is a separate binding there, and
calls through it would otherwise go unseen. Methods are not wrapped, so their
time counts toward the calling function's span.

Spans are kept in memory as ``[id, parent, op, name, start, end, attrs]`` and
written once at the end of a run. ``op`` is the workload's id for the
operation that caused the span. A span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
from collections import Counter
from time import perf_counter

LAYERS = ("triples", "linalg", "measures", "spectra", "cycles", "quasiproduct",
          "ensemble", "cli")

# exact rational routines counted as linalg.exact_calls
LINALG_EXACT = {f"linalg.{n}" for n in (
    "det", "is_expansive", "solve_exact", "rat_inverse",
    "is_complete_residue_set", "residue_classes_distinct",
    "contraction_factor", "multi_step_contraction")}
FT = {f"measures.{n}" for n in ("ft_eval", "ft_eval_many", "ft_tail_eval",
                                 "ft_tail_eval_many", "ft_partial_eval")}
Q_SUMS = {"spectra.check_spectrum", "spectra.qp_eval"}
LEVEL_WORDS = {"spectra.lambda_n", "spectra.lambda_word_values",
               "spectra.level_words"}
CYCLE_SEARCH = {"cycles.find_extreme_cycles", "cycles.common_extreme_cycles"}
ASSEMBLE = {"quasiproduct.quasi_product_spec", "quasiproduct.build_quasi_product",
            "quasiproduct.build_1d_padding"}
ENSEMBLE_REPORTS = {"ensemble.ensemble_spectrum_report",
                    "ensemble.ensemble_tiling_report"}
SAMPLE_CHECKS = {"spectra.check_spectrum", "quasiproduct.lattice_tiling_check"}

# bytes per evaluated digit-mask term: one complex128
MASK_TERM_BYTES = 16


def _ft_attrs(name, bound_args, result):
    """Points, product depth, digit-mask evaluations and largest tail bound."""
    import numpy as np

    a = bound_args.arguments
    sys = a["sys"]
    pts = np.asarray(a["xi"], dtype=float).reshape(-1, sys.dim)
    if name == "measures.ft_partial_eval":
        depth, skip, bound = a["n"], 0, 0.0
    else:
        norm = float(np.linalg.norm(pts, axis=1).max(initial=0.0))
        depth = sys.depth_for(norm, a["pol"])
        skip = a.get("skip_upto", 0)
        if "n" in a:
            depth, skip = max(depth, a["n"]), a["n"]
        bounds = result[1] if isinstance(result, tuple) else [result.tail_bound]
        bound = float(np.max(bounds)) if len(bounds) else 0.0
    digits = 0
    for k in range(skip + 1, depth + 1):
        t = sys.triple_at(k)
        digits += 0 if t is None else len(t.B)
    return {"points": len(pts), "depth": depth, "mask_evals": len(pts) * digits,
            "tail_bound": bound}


def _q_terms(name, bound_args, result):
    if name == "spectra.qp_eval":
        return {"terms": result.terms}
    return {"terms": sum(r.terms for r in result.rows)}


def _ensemble_attrs(name, bound_args, result):
    errors = Counter(v.error.split(":", 1)[0] for v in result.verdicts
                     if v.error is not None)
    return {"samples": len(result.verdicts), "errors": dict(errors)}


EXTRACT = {
    **{n: _ft_attrs for n in FT},
    **{n: _q_terms for n in Q_SUMS},
    "spectra.build_fn": lambda n, b, r: {"m": len(r.lambdas)},
    "cycles.find_extreme_cycles": lambda n, b, r: {"found": len(r)},
    "cycles.common_extreme_cycles": lambda n, b, r: {"found": len(r)},
    "quasiproduct.lattice_tiling_check": lambda n, b, r: {"points": r.checked},
    **{n: _ensemble_attrs for n in ENSEMBLE_REPORTS},
}


class Tracer:
    """Wraps speclab's public functions while installed; records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("speclab")
        modules = {layer: importlib.import_module(f"speclab.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for ns in (pkg, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        extract = EXTRACT.get(name)
        sig = inspect.signature(fn) if extract else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, self.op, name,
                      0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            ok = False
            record[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                record[5] = perf_counter()
                stack.pop()
            if not ok:
                record[6] = {"error": True}
            elif extract is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                record[6] = extract(name, bound, result)
            return result

        return traced

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, parent, op, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(spans: list[list]) -> tuple[dict, dict]:
    """Per-layer metrics over a list of spans, plus ensemble errors by type.

    Counts and times of a family of functions that call each other (ft_eval
    calls ft_eval_many, say) are taken from its outermost spans only.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)

    def dur(s):
        return s[5] - s[4]

    def self_time(s):
        return dur(s) - sum(map(dur, children.get(s[0], ())))

    def outermost(names):
        out = []
        for s in spans:
            if s[3] not in names:
                continue
            p = by_id.get(s[1])
            while p is not None and p[3] not in names:
                p = by_id.get(p[1])
            if p is None:
                out.append(s)
        return out

    def named(names):
        return [s for s in spans if s[3] in names]

    def attr(s, key, default=0):
        return (s[6] or {}).get(key, default)

    def inside(s, names):
        """Total duration of the outermost `names` spans below s."""
        total, todo = 0.0, [s[0]]
        while todo:
            for c in children.get(todo.pop(), ()):
                if c[3] in names:
                    total += dur(c)
                else:
                    todo.append(c[0])
        return total

    m: dict[str, float] = {}
    m["triples.verify_calls"] = len(named({"triples.verify_hadamard"}))
    m["triples.verify_s"] = sum(map(dur, outermost({"triples.verify_hadamard"})))
    m["linalg.exact_calls"] = len(named(LINALG_EXACT))
    m["linalg.exact_s"] = sum(map(dur, outermost(LINALG_EXACT)))

    ft = outermost(FT)
    evals = sum(attr(s, "mask_evals") for s in ft)
    ft_self = sum(map(self_time, ft))
    m["measures.ft_calls"] = len(ft)
    m["measures.ft_points"] = sum(attr(s, "points") for s in ft)
    m["measures.depth_max"] = max((attr(s, "depth") for s in ft), default=0)
    m["measures.ft_mask_evals"] = evals
    m["measures.ft_bytes_computed"] = evals * MASK_TERM_BYTES
    m["measures.ft_self_s"] = ft_self
    m["measures.ft_rate"] = evals / ft_self if ft_self > 0 else 0.0
    m["measures.tail_bound_max"] = max((attr(s, "tail_bound", 0.0) for s in ft),
                                       default=0.0)

    q = outermost(Q_SUMS)
    m["spectra.q_calls"] = len(q)
    m["spectra.q_terms"] = sum(attr(s, "terms") for s in q)
    m["spectra.q_self_s"] = sum(map(self_time, q))
    fn = named({"spectra.build_fn"})
    m["spectra.fn_calls"] = len(fn)
    m["spectra.fn_m_max"] = max((attr(s, "m") for s in fn), default=0)
    m["spectra.fn_self_s"] = sum(map(self_time, fn))
    m["spectra.fn_ft_s"] = sum(inside(s, FT) for s in fn)
    m["spectra.lambda_s"] = sum(map(dur, outermost(LEVEL_WORDS)))
    orth = named({"spectra.orthogonality_check"})
    m["spectra.orth_calls"] = len(orth)
    m["spectra.orth_pairs"] = sum(attr(c, "points") for s in orth
                                  for c in children.get(s[0], ()) if c[3] in FT)
    m["spectra.orth_s"] = sum(map(dur, orth))

    search = outermost(CYCLE_SEARCH)
    words = len(named({"cycles.fixed_point_of_word"}))
    found = sum(attr(s, "found") for s in search)
    m["cycles.search_calls"] = len(search)
    m["cycles.words_tried"] = words
    m["cycles.found"] = found
    m["cycles.found_per_word"] = found / words if words else 0.0
    m["cycles.search_s"] = sum(map(dur, search))
    m["cycles.spectrum_s"] = sum(map(dur, outermost(
        {"cycles.dynamically_simple_spectrum"})))

    tiling = named({"quasiproduct.lattice_tiling_check"})
    m["quasiproduct.tiling_calls"] = len(tiling)
    m["quasiproduct.tiling_points"] = sum(attr(s, "points") for s in tiling)
    m["quasiproduct.tiling_self_s"] = sum(map(self_time, tiling))
    m["quasiproduct.assemble_s"] = sum(map(dur, outermost(ASSEMBLE)))

    reports = outermost(ENSEMBLE_REPORTS)
    samples = sum(attr(s, "samples") for s in reports)
    by_type = Counter()
    for s in reports:
        by_type.update(attr(s, "errors", {}))
    errors = sum(by_type.values())
    m["ensemble.samples"] = samples
    m["ensemble.sample_self_s"] = sum(dur(s) - inside(s, SAMPLE_CHECKS)
                                      for s in reports)
    m["ensemble.errors"] = errors
    m["ensemble.ok_frac"] = (samples - errors) / samples if samples else 1.0

    mains = [dur(s) for s in outermost({"cli.main"})]
    m["cli.main_s"] = statistics.median(mains) if mains else 0.0
    return m, dict(by_type)
