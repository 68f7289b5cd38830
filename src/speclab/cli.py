"""Command-line front end.

JSON configs in, JSON/CSV reports out. Exit codes: 0 = pass, 2 = the
mathematical check ran and failed, 1 = operational error (bad input,
malformed JSON, a field of the wrong type, a usage error on the command
line, missing file, an ensemble sample that raised), so shell pipelines can
tell mathematics from tooling.

Input schemas: see the CLI section of the README.

Each process runs one command, so only the standard library and the exact
triple layer (``errors``, ``linalg``, ``triples``) load at start-up; every
command imports the modules it runs. ``verify`` and ``spectrum`` load no
numpy: they read exact integer phases or the one level-set construction
on int tuples (``levels``). Every other command loads numpy for a float
array or a transform, and ``cycles`` for the float containment radius.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import NonIntegerElement, SpeclabError, VerificationFailed
from .triples import HadamardTriple, triple

if TYPE_CHECKING:
    import numpy as np

    from .levels import ConvolutionSystem, TruncationPolicy


class CliError(Exception):
    """Operational error: maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, since 2 means a mathematical check failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return _object(json.load(fh), "input")
    except FileNotFoundError as exc:
        raise CliError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}") from exc


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise CliError(f"{what} must be an object, got {json.dumps(obj)}")
    return obj


def _word(obj: dict) -> tuple[int, ...] | None:
    """obj["word"] as a tuple of integers, None when obj names no word."""
    word = obj.get("word")
    if "word" in obj and not (isinstance(word, list)
                              and all(type(x) is int for x in word)):
        raise CliError(f"'word' must be a list of integers, got {json.dumps(word)}")
    return None if word is None else tuple(word)


def _parse_triple(obj, tol: float, verify: bool = True) -> HadamardTriple:
    for key in ("R", "B", "L"):
        if key not in _object(obj, "triple"):
            raise CliError(f"triple is missing field {key!r}")
    try:
        return triple(obj["R"], obj["B"], obj["L"], tol=tol, require=verify)
    except (ValueError, TypeError, SpeclabError) as exc:
        raise CliError(f"bad triple: {exc}") from exc


def _parse_family(obj, tol: float) -> list[HadamardTriple]:
    """The verified triples of obj["triples"], which must be a nonempty list."""
    items = obj.get("triples") if isinstance(obj, dict) else None
    if not isinstance(items, list) or not items:
        raise CliError("config needs a nonempty 'triples' list")
    return [_parse_triple(t, tol) for t in items]


def _parse_system(obj, tol: float) -> ConvolutionSystem:
    """The system of a JSON config. Its JSON types are checked here and the
    rest in `ConvolutionSystem`; other keys may belong to an enclosing config."""
    from .levels import ConvolutionSystem
    kind = _object(obj, "system").get("kind")
    triples = _parse_family(obj, tol)
    tail = obj.get("tail")
    if "tail" in obj and not isinstance(tail, str):
        raise CliError(f"'tail' must be a string, got {json.dumps(tail)}")
    try:
        return ConvolutionSystem(kind, tuple(triples), _word(obj), tail)
    except (ValueError, TypeError, SpeclabError) as exc:
        raise CliError(f"bad system: {exc}") from exc


def _numeric(x) -> float:
    """JSON numbers plus "p/q" strings for exact rational entries."""
    if isinstance(x, str):
        try:
            return float(Fraction(x))
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(f"bad rational entry {x!r}") from exc
    if type(x) not in (int, float):
        raise CliError(f"expected a number or a 'p/q' string, got {json.dumps(x)}")
    return float(x)


def _numeric_array(x) -> np.ndarray:
    import numpy as np
    if isinstance(x, (list, tuple)):
        rows = [_numeric_array(v) for v in x]
        if len({r.shape for r in rows}) > 1:
            raise CliError(f"ragged array: {json.dumps(x)}")
        return np.array(rows)
    return np.array(_numeric(x))


def _parse_generator(obj, args, dim: int,
                     sysm: ConvolutionSystem | None = None):
    from .measures import _as_basis
    from .spectra import (CycleSpectrumGenerator, ExplicitGenerator,
                          LatticeGenerator, LevelSetsGenerator)
    kind = _object(obj, "generator").get("kind")
    if kind == "level_sets" and sysm is not None:
        return LevelSetsGenerator(sysm)
    if kind == "lattice":
        basis = _numeric_array(obj.get("basis", 1))
        return LatticeGenerator(_as_basis(dim, basis))
    if kind == "cycle_spectrum":
        from .cycles import find_extreme_cycles
        t = _parse_triple(obj.get("triple"), args.tol)
        mmax = obj.get("mmax", args.mmax)
        if type(mmax) is not int or mmax < 1:
            raise CliError(f"'mmax' must be a positive integer, got {json.dumps(mmax)}")
        return CycleSpectrumGenerator(t, find_extreme_cycles(t, mmax))
    if kind == "explicit":
        if "points" not in obj:
            raise CliError("explicit generator needs 'points'")
        return ExplicitGenerator(_numeric_array(obj["points"]))
    raise CliError(f"unknown generator kind {kind!r} "
                   "(level_sets is resolved against a system)")


def _policy(args) -> TruncationPolicy:
    from .levels import TruncationPolicy
    return TruncationPolicy(depth=args.depth)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    """payload as JSON with sorted keys; a report dataclass is its fields."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_value) + "\n")


def _json_value(obj):
    return dataclasses.asdict(obj) if dataclasses.is_dataclass(obj) else str(obj)


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def _effective(args, **extra) -> dict:
    """The run's config: the parsed options, which are those its command reads."""
    return {**vars(args), "version": __version__, **extra}


def _window(args, least: int) -> int:
    if args.window < least:
        raise CliError(f"--window must be >= {least}, got {args.window}")
    return args.window


def _mmax(args) -> int:
    if args.mmax < 1:
        raise CliError("--mmax must be >= 1")
    return args.mmax


def cmd_verify(args) -> int:
    obj = _load_json(args.input)
    # triple() has verified t at args.tol and recorded the outcome on it
    t = _parse_triple(obj, args.tol, verify=False)
    passed = t.status == "verified"
    report = {"config": _effective(args), "passed": passed,
              "residual": t.residual, "size": t.size, "dim": t.dim}
    _write_json(_out_dir(args) / "verify_report.json", report)
    print(f"hadamard check: {'pass' if passed else 'FAIL'} "
          f"(residual {t.residual:.3g}, tol {args.tol:g})")
    return 0 if passed else 2


def cmd_cycles(args) -> int:
    from .cycles import (dynamically_simple_spectrum, find_extreme_cycles,
                         search_summary)
    mmax = _mmax(args)
    obj = _load_json(args.input)
    t = _parse_triple(obj, args.tol)
    cycles = find_extreme_cycles(t, mmax)
    payload = {"config": _effective(args)}
    payload.update(search_summary(t, cycles, mmax))
    if args.spectrum_level is not None:
        payload["spectrum_level"] = args.spectrum_level
        try:
            payload["spectrum"] = [list(p) for p in dynamically_simple_spectrum(
                t, cycles, args.spectrum_level)]
        except NonIntegerElement as exc:
            # cycles with non-integer points generate non-integer frequencies
            payload["spectrum"] = None
            payload["spectrum_note"] = str(exc)
    _write_json(_out_dir(args) / "cycles_report.json", payload)
    print(f"{len(cycles)} extreme cycle(s) with period <= {mmax}")
    return 0


def cmd_spectrum(args) -> int:
    obj = _load_json(args.input)
    system = "kind" in obj  # Lambda_n starts at n = 1, the cycle spectrum at 0
    level = _window(args, 1) if system else args.window
    payload = {"config": _effective(args), "level": level}
    if system:
        from .levels import lambda_n
        frequencies = lambda_n(_parse_system(obj, args.tol), level)
    else:
        from .cycles import dynamically_simple_spectrum, find_extreme_cycles
        t = _parse_triple(obj, args.tol)
        cycles = find_extreme_cycles(t, _mmax(args))
        payload["cycles"] = [c.to_dict() for c in cycles]
        frequencies = dynamically_simple_spectrum(t, cycles, level)
    payload["frequencies"] = [list(p) for p in frequencies]
    _write_json(_out_dir(args) / "spectrum_report.json", payload)
    print(f"{len(frequencies)} frequencies at level {level}")
    return 0


def cmd_check(args) -> int:
    from .spectra import check_spectrum
    obj = _load_json(args.input)
    if "system" not in obj or "generator" not in obj:
        raise CliError("check config needs 'system' and 'generator'")
    sysm = _parse_system(obj["system"], args.tol)
    gen = _parse_generator(obj["generator"], args, sysm.dim, sysm)
    report = check_spectrum(sysm, gen, args.grid, window=args.window,
                            pol=_policy(args))
    report.params["cli"] = _effective(args)
    out = _out_dir(args)
    _write_json(out / "check_report.json", report)
    _write_lines(out / "check_qsweep.csv", report.csv_rows())
    print(f"Q sweep: min={report.min_q:.6f} max={report.max_q:.6f} "
          f"-> {'pass' if report.passed else 'FAIL'}")
    for note in report.notes:
        print(f"note: {note}")
    return 0 if report.passed else 2


def cmd_strichartz(args) -> int:
    from .spectra import strichartz_report
    obj = _load_json(args.input)
    sysm = _parse_system(obj if "kind" in obj else
                         {"kind": "self_affine", "triples": [obj]}, args.tol)
    n_max = _window(args, 1)
    rep = strichartz_report(sysm, n_max, pol=_policy(args))
    rep["config"] = _effective(args, n_max=n_max)
    _write_json(_out_dir(args) / "strichartz_report.json", rep)
    print(rep["verdict"])
    return 0


def cmd_quasiproduct(args) -> int:
    from .quasiproduct import (build_quasi_product, describe_spec,
                               quasi_product_spec)
    obj = _load_json(args.input)
    try:
        spec = quasi_product_spec(obj["R1"], obj["a"], obj["L1"], obj["R"],
                                  obj["B_family"], obj["L"], obj.get("C"))
        big = build_quasi_product(spec, tol=args.tol)
    except KeyError as exc:
        raise CliError(f"quasiproduct config missing field {exc}") from exc
    except VerificationFailed as exc:
        print(f"quasiproduct assembly failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, SpeclabError) as exc:
        raise CliError(f"bad quasiproduct config: {exc}") from exc
    payload = {"config": _effective(args), "spec": describe_spec(spec),
               "triple": {"R": [list(r) for r in big.R.rows],
                          "B": [list(b) for b in big.B.vectors],
                          "L": [list(l) for l in big.L.vectors]},
               # build_quasi_product raised VerificationFailed otherwise
               "residual": big.residual, "passed": True}
    _write_json(_out_dir(args) / "quasiproduct_report.json", payload)
    print(f"assembled {big.size}-digit triple on R^{big.dim}, "
          f"residual {big.residual:.3g}")
    return 0


def _ensemble(args, name: str, triples, gen, run, summary, **kw) -> int:
    """Run an ensemble over the family's random words and write its report
    and samples CSV; exit 1 if any sample raised, else 0 or 2 by the pass
    threshold."""
    from .ensemble import EnsembleConfig
    cfg = EnsembleConfig(triples=triples, generator=gen,
                         word_length=args.word_length, samples=args.samples,
                         seed=args.seed, window=args.window,
                         policy=_policy(args), workers=args.threads, **kw)
    rep = run(cfg)
    rep.config["cli"] = _effective(args)
    out = _out_dir(args)
    _write_json(out / f"{name}_report.json", rep)
    _write_lines(out / f"{name}_samples.csv", rep.csv_rows())
    print(summary(rep))
    for note in rep.notes:
        print(f"note: {note}")
    errors = [v.error for v in rep.verdicts if v.error]
    if errors:
        counts = ", ".join(f"{kind} {n}" for kind, n in rep.error_counts.items())
        print(f"error: {len(errors)} of {len(rep.verdicts)} samples raised "
              f"({counts}); first: {errors[0]}", file=sys.stderr)
        return 1
    return 0 if rep.pass_fraction >= args.pass_threshold else 2


def cmd_random(args) -> int:
    from .ensemble import ensemble_spectrum_report
    obj = _load_json(args.input)
    triples = _parse_family(obj, args.tol)
    gen = _parse_generator(obj.get("generator", {"kind": "lattice", "basis": 1}),
                           args, triples[0].dim)
    return _ensemble(args, "random", triples, gen, ensemble_spectrum_report,
                     lambda rep: f"pass fraction {rep.pass_fraction:.3f} over "
                                 f"{args.samples} words (min Q median "
                                 f"{rep.min_q_median:.4f})", grid=args.grid)


def cmd_tiling(args) -> int:
    obj = _load_json(args.input)
    if "system" in obj or "kind" in obj:
        from .quasiproduct import lattice_tiling_check
        sysm = _parse_system(obj.get("system", obj), args.tol)
        rep = lattice_tiling_check(sysm, _numeric_array(obj.get("lattice", 1)),
                                   window=args.window, pol=_policy(args))
        _write_json(_out_dir(args) / "tiling_report.json",
                    {"config": _effective(args), "report": rep})
        print(f"tiling check: {'pass' if rep.passed else 'FAIL'} "
              f"(max off-lattice mass {rep.max_offlattice_mass:.3g})")
        return 0 if rep.passed else 2
    # family form: per-word ensemble
    from .ensemble import ensemble_tiling_report
    from .measures import _as_basis
    from .spectra import LatticeGenerator
    triples = _parse_family(obj, args.tol)
    basis = _as_basis(triples[0].dim, _numeric_array(obj.get("lattice", 1)))
    return _ensemble(args, "tiling", triples, LatticeGenerator(basis),
                     lambda cfg: ensemble_tiling_report(cfg, basis),
                     lambda rep: f"tiling pass fraction {rep.pass_fraction:.3f}")


def cmd_probe(args) -> int:
    from .ensemble import counterexample_probe
    obj = _load_json(args.input)
    if "word" not in obj or "probes" not in obj:
        raise CliError("probe config needs 'word' and 'probes'")
    sysm = _parse_system({**obj, "kind": "random_word"}, args.tol)
    gen = _parse_generator(obj.get("generator", {"kind": "lattice", "basis": 1}),
                           args, sysm.dim)
    rep = counterexample_probe(sysm.triples, sysm.word, gen,
                               _numeric_array(obj["probes"]),
                               window=args.window, pol=_policy(args),
                               tail=sysm.tail)
    rep.config["cli"] = _effective(args)
    _write_json(_out_dir(args) / "probe_report.json", rep)
    print(f"verdict: {rep.verdict} "
          f"(min Q {min(r.q for r in rep.rows):.4f}, threshold {rep.threshold})")
    return 0 if rep.verdict == "consistent" else 2


# Each subcommand's handler, its help, and the options it reads besides
# --input, --out and --tol: its parser defines exactly these, and its
# report's config echoes exactly these.
_COMMANDS = {
    "verify": (cmd_verify, "check a triple's unitarity", ()),
    "cycles": (cmd_cycles, "enumerate extreme cycles exactly",
               ("mmax", "spectrum_level")),
    "spectrum": (cmd_spectrum, "emit the frequency set of level --window",
                 ("window", "mmax")),
    "check": (cmd_check, "Q-sweep a system at generator level --window",
              ("depth", "grid", "window", "mmax")),
    "strichartz": (cmd_strichartz, "sigma_min / tail-modulus report for "
                   "levels up to n_max = --window", ("depth", "window")),
    "quasiproduct": (cmd_quasiproduct, "assemble and verify a block triple", ()),
    "random": (cmd_random, "ensemble Q-sweep of random words at generator "
               "level --window", ("depth", "grid", "window", "mmax", "samples",
                                  "word_length", "seed", "threads",
                                  "pass_threshold")),
    "tiling": (cmd_tiling, "Fourier-side lattice tiling check up to lattice "
               "radius --window", ("depth", "window", "samples", "word_length",
                                   "seed", "threads", "pass_threshold")),
    "probe": (cmd_probe, "completeness probe of one word at generator level "
              "--window", ("depth", "window", "mmax")),
}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="speclab",
        description="Spectral-measure toolkit: verify Hadamard triples, "
                    "enumerate extreme cycles, sweep completeness functionals, "
                    "and stress-test random convolutions.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    options = dict(
        input=dict(required=True, help="input JSON file"),
        out=dict(default="speclab_reports",
                 help="output directory (all files go here)"),
        tol=dict(type=float, default=1e-9, help="unitarity tolerance"),
        depth=dict(type=int, help="fixed product depth (default: auto)"),
        grid=dict(type=int, default=32, help="grid points per axis in [0,1)^d"),
        window=dict(type=int, default=8,
                    help="level, lattice radius or n_max: see above"),
        mmax=dict(type=int, default=6, help="maximum cycle period to search"),
        samples=dict(type=int, default=200, help="ensemble sample count"),
        word_length=dict(type=int, default=20, help="random word length"),
        seed=dict(type=int, default=0, help="RNG seed"),
        # argparse parses a string default only where the option exists
        threads=dict(type=int, default=os.environ.get("SPECLAB_THREADS", "1"),
                     help="worker cap (SPECLAB_THREADS as fallback); results "
                          "do not depend on it"),
        spectrum_level=dict(type=int, help="also emit the generated spectrum "
                                           "at this level"),
        pass_threshold=dict(type=float, default=0.9,
                            help="required pass fraction of the ensemble"),
    )
    for name, (_, help_, reads) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_, description=help_)
        for dest in ("input", "out", "tol", *reads):
            sp.add_argument("--" + dest.replace("_", "-"), **options[dest])
    return p


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # an option this subcommand does not read
        print(f"speclab {args.command}: error: unrecognized arguments: "
              f"{' '.join(unknown)} (see speclab {args.command} --help)",
              file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command][0](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SpeclabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
