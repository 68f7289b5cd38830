import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from speclab import (ExplicitGenerator, check_spectrum, general_product,
                     self_affine, triple)
from speclab.cli import _COMMANDS, _parse_system, build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def _write(tmp_path: Path, name: str, payload) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


TRIPLE_OK = {"R": 2, "B": [0, 3], "L": [0, 1]}
TRIPLE_BAD = {"R": 2, "B": [0, 1], "L": [0, 2]}
QC_TRIPLE = {"R": 4, "B": [0, 2], "L": [0, 1]}
QC_SYSTEM = {"kind": "self_affine", "triples": [QC_TRIPLE]}
FAMILY = [{"R": 2, "B": [0, 1], "L": [0, 1]}, {"R": 2, "B": [0, 3], "L": [0, 1]}]
SQUARE = [[0, 0], [1, 0], [0, 1], [1, 1]]
LEBESGUE_2D_SYSTEM = {"kind": "self_affine", "triples": [
    {"R": [[2, 0], [0, 2]], "B": SQUARE, "L": SQUARE}]}


def test_verify_pass(tmp_path):
    cfg = _write(tmp_path, "t.json", TRIPLE_OK)
    assert main(["verify", "--input", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["passed"] and report["residual"] < 1e-10


def test_verify_fail_exit_2(tmp_path):
    cfg = _write(tmp_path, "t.json", TRIPLE_BAD)
    assert main(["verify", "--input", cfg, "--out", str(tmp_path / "out")]) == 2


def test_malformed_system_configs_exit_1(tmp_path):
    out = str(tmp_path / "o")
    for payload in (
        {"kind": "self_affine", "triples": []},            # empty family
        {"kind": "self_affine", "triples": [42]},          # not a triple
        {"kind": "bogus", "triples": [QC_TRIPLE]},         # unknown kind
        {"kind": "random_word", "triples": [QC_TRIPLE]},   # missing word
        {"kind": "self_affine", "triples": [TRIPLE_BAD]},  # fails unitarity
        # fields the kind cannot use
        {"kind": "self_affine", "triples": [QC_TRIPLE], "tail": "finite"},
        {"kind": "periodic", "triples": FAMILY, "word": [0, 1],
         "tail": "finite"},
        {"kind": "self_affine", "triples": [QC_TRIPLE], "word": [0]},
        {"kind": "general", "triples": FAMILY, "word": [0, 1]},
        {"kind": "self_affine", "triples": FAMILY},        # two triples
        # a tail that is not a string, JSON null included
        {"kind": "random_word", "triples": FAMILY, "word": [0, 1],
         "tail": None},
    ):
        cfg = _write(tmp_path, "sys.json", payload)
        assert main(["strichartz", "--input", cfg, "--out", out,
                     "--window", "2"]) == 1, payload


def test_general_system_without_tail_is_finite(tmp_path):
    sys_ = _parse_system({"kind": "general", "triples": FAMILY}, 1e-9)
    api = general_product([triple(t["R"], t["B"], t["L"]) for t in FAMILY])
    assert sys_.finite_length == api.finite_length == 2
    # past two levels a finite system adds no frequencies: 4, not 2^8
    for extra, count in (({}, 4), ({"tail": "repeat_last"}, 256)):
        cfg = _write(tmp_path, "sys.json",
                     dict({"kind": "general", "triples": FAMILY}, **extra))
        out = tmp_path / f"out{count}"
        assert main(["spectrum", "--input", cfg, "--out", str(out),
                     "--window", "8"]) == 0
        rep = json.loads((out / "spectrum_report.json").read_text())
        assert len(rep["frequencies"]) == count


def test_missing_fields_exit_1_without_traceback(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    for command, payload, message in (
        ("probe", {"triples": [], "word": [0], "probes": [0.5]},
         "nonempty 'triples' list"),
        ("tiling", {"triples": [], "lattice": 1}, "nonempty 'triples' list"),
        ("check", {"system": QC_SYSTEM,
                   "generator": {"kind": "cycle_spectrum"}},
         "triple must be an object"),
        ("check", {"system": QC_SYSTEM, "generator": {"kind": "explicit"}},
         "explicit generator needs 'points'"),
        # fields of the wrong type
        ("check", {"system": QC_SYSTEM,
                   "generator": {"kind": "lattice", "basis": {"a": 1}}},
         "expected a number"),
        ("tiling", {"system": QC_SYSTEM, "lattice": {"a": 1}},
         "expected a number"),
        ("check", {"system": QC_SYSTEM, "generator": [1]},
         "generator must be an object"),
        ("check", {"system": [1], "generator": {"kind": "lattice"}},
         "system must be an object"),
        ("random", {"triples": FAMILY, "generator": "lattice"},
         "generator must be an object"),
        ("check", {"system": QC_SYSTEM,
                   "generator": {"kind": "cycle_spectrum", "triple": QC_TRIPLE,
                                 "mmax": "x"}},
         "'mmax' must be a positive integer"),
        ("check", {"system": QC_SYSTEM,
                   "generator": {"kind": "explicit", "points": [[1], [1, 2]]}},
         "ragged array"),
        ("probe", {"triples": FAMILY, "word": "ab", "probes": [0.5]},
         "'word' must be a list of integers"),
        ("quasiproduct", {"R1": 2, "a": [0, 1], "L1": [0, 1], "R": 2,
                          "B_family": [[0, 1], [0, 3]], "L": [0, 1], "C": "x"},
         "bad quasiproduct config"),
        ("probe", {"triples": FAMILY, "word": [0], "probes": []},
         "'probes' must list at least one point"),
        # lattice bases that are not d x d
        ("probe", {"triples": FAMILY, "word": [0], "probes": [0.5],
                   "generator": {"kind": "lattice", "basis": [[1, 2]]}},
         "lattice basis must be 1x1"),
        ("tiling", {"triples": FAMILY, "lattice": [[1, 2]]},
         "lattice basis must be 1x1"),
        ("tiling", {"system": QC_SYSTEM, "lattice": [[1, 2]]},
         "lattice basis must be 1x1"),
        # generators and probes of another dimension than the system
        ("check", {"system": LEBESGUE_2D_SYSTEM,
                   "generator": {"kind": "cycle_spectrum", "triple": QC_TRIPLE}},
         "cycle_spectrum generator is 1-D but the system is 2-D"),
        ("check", {"system": QC_SYSTEM,
                   "generator": {"kind": "explicit", "points": [[0, 0], [1, 1]]}},
         "explicit generator is 2-D but the system is 1-D"),
        ("probe", {"triples": FAMILY, "word": [0, 1], "probes": [[0.5, 0.5]]},
         "'probes' must be points in R^1"),
        # a digit of 1.5 is refused, not truncated to 1
        ("verify", {"R": 2, "B": [0, 1.5], "L": [0, 1]},
         "bad triple: expected an integer, got 1.5"),
        # a coupling entry of 1.5 is refused, not truncated to 1
        ("quasiproduct", {"R1": 2, "a": [0, 1], "L1": [0, 1], "R": 2,
                          "B_family": [[0, 1], [0, 3]], "L": [0, 1],
                          "C": [[1.5]]},
         "expected an integer, got 1.5"),
    ):
        cfg = _write(tmp_path, f"{command}.json", payload)
        proc = subprocess.run(
            [sys.executable, "-m", "speclab.cli", command, "--input", cfg,
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr


def test_usage_errors_exit_1(tmp_path):
    # 2 is kept for "the mathematical check failed"; --help still exits 0
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    cfg = _write(tmp_path, "t.json", TRIPLE_OK)
    # --grid is an option of check, so its bad value is a wrong type, not an
    # unknown flag
    for extra, code, message in (
            (["verify", "--bogus"], 1, "unrecognized arguments: --bogus"),
            (["check", "--grid", "notanint"], 1,
             "argument --grid: invalid int value"),
            (["verify", "--help"], 0, "")):
        proc = subprocess.run(
            [sys.executable, "-m", "speclab.cli", *extra, "--input", cfg,
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == code, (extra, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr


def test_errored_ensemble_samples_exit_1(tmp_path, capsys, monkeypatch):
    import speclab.ensemble

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(speclab.ensemble, "check_spectrum", boom)
    monkeypatch.setattr(speclab.ensemble, "lattice_tiling_check", boom)
    runs = (("random", {"triples": FAMILY}, "random_report.json"),
            ("tiling", {"triples": FAMILY, "lattice": 1}, "tiling_report.json"))
    for command, payload, report in runs:
        cfg = _write(tmp_path, f"{command}.json", payload)
        out = tmp_path / command
        assert main([command, "--input", cfg, "--out", str(out),
                     "--samples", "4", "--word-length", "4", "--threads", "1",
                     "--pass-threshold", "0.0"]) == 1
        err = capsys.readouterr().err
        assert "4 of 4 samples raised" in err
        assert "RuntimeError: boom" in err
        rep = json.loads((out / report).read_text())
        assert all(v["error"] == "RuntimeError: boom" for v in rep["verdicts"])
        assert rep["error_counts"] == {"RuntimeError": 4}


def test_verify_malformed_json_exit_1(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["verify", "--input", str(p), "--out", str(tmp_path / "o")]) == 1
    assert main(["verify", "--input", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 1


def test_cycles_command(tmp_path):
    cfg = _write(tmp_path, "qc.json", QC_TRIPLE)
    out = tmp_path / "out"
    assert main(["cycles", "--input", cfg, "--out", str(out),
                 "--mmax", "6", "--spectrum-level", "3"]) == 0
    rep = json.loads((out / "cycles_report.json").read_text())
    assert len(rep["cycles"]) == 1
    assert rep["cycles"][0]["points"] == [["0"]]
    assert rep["spectrum"] == [[0], [1], [4], [5], [16], [17], [20], [21]]
    assert rep["complete_for_periods_up_to"] == 6


def test_cycles_two_cycle_triple(tmp_path):
    cfg = _write(tmp_path, "t.json", {"R": 4, "B": [0, 2], "L": [0, 3]})
    out = tmp_path / "out"
    assert main(["cycles", "--input", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "cycles_report.json").read_text())
    assert [c["points"] for c in rep["cycles"]] == [[["0"]], [["1"]]]


def test_cycles_spectrum_degrades_on_fractional_points(tmp_path):
    # the {1/3, 2/3} cycle makes the generated spectrum non-integral; the
    # cycle report must still come out, with the spectrum marked unavailable
    cfg = _write(tmp_path, "t.json", TRIPLE_OK)
    out = tmp_path / "out"
    assert main(["cycles", "--input", cfg, "--out", str(out),
                 "--spectrum-level", "2"]) == 0
    rep = json.loads((out / "cycles_report.json").read_text())
    assert len(rep["cycles"]) == 3
    assert rep["spectrum"] is None
    assert "not an integer" in rep["spectrum_note"]


def test_cycles_usage_error(tmp_path):
    cfg = _write(tmp_path, "qc.json", QC_TRIPLE)
    assert main(["cycles", "--input", cfg, "--out", str(tmp_path / "o"),
                 "--mmax", "0"]) == 1


def test_spectrum_command_system_form(tmp_path):
    cfg = _write(tmp_path, "sys.json", QC_SYSTEM)
    out = tmp_path / "out"
    assert main(["spectrum", "--input", cfg, "--out", str(out),
                 "--window", "2"]) == 0
    rep = json.loads((out / "spectrum_report.json").read_text())
    assert rep["frequencies"] == [[0], [1], [4], [5]]


def test_spectrum_command_triple_form(tmp_path):
    cfg = _write(tmp_path, "t.json", QC_TRIPLE)
    out = tmp_path / "out"
    assert main(["spectrum", "--input", cfg, "--out", str(out),
                 "--window", "3"]) == 0
    rep = json.loads((out / "spectrum_report.json").read_text())
    assert rep["frequencies"] == [[0], [1], [4], [5], [16], [17], [20], [21]]
    assert len(rep["cycles"]) == 1


def test_check_command_level_sets_generator(tmp_path):
    # the system's own level sets coincide with its cycle spectrum here
    cfg = _write(tmp_path, "check.json", {
        "system": QC_SYSTEM, "generator": {"kind": "level_sets"}})
    assert main(["check", "--input", cfg, "--out", str(tmp_path / "o"),
                 "--grid", "16", "--window", "8"]) == 0


def test_check_command(tmp_path):
    cfg = _write(tmp_path, "check.json", {
        "system": QC_SYSTEM,
        "generator": {"kind": "cycle_spectrum", "triple": QC_TRIPLE, "mmax": 6},
    })
    out = tmp_path / "out"
    assert main(["check", "--input", cfg, "--out", str(out),
                 "--grid", "64", "--window", "8"]) == 0
    rep = json.loads((out / "check_report.json").read_text())
    assert rep["passed"] and rep["min_q"] >= 0.99
    csv = (out / "check_qsweep.csv").read_text().splitlines()
    assert csv[0] == "xi_0,Q,terms,tail_bound"
    assert len(csv) == 65


def test_check_failure_exit_2(tmp_path):
    cfg = _write(tmp_path, "check.json", {
        "system": {"kind": "random_word", "triples": FAMILY,
                   "word": [0, 1, 1, 1, 1, 1]},
        "generator": {"kind": "lattice", "basis": 1},
    })
    assert main(["check", "--input", cfg, "--out", str(tmp_path / "o"),
                 "--grid", "8", "--window", "64"]) == 2


def test_strichartz_command(tmp_path):
    cfg = _write(tmp_path, "sys.json", QC_SYSTEM)
    out = tmp_path / "out"
    assert main(["strichartz", "--input", cfg, "--out", str(out),
                 "--window", "6"]) == 0
    rep = json.loads((out / "strichartz_report.json").read_text())
    assert rep["floor_sigma_min"] >= 0.72
    assert len(rep["levels"]) == 6


def test_quasiproduct_command(tmp_path):
    cfg = _write(tmp_path, "qp.json", {
        "R1": 2, "a": [0, 1], "L1": [0, 1], "R": 2,
        "B_family": [[0, 1], [0, 3]], "L": [0, 1], "C": [[1]],
    })
    out = tmp_path / "out"
    assert main(["quasiproduct", "--input", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "quasiproduct_report.json").read_text())
    assert rep["passed"] and rep["residual"] < 1e-9
    assert rep["triple"]["R"] == [[2, 0], [1, 2]]


def test_random_command(tmp_path):
    cfg = _write(tmp_path, "fam.json", {
        "triples": FAMILY, "generator": {"kind": "lattice", "basis": 1}})
    out = tmp_path / "out"
    code = main(["random", "--input", cfg, "--out", str(out),
                 "--samples", "8", "--word-length", "8", "--seed", "5",
                 "--window", "64", "--pass-threshold", "0.0"])
    assert code == 0
    rep = json.loads((out / "random_report.json").read_text())
    assert len(rep["verdicts"]) == 8
    assert (out / "random_samples.csv").exists()


def test_tiling_command_single_system(tmp_path):
    cfg = _write(tmp_path, "sys.json",
                 {"kind": "self_affine",
                  "triples": [{"R": 2, "B": [0, 1], "L": [0, 1]}],
                  "lattice": 1})
    assert main(["tiling", "--input", cfg, "--out", str(tmp_path / "o"),
                 "--window", "32"]) == 0
    cfg2 = _write(tmp_path, "qc.json", dict(QC_SYSTEM, lattice=1))
    assert main(["tiling", "--input", cfg2, "--out", str(tmp_path / "o2"),
                 "--window", "32"]) == 2


def test_tiling_command_rational_lattice(tmp_path):
    # Lebesgue on [0,3]: its transform vanishes on (1/3)Z \ {0}, certifying
    # the set tiling by 3Z; rational entries come in as "p/q" strings
    cfg = _write(tmp_path, "sys.json",
                 {"kind": "self_affine",
                  "triples": [{"R": 2, "B": [0, 3], "L": [0, 1]}],
                  "lattice": "1/3"})
    assert main(["tiling", "--input", cfg, "--out", str(tmp_path / "o"),
                 "--window", "30"]) == 0


def test_tiling_command_family(tmp_path):
    cfg = _write(tmp_path, "fam.json", {"triples": FAMILY, "lattice": 1})
    assert main(["tiling", "--input", cfg, "--out", str(tmp_path / "o"),
                 "--samples", "10", "--word-length", "12", "--seed", "3",
                 "--window", "32"]) == 0


def test_probe_command(tmp_path):
    cfg = _write(tmp_path, "probe.json", {
        "triples": FAMILY, "word": [0, 1, 1, 1, 1, 1], "probes": [0.5],
        "generator": {"kind": "lattice", "basis": 1}})
    out = tmp_path / "out"
    assert main(["probe", "--input", cfg, "--out", str(out),
                 "--window", "200"]) == 2
    rep = json.loads((out / "probe_report.json").read_text())
    assert rep["verdict"] == "NonSpectralEvidence"
    assert 0.08 <= rep["rows"][0]["q"] <= 0.13


def test_check_command_explicit_generator(tmp_path, capsys):
    # explicit points take JSON numbers and "p/q" strings; a missing 'points'
    # field and an unknown kind are refused with one line and no report
    qc = self_affine(triple(4, [0, 2], [0, 1]))
    lib = check_spectrum(qc, ExplicitGenerator([[0], [0.5], [4]]), 4, window=8)
    runs = (({"kind": "explicit", "points": [[0], ["1/2"], [4]]},
             0 if lib.passed else 2, None),
            ({"kind": "explicit"}, 1, "explicit generator needs 'points'"),
            ({"kind": "bogus"}, 1, "unknown generator kind 'bogus'"))
    for k, (generator, code, message) in enumerate(runs):
        cfg = _write(tmp_path, f"check{k}.json",
                     {"system": QC_SYSTEM, "generator": generator})
        out = tmp_path / f"o{k}"
        assert main(["check", "--input", cfg, "--out", str(out),
                     "--grid", "4"]) == code
        err = capsys.readouterr().err
        if message is None:
            rep = json.loads((out / "check_report.json").read_text())
            assert rep["params"]["generator"] == {"kind": "explicit", "count": 3}
            assert rep["rows"] == json.loads(json.dumps(asdict(lib)))["rows"]
        else:
            assert message in err and err.count("\n") == 1, err
            assert not out.exists()


ROW_KEYS = {"xi", "q", "terms", "q_bound"}
ENSEMBLE_KEYS = {"kind", "config", "pass_fraction", "notes", "min_q_min",
                 "min_q_median", "min_q_p5", "failing_words", "error_counts",
                 "verdicts"}
VERDICT_KEYS = {"index", "word", "passed", "min_q", "max_q", "error"}


def test_report_json_keys_are_the_pinned_schema(tmp_path):
    # the encoder writes each report dataclass as its fields, so a renamed or
    # added field changes the report files; these are their key sets
    small = ["--samples", "2", "--word-length", "3", "--window", "2",
             "--pass-threshold", "0"]
    runs = {
        "check": ({"system": QC_SYSTEM, "generator": {"kind": "lattice"}},
                  ["--grid", "4", "--window", "2"],
                  {"kind", "params", "min_q", "max_q", "passed", "notes",
                   "rows"}),
        "random": ({"triples": FAMILY}, small, ENSEMBLE_KEYS),
        "tiling": ({"triples": FAMILY, "lattice": 1}, small, ENSEMBLE_KEYS),
        "probe": ({"triples": FAMILY, "word": [0, 1], "probes": [0.5]},
                  ["--window", "2"],
                  {"word", "verdict", "threshold", "config", "rows"}),
    }
    for command, (payload, extra, keys) in runs.items():
        cfg = _write(tmp_path, f"{command}.json", payload)
        out = tmp_path / command
        main([command, "--input", cfg, "--out", str(out), *extra])
        rep = json.loads((out / f"{command}_report.json").read_text())
        assert set(rep) == keys, command
        if "rows" in keys:
            assert all(set(r) == ROW_KEYS for r in rep["rows"]), command
        if "verdicts" in keys:
            assert rep["verdicts"] and all(
                set(v) == VERDICT_KEYS for v in rep["verdicts"]), command
    cfg = _write(tmp_path, "system.json", dict(QC_SYSTEM, lattice=1))
    main(["tiling", "--input", cfg, "--out", str(tmp_path / "system"),
          "--window", "2"])
    rep = json.loads((tmp_path / "system" / "tiling_report.json").read_text())
    assert set(rep) == {"config", "report"}
    assert set(rep["report"]) == {"passed", "max_offlattice_mass",
                                  "worst_point", "window", "tol", "checked",
                                  "note"}


def test_reports_stay_inside_out_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    cfg = _write(tmp_path, "t.json", TRIPLE_OK)
    out = tmp_path / "sandboxed"
    before = {p for p in workdir.rglob("*")}
    assert main(["verify", "--input", cfg, "--out", str(out)]) == 0
    after = {p for p in workdir.rglob("*")}
    assert before == after  # nothing written outside --out
    assert (out / "verify_report.json").exists()


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SPECLAB_THREADS", "3")
    args = build_parser().parse_args(["random", "--input", "x.json"])
    assert args.threads == 3
    args = build_parser().parse_args(["random", "--input", "x.json",
                                      "--threads", "2"])
    assert args.threads == 2
    # only the subcommands with a --threads option read the variable
    monkeypatch.setenv("SPECLAB_THREADS", "notanint")
    assert not hasattr(build_parser().parse_args(["verify", "--input", "x.json"]),
                       "threads")


def test_rerun_is_bit_identical(tmp_path):
    cfg = _write(tmp_path, "fam.json", {
        "triples": FAMILY, "generator": {"kind": "lattice", "basis": 1}})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["random", "--input", cfg, "--out", str(out), "--samples", "6",
              "--word-length", "10", "--seed", "9", "--window", "32",
              "--pass-threshold", "0.0"])
        outs.append((out / "random_samples.csv").read_bytes())
    assert outs[0] == outs[1]


def test_empty_grid_and_window_exit_1(tmp_path, capsys):
    # an empty point set, a negative window or an empty ensemble is refused
    # with one line, not a traceback, before any report is written or sample
    # runs
    lattice, cycle = {"kind": "lattice"}, {"kind": "cycle_spectrum",
                                           "triple": QC_TRIPLE}
    family = {"triples": FAMILY, "word": [0, 1], "probes": [0.5]}
    negative = "the window must be >= 0, got -1"
    tiling = "the tiling window must list at least one point"
    runs = (("check", {"system": QC_SYSTEM, "generator": lattice},
             ["--grid", "0"], "grid must list at least one point"),
            ("tiling", QC_SYSTEM, ["--window", "0"], tiling),
            ("check", {"system": QC_SYSTEM, "generator": lattice},
             ["--window", "-1"], negative),
            ("check", {"system": QC_SYSTEM, "generator": cycle},
             ["--window", "-1"], negative),
            ("tiling", QC_SYSTEM, ["--window", "-1"], tiling),
            ("tiling", {"triples": FAMILY}, ["--window", "-1"], negative),
            ("tiling", {"triples": FAMILY}, ["--window", "0"], tiling),
            ("probe", family, ["--window", "-1"], negative),
            ("random", {"triples": FAMILY}, ["--window", "-1"], negative),
            ("spectrum", QC_TRIPLE, ["--window", "-1"],
             "the level must be >= 0, got -1"),
            ("spectrum", QC_SYSTEM, ["--window", "0"],
             "--window must be >= 1, got 0"),
            ("strichartz", QC_SYSTEM, ["--window", "0"],
             "--window must be >= 1, got 0"),
            ("strichartz", QC_TRIPLE, ["--window", "-1"],
             "--window must be >= 1, got -1"),
            ("spectrum", QC_TRIPLE, ["--mmax", "0"], "--mmax must be >= 1"),
            ("cycles", QC_TRIPLE, ["--spectrum-level", "-1"],
             "the level must be >= 0, got -1"),
            # an empty ensemble or an empty word runs no sample
            *((command, {"triples": FAMILY}, extra,
               f"samples and word_length must be >= 1, got {got}")
              for command in ("random", "tiling")
              for extra, got in ((["--samples", "0"], "0 and 20"),
                                 (["--word-length", "0", "--samples", "2"],
                                  "2 and 0"))),
            # a negative seed has no stream, so no word is drawn
            *((command, {"triples": FAMILY},
               ["--samples", "2", "--word-length", "3", "--seed", "-1"],
               "seed must be >= 0, got -1") for command in ("random", "tiling")))
    for k, (command, payload, extra, message) in enumerate(runs):
        cfg = _write(tmp_path, f"{command}.json", payload)
        out = tmp_path / f"o{k}"
        assert main([command, "--input", cfg, "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1, (command, extra, err)
        assert not out.exists()


COMMON = {"input", "out", "tol"}
CYCLE_GEN = {"kind": "cycle_spectrum", "triple": FAMILY[0]}
SMALL = ["--samples", "2", "--word-length", "3", "--grid", "4", "--window",
         "2", "--pass-threshold", "0"]
# inputs that take every branch that reads options: system, triple and
# family forms, lattice and cycle_spectrum generators
BRANCHES = {
    "verify": [(TRIPLE_OK, [])],
    "cycles": [(QC_TRIPLE, []), (QC_TRIPLE, ["--spectrum-level", "2"])],
    "spectrum": [(QC_SYSTEM, ["--window", "2"]), (QC_TRIPLE, ["--window", "2"])],
    "check": [({"system": QC_SYSTEM, "generator": {"kind": "lattice"}},
               ["--grid", "4", "--window", "2"]),
              ({"system": QC_SYSTEM, "generator": dict(CYCLE_GEN, triple=QC_TRIPLE)},
               ["--grid", "4", "--window", "2"])],
    "strichartz": [(QC_SYSTEM, ["--window", "2"]), (QC_TRIPLE, ["--window", "2"])],
    "quasiproduct": [({"R1": 2, "a": [0, 1], "L1": [0, 1], "R": 2,
                       "B_family": [[0, 1], [0, 3]], "L": [0, 1], "C": [[1]]},
                      [])],
    "random": [({"triples": FAMILY}, SMALL),
               ({"triples": FAMILY, "generator": CYCLE_GEN}, SMALL)],
    "tiling": [(dict(QC_SYSTEM, lattice=1), ["--window", "2"]),
               ({"system": QC_SYSTEM, "lattice": 1}, ["--window", "2"]),
               ({"triples": FAMILY, "lattice": 1},
                [a for a in SMALL if a not in ("--grid", "4")])],
    "probe": [({"triples": FAMILY, "word": [0, 1], "probes": [0.5]},
               ["--window", "2"]),
              ({"triples": FAMILY, "word": [0, 1], "probes": [0.5],
                "generator": CYCLE_GEN}, ["--window", "2"])],
}


def _cli_config(report: dict) -> dict:
    """The config block a report echoes its command line in."""
    if "params" in report:
        return report["params"]["cli"]
    return report["config"].get("cli", report["config"])


def test_each_subcommand_reads_exactly_its_declared_options(tmp_path, capsys):
    assert set(BRANCHES) == set(_COMMANDS)
    shared = {o for _, _, reads in _COMMANDS.values() for o in reads}
    for command, runs in BRANCHES.items():
        declared = COMMON | set(_COMMANDS[command][2])
        read = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                if not name.startswith("_"):
                    read.add(name)
                return object.__getattribute__(self, name)

        for k, (payload, extra) in enumerate(runs):
            cfg = _write(tmp_path, f"{command}{k}.json", payload)
            out = tmp_path / f"{command}{k}"
            args = build_parser().parse_args(
                [command, "--input", cfg, "--out", str(out), *extra],
                namespace=Recording())
            read.clear()
            assert _COMMANDS[command][0](args) in (0, 2), (command, payload)
            report = json.loads(next(out.glob("*_report.json")).read_text())
            extras = {"n_max"} if command == "strichartz" else set()
            assert set(_cli_config(report)) == (
                declared | {"command", "version"} | extras), command
        assert read == declared, command
        # --help lists exactly the declared options
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        listed = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
        assert listed == {o.replace("_", "-") for o in declared} | {"help"}
        # and any other shared option is a one-line usage error
        undeclared = sorted(shared - declared)[0]
        cfg = _write(tmp_path, "any.json", runs[0][0])
        assert main([command, "--input", cfg, "--out", str(tmp_path / "x"),
                     "--" + undeclared.replace("_", "-"), "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unrecognized arguments" in err, err
        assert not (tmp_path / "x").exists()
