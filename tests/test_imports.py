"""Import layering: the package and the CLI load submodules on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import speclab

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "AnalysisReport", "ConvolutionSystem", "CycleSpectrumGenerator",
    "DigitSet", "DimensionMismatch", "EnsembleConfig", "EnsembleReport",
    "ExplicitGenerator", "ExtremeCycle", "FiberDecomposition", "FnMatrix",
    "FrequencySet", "FtValue", "HadamardTriple", "IntMatrix", "InvalidPadding",
    "LatticeGenerator", "LevelSetsGenerator", "MismatchedRL",
    "NoOverlapReport", "NonIntegerElement", "NotCompleteResidue",
    "NotContractive", "ProbeReport", "ProductGenerator", "QValue",
    "QuasiProductSpec", "SampleVerdict", "SingularMatrix", "SizeCap",
    "SpeclabError", "SpectrumGenerator", "TilingReport", "TruncationPolicy",
    "VerificationFailed", "VerifyResult", "as_int_matrix", "as_int_vector",
    "as_rat_vector", "build_1d_padding", "build_fn", "build_quasi_product",
    "check_spectrum", "common_extreme_cycles", "contraction_factor",
    "counterexample_probe", "cycle_containment_radius", "cycles", "det",
    "dual_lattice_basis", "dynamically_simple_spectrum", "ensemble",
    "ensemble_spectrum_report", "ensemble_tiling_report", "errors",
    "fiber_system", "find_extreme_cycles", "find_tiling_lattice",
    "fixed_point_of_word", "ft_eval", "ft_eval_many", "ft_partial_eval",
    "ft_tail_eval", "ft_tail_eval_many", "general_product", "hadamard_matrix",
    "invariant_ball_radius", "is_complete_residue_set", "is_expansive",
    "lambda_n", "lattice_tiling_check", "levels", "linalg", "make_q_evaluator",
    "mask_eval", "mask_is_extreme_at", "measures", "multi_step_contraction",
    "no_overlap_assess", "orthogonality_check", "periodic_word",
    "product_spectrum_check", "qp_eval", "quasi_product_spec", "quasiproduct",
    "random_word", "residue_classes_distinct", "sample_support",
    "sample_words", "self_affine", "solve_exact", "spectra",
    "strichartz_report", "support_bbox", "support_radius", "tail_factor_scan",
    "tau_exact", "transfer_apply", "triple", "triples", "uniform_grid",
    "verify_hadamard",
]


def _run(args: list[str], tmp_path: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded_after(code: str, tmp_path: Path) -> dict:
    """speclab submodules, stdlib pools and numpy loaded once `code` has run,
    in a fresh interpreter."""
    probe = code + """
import json, sys
print(json.dumps({
    "speclab": sorted(m for m in sys.modules if m.startswith("speclab.")),
    "pools": sorted(m for m in ("concurrent.futures", "multiprocessing")
                    if m in sys.modules),
    "numpy": "numpy" in sys.modules}))
"""
    proc = _run(["-c", probe], tmp_path)
    return json.loads(proc.stdout.strip().splitlines()[-1])


TRIPLE_LAYER = ["speclab.errors", "speclab.linalg", "speclab.triples"]
LEVEL_LAYER = sorted([*TRIPLE_LAYER, "speclab.levels"])
FAMILY = [{"R": 2, "B": [0, 1], "L": [0, 1]}, {"R": 2, "B": [0, 3], "L": [0, 1]}]


def test_import_speclab_loads_no_submodule(tmp_path):
    assert _loaded_after("import speclab", tmp_path) == {
        "speclab": [], "pools": [], "numpy": False}


def test_triple_loads_no_numpy(tmp_path):
    loaded = _loaded_after(
        "import speclab\n"
        "assert speclab.triple(2, [0, 3], [0, 1]).status == 'verified'",
        tmp_path)
    assert loaded == {"speclab": TRIPLE_LAYER, "pools": [], "numpy": False}


def test_lambda_n_loads_only_the_level_layer(tmp_path):
    # Lambda_n is integer work on the level sequence: no float view loads
    loaded = _loaded_after(
        "import speclab\n"
        f"fam = [speclab.triple(t['R'], t['B'], t['L']) for t in {FAMILY}]\n"
        "sys = speclab.random_word(fam, [0, 1, 1])\n"
        "assert speclab.lambda_n(sys, 8) == [(k,) for k in range(256)]",
        tmp_path)
    assert loaded == {"speclab": LEVEL_LAYER, "pools": [], "numpy": False}


def test_cli_system_spectrum_loads_only_the_level_layer(tmp_path):
    (tmp_path / "s.json").write_text(json.dumps(
        {"kind": "random_word", "triples": FAMILY, "word": [0, 1, 1]}))
    loaded = _loaded_after(
        "from speclab import cli\n"
        "assert cli.main(['spectrum', '--input', 's.json', '--out', 'o']) == 0",
        tmp_path)
    assert loaded == {"speclab": sorted(["speclab.cli", *LEVEL_LAYER]),
                      "pools": [], "numpy": False}


def test_cli_verify_loads_only_the_triple_layer(tmp_path):
    (tmp_path / "t.json").write_text(json.dumps({"R": 2, "B": [0, 3], "L": [0, 1]}))
    loaded = _loaded_after(
        "from speclab import cli\n"
        "assert cli.main(['verify', '--input', 't.json', '--out', 'o']) == 0",
        tmp_path)
    assert loaded == {"speclab": ["speclab.cli", *TRIPLE_LAYER], "pools": [],
                      "numpy": False}


def test_cli_verify_importtime_lists_no_numpy(tmp_path):
    (tmp_path / "t.json").write_text(json.dumps({"R": 2, "B": [0, 3], "L": [0, 1]}))
    proc = _run(["-X", "importtime", "-m", "speclab.cli", "verify",
                 "--input", "t.json", "--out", "o"], tmp_path)
    modules = [line.rsplit("|", 1)[-1].strip()
               for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "speclab.triples" in modules
    assert not [m for m in modules if m.split(".")[0] == "numpy"]


def test_public_names_are_pinned_and_resolve():
    assert speclab.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(speclab, name) is not None
    assert set(PUBLIC) <= set(dir(speclab))


def test_star_import():
    ns = {}
    exec("from speclab import *", ns)
    assert set(PUBLIC) <= set(ns)
    assert ns["check_spectrum"] is speclab.spectra.check_spectrum


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        speclab.no_such_name


def test_names_follow_their_submodule(monkeypatch):
    # names are read from the submodule on every access and never bound on
    # the package, so a patch on the submodule shows through and its undo
    # leaves nothing behind
    def patched(*args, **kwargs):
        return None

    monkeypatch.setattr(speclab.spectra, "check_spectrum", patched)
    assert speclab.check_spectrum is patched
    assert "check_spectrum" not in vars(speclab)
    monkeypatch.undo()
    assert speclab.check_spectrum is not patched
