"""speclab: spectral measures from Hadamard triples.

Builds infinite-convolution measures from verified Hadamard triples,
evaluates their Fourier transforms with certified truncation error,
enumerates extreme cycles exactly, generates candidate spectra, and
stress-tests completeness and tiling claims numerically, including Monte
Carlo over random digit words.

Submodules load on first use (PEP 562): ``import speclab`` loads none of
them, and ``speclab.check_spectrum`` imports ``speclab.spectra`` the first
time it is read.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "errors": ("DimensionMismatch", "InvalidPadding", "MismatchedRL",
               "NonIntegerElement", "NotCompleteResidue", "NotContractive",
               "SingularMatrix", "SizeCap", "SpeclabError",
               "VerificationFailed"),
    "linalg": ("IntMatrix", "as_int_matrix", "as_int_vector", "as_rat_vector",
               "contraction_factor", "det", "is_complete_residue_set",
               "is_expansive", "multi_step_contraction",
               "residue_classes_distinct", "solve_exact"),
    "triples": ("DigitSet", "FrequencySet", "HadamardTriple", "VerifyResult",
                "cycle_containment_radius", "hadamard_matrix",
                "invariant_ball_radius", "mask_eval", "mask_is_extreme_at",
                "tau_exact", "triple", "verify_hadamard"),
    "levels": ("ConvolutionSystem", "TruncationPolicy", "general_product",
               "lambda_n", "periodic_word", "random_word", "self_affine"),
    "measures": ("FtValue", "NoOverlapReport", "ft_eval", "ft_eval_many",
                 "ft_partial_eval", "ft_tail_eval", "ft_tail_eval_many",
                 "no_overlap_assess", "sample_support", "support_bbox",
                 "support_radius"),
    "cycles": ("ExtremeCycle", "common_extreme_cycles",
               "dynamically_simple_spectrum", "find_extreme_cycles",
               "fixed_point_of_word"),
    "spectra": ("AnalysisReport", "CycleSpectrumGenerator",
                "ExplicitGenerator", "FnMatrix", "LatticeGenerator",
                "LevelSetsGenerator", "ProductGenerator", "QValue",
                "SpectrumGenerator", "build_fn", "check_spectrum",
                "make_q_evaluator", "orthogonality_check", "qp_eval",
                "strichartz_report", "tail_factor_scan", "transfer_apply",
                "uniform_grid"),
    "quasiproduct": ("FiberDecomposition", "QuasiProductSpec", "TilingReport",
                     "build_1d_padding", "build_quasi_product",
                     "dual_lattice_basis", "fiber_system",
                     "find_tiling_lattice", "lattice_tiling_check",
                     "product_spectrum_check", "quasi_product_spec"),
    "ensemble": ("EnsembleConfig", "EnsembleReport", "ProbeReport",
                 "SampleVerdict", "counterexample_probe",
                 "ensemble_spectrum_report", "ensemble_tiling_report",
                 "sample_words"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    # Looked up in the submodule on every read and never bound here, so a
    # function patched on its submodule is what the package returns too.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
