"""Block-triangular (quasi-product) triples and lattice tiling checks.

A family (R, B(i), L), i = 1..N, with a companion triple (R1, {a_i}, L1)
assembles into a block triple on R^{r+d}:

    RR = [[R1, 0], [C, R]],   BB = {(a_i, d) : d in B(i)},   LL = L1 x L.

The fibers of the associated self-affine measure over the first block are
exactly the random convolutions of the family, which is what ties ensemble
statistics to a single deterministic measure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, InvalidInput, InvalidPadding, VerificationFailed
from .linalg import (IntMatrix, _plain, as_int_matrix, as_int_vector,
                     inv_transpose_series, inverse_float)
from .levels import (ConvolutionSystem, DEFAULT_POLICY, TruncationPolicy,
                     random_word, self_affine)
from .measures import _as_basis, _as_points, ft_eval_many
from .triples import DigitSet, FrequencySet, HadamardTriple, triple

if TYPE_CHECKING:
    from .spectra import AnalysisReport, SpectrumGenerator


@dataclass
class QuasiProductSpec:
    """Ingredients for a block lower-triangular Hadamard triple."""

    R1: IntMatrix
    a: tuple[tuple[int, ...], ...]       # outer digits, contains 0
    L1: FrequencySet
    R: IntMatrix
    B_family: tuple[DigitSet, ...]       # one digit set per outer digit
    L: FrequencySet
    C: tuple[tuple[int, ...], ...] | None = None  # d x r coupling block

    def __post_init__(self):
        if len(self.a) != len(self.B_family):
            raise InvalidInput("need one digit set per outer digit")
        m = len(self.B_family[0])
        if any(len(b) != m for b in self.B_family):
            raise InvalidInput("inner digit sets must share a common size")

    @property
    def outer_size(self) -> int:
        return len(self.a)

    @property
    def inner_size(self) -> int:
        return len(self.B_family[0])

    @property
    def outer_dim(self) -> int:
        return self.R1.dim

    @property
    def inner_dim(self) -> int:
        return self.R.dim

    def outer_triple(self) -> HadamardTriple:
        return triple(self.R1, self.a, self.L1.vectors)

    def inner_triples(self) -> list[HadamardTriple]:
        return [triple(self.R, b.vectors, self.L.vectors) for b in self.B_family]

    def coupling(self) -> tuple[tuple[int, ...], ...]:
        """The d x r integer block C as int rows, zero when C is None."""
        return self.C or ((0,) * self.outer_dim,) * self.inner_dim


def quasi_product_spec(r1, a, l1, r, b_family, l, c=None) -> QuasiProductSpec:
    """Validate loose inputs into a spec (every constituent triple verified)."""
    rm1 = as_int_matrix(r1)
    rm = as_int_matrix(r)
    spec = QuasiProductSpec(
        R1=rm1,
        a=tuple(as_int_vector(x) for x in a),
        L1=FrequencySet.of(l1),
        R=rm,
        B_family=tuple(DigitSet.of(b) for b in b_family),
        L=FrequencySet.of(l),
        C=_as_coupling(c, rm.dim, rm1.dim))
    spec.outer_triple()       # raises VerificationFailed if not Hadamard
    spec.inner_triples()
    return spec


def _as_coupling(c, d: int, r: int) -> tuple[tuple[int, ...], ...] | None:
    """The d x r integer coupling block: d rows, each a point of R^r by
    `_as_points`, with the entries read exactly from c, row by row."""
    if c is None:
        return None
    m = len(_as_points(r, c, "rows of coupling C"))
    if m != d:
        raise DimensionMismatch(f"coupling C must be {d}x{r}, got {m} rows")
    c = _plain(c)
    flat = [x for v in (c if isinstance(c, (list, tuple)) else [c])
            for x in as_int_vector(v)]
    rows = tuple(tuple(flat[i:i + r]) for i in range(0, len(flat), r))
    return rows if any(map(any, rows)) else None


def build_quasi_product(spec: QuasiProductSpec,
                        tol: float = 1e-9) -> HadamardTriple:
    """Assemble and verify the block triple on R^{r+d}.

    Unitarity holds for any integer coupling block because the mixed term
    in the Gram sum factors through the outer triple; a failed verification
    therefore signals an invalid spec rather than a bad C.
    """
    big_r = ([row + (0,) * spec.inner_dim for row in spec.R1.rows]
             + [c + row for c, row in zip(spec.coupling(), spec.R.rows)])
    digits = [a + dv for a, b in zip(spec.a, spec.B_family) for dv in b.vectors]
    freqs = [l1 + l2 for l1 in spec.L1.vectors for l2 in spec.L.vectors]
    try:
        return triple(big_r, digits, freqs, tol=tol)
    except VerificationFailed as exc:
        raise VerificationFailed(
            f"quasi-product assembly failed verification: {exc}") from exc


def build_1d_padding(r: int, b_family, l, p: int | None = None) -> QuasiProductSpec:
    """Pad a 1-D family of N digit sets to an outer scale p*N != R.

    The outer triple is (pN, {0..pN-1}, {0..pN-1}) and inner digit sets
    cycle with index mod N, so every fiber word still draws from the
    original family.
    """
    fam = [DigitSet.of(b) for b in b_family]
    n = len(fam)
    r = int(r)
    if p is None:
        p = 1
        while p * n == r:
            p += 1
    if p < 1 or p * n == r:
        raise InvalidPadding(f"p*N = {p * n} must differ from R = {r}")
    outer = p * n
    return quasi_product_spec(
        r1=outer, a=list(range(outer)), l1=list(range(outer)),
        r=r, b_family=[fam[i % n].vectors for i in range(outer)], l=l, c=None)


@dataclass
class FiberDecomposition:
    """One fiber of the quasi-product measure over a digit word."""

    system: ConvolutionSystem          # the random convolution mu_omega
    base_point: np.ndarray             # pi(omega), truncated
    base_point_bound: float
    shear: np.ndarray                  # g(omega) = sum_k D_k a_{omega_k}
    shear_bound: float


def fiber_system(spec: QuasiProductSpec, word, tail: str = "repeat_last",
                 depth: int = 64) -> FiberDecomposition:
    """The random convolution sitting over a given outer digit word.

    Returns the fiber measure together with the base point
    pi(omega) = sum_k R1^{-k} a_{omega_k} and the shear
    g(omega) = sum_k D_k a_{omega_k}, both truncated at `depth` with error
    bounds (the shear vanishes when C = 0). The block matrix has inverse
    powers RR^{-k} = [[R1^{-k}, 0], [D_k, R^{-k}]], so (pi, g) is
    sum_k RR^{-k} (a_{omega_k}, 0), read off the exact level table of RR.
    ||R1^{-k}||_2 = ||(R1^T)^{-k}||_2, so the norm series of R1 bounds the
    rest of pi.
    """
    w = tuple(int(x) for x in word)
    if any(not 0 <= x < spec.outer_size for x in w):
        raise InvalidInput("word digits out of range for the outer digit set")
    sys = random_word(spec.inner_triples(), w, tail=tail)
    r = spec.outer_dim
    a = np.zeros((spec.outer_size, r + spec.inner_dim))
    a[:, :r] = spec.a
    powers = self_affine(build_quasi_product(spec)).cumulative_inverse(depth)
    total = np.zeros(r + spec.inner_dim)
    for k in range(1, depth + 1):
        if (wk := sys.letter_at(k)) is not None:
            total += powers[k - 1] @ a[wk]
    amax = float(np.linalg.norm(a[:, :r], axis=1).max())
    base_bound = amax * inv_transpose_series([spec.R1]).tail(depth)
    return FiberDecomposition(sys, total[:r], base_bound, total[r:],
                              _shear_bound(spec, amax, depth))


def _shear_bound(spec: QuasiProductSpec, amax: float, depth: int) -> float:
    """Bound on the shear terms of the levels beyond depth.

    With g = max(||R1^{-1}||, ||R^{-1}||) < 1, each of the k terms of
    D_k = -sum_{j<k} R^{-(j+1)} C R1^{-(k-j)} has norm at most ||C|| g^{k+1},
    so those levels add at most amax ||C|| sum_{k>depth} k g^{k+1}, summed
    in closed form.
    """
    cn = float(np.linalg.norm(np.array(spec.coupling(), dtype=float), 2))
    if cn == 0:
        return 0.0
    g = max(float(np.linalg.norm(inverse_float(m), 2))
            for m in (spec.R1, spec.R))
    if g >= 1:
        return np.inf
    # sum_{k>N} k x^k = x^(N+1) ((N+1) - N x) / (1-x)^2, times g for g^(k+1)
    n = depth
    rest = g ** (n + 2) * ((n + 1) - n * g) / (1 - g) ** 2
    return amax * cn * rest


def product_spectrum_check(spec: QuasiProductSpec, gen1: SpectrumGenerator,
                           gen2: SpectrumGenerator, grid, window: int = 8,
                           eps_complete: float = 0.01, eps_orth: float = 1e-4,
                           pol: TruncationPolicy = DEFAULT_POLICY) -> AnalysisReport:
    """Q-sweep of the assembled measure against Lambda_1 x Lambda_2.

    The verdict should track the ensemble verdict for the same Lambda_2 over
    random fiber words at matching truncation, which is the testable face of
    the product-spectrum equivalence.
    """
    from .spectra import ProductGenerator, check_spectrum
    big = build_quasi_product(spec)
    sys = self_affine(big)
    gen = ProductGenerator(gen1, gen2)
    report = check_spectrum(sys, gen, grid, window=window,
                            eps_complete=eps_complete, eps_orth=eps_orth, pol=pol)
    report.kind = "product_spectrum_check"
    report.params["spec"] = describe_spec(spec)
    return report


def describe_spec(spec: QuasiProductSpec) -> dict:
    return {
        "R1": [list(r) for r in spec.R1.rows],
        "a": [list(x) for x in spec.a],
        "L1": [list(x) for x in spec.L1.vectors],
        "R": [list(r) for r in spec.R.rows],
        "B_family": [[list(v) for v in b.vectors] for b in spec.B_family],
        "L": [list(x) for x in spec.L.vectors],
        "C": [list(c) for c in spec.coupling()],
    }


# -- lattice tiling -----------------------------------------------------------


@dataclass
class TilingReport:
    """Fourier-side measure-tiling check result.

    passed certifies that translating the measure by the lattice dual to G
    sums to Lebesgue measure, up to the stated tolerance and tail bounds; it
    is consistent with, but weaker than, almost-sure set tiling.
    """

    passed: bool
    max_offlattice_mass: float
    worst_point: tuple[float, ...]
    window: int
    tol: float
    checked: int
    note: str = field(default="certifies measure tiling (translates sum to "
                              "Lebesgue); set tiling is only consistent",
                      init=False)


def _require_tiling_window(window: int) -> None:
    """Raise DimensionMismatch unless the window lists a nonzero lattice point."""
    if window < 1:
        raise DimensionMismatch("the tiling window must list at least one point")


def lattice_tiling_check(sys: ConvolutionSystem, basis, window: int = 64,
                         pol: TruncationPolicy = DEFAULT_POLICY,
                         tol: float = 1e-7) -> TilingReport:
    """Check mu^ = 0 on the nonzero points of the frequency lattice G Z^d.

    G is the frequency-side basis (the dual of the spatial tiling lattice);
    entries may be rational. Pass requires |mu^(G m)| <= tol + tail bound
    for every 0 < ||m||_inf <= window.
    """
    from .spectra import LatticeGenerator
    _require_tiling_window(window)
    lattice = LatticeGenerator(_as_basis(sys.dim, basis)).level(window)
    pts = np.delete(lattice, len(lattice) // 2, axis=0)  # the middle row is 0
    vals, bounds = ft_eval_many(sys, pts, pol)
    mags = np.abs(vals)
    ok = mags <= tol + bounds
    worst = int(np.argmax(mags))
    return TilingReport(passed=bool(ok.all()),
                        max_offlattice_mass=float(mags[worst]),
                        worst_point=tuple(map(float, pts[worst])),
                        window=window, tol=tol, checked=len(pts))


def dual_lattice_basis(spatial_basis) -> np.ndarray:
    """Dual basis (B^T)^{-1}, each entry its exact value rounded once."""
    return inverse_float(as_int_matrix(spatial_basis)).T


def _hnf_sublattices(dim: int, max_index: int):
    """Hermite-normal-form bases of sublattices of Z^dim, index <= max_index.

    Lower triangular, with each off-diagonal entry in range of its row's
    diagonal: the diagonal entry a first, then the (dim-1)-block of index
    <= max_index // a, then the column entries below a.
    """
    if dim == 0:
        yield np.zeros((0, 0), dtype=int)
        return
    for a in range(1, max_index + 1):
        for block in _hnf_sublattices(dim - 1, max_index // a):
            for col in itertools.product(*map(range, np.diag(block))):
                basis = np.zeros((dim, dim), dtype=int)
                basis[0, 0], basis[1:, 0], basis[1:, 1:] = a, col, block
                yield basis


def find_tiling_lattice(sys: ConvolutionSystem, window: int = 64,
                        pol: TruncationPolicy = DEFAULT_POLICY,
                        max_index: int = 16,
                        tol: float = 1e-7) -> tuple[np.ndarray | None, TilingReport | None]:
    """First spatial sublattice of Z^d (by HNF enumeration, index <= cap)
    whose dual passes the tiling check; Z^d itself is tried first."""
    if max_index < 1:
        raise InvalidInput(f"max_index must be >= 1, got {max_index}")
    best = None
    for basis in _hnf_sublattices(sys.dim, max_index):
        g = dual_lattice_basis(basis)
        report = lattice_tiling_check(sys, g, window=window, pol=pol, tol=tol)
        if report.passed:
            return basis, report
        best = report
    return None, best
