"""Random words over a digit-set family: ensembles, probes, tiling.

The two-state family B(0) = {0,1}, B(1) = {0,3} at scale 2 is the smallest
interesting one: every word yields a measure orthogonal to the integer
lattice, almost every infinite word yields a spectral one, yet the word
0111... gives a density (1/3, 2/3, 1/3 on thirds of [0,2]) that is
provably not spectral.
"""

import numpy as np

from speclab import (EnsembleConfig, LatticeGenerator, counterexample_probe,
                     ensemble_spectrum_report, ensemble_tiling_report,
                     sample_words, triple)

family = [triple(2, [0, 1], [0, 1]), triple(2, [0, 3], [0, 1])]
gen = LatticeGenerator([[1]])

words = sample_words(2, 12, 3, seed=4)
print(f"sampled words (seeded, reproducible): {words}")

print("\nthe classic non-spectral word, probed at xi = 1/2:")
rep = counterexample_probe(family, (0,) + (1,) * 19, gen, [0.5], window=200)
print(f"  Q(1/2) = {rep.rows[0].q:.5f} (limit 1/9 = {1/9:.5f}), "
      f"verdict: {rep.verdict}")

rep = counterexample_probe(family, (0,) * 20, gen, [0.5], window=200)
print(f"  all-zero word instead: Q(1/2) = {rep.rows[0].q:.5f}, "
      f"verdict: {rep.verdict}")

print("\ntiling side: every word's transform vanishes on the nonzero")
print("integers (both masks kill odd-over-two arguments), so translates of")
print("every sampled measure sum to Lebesgue measure:")
cfg = EnsembleConfig(triples=family, generator=gen, word_length=20,
                     samples=60, seed=11, window=64)
tiling = ensemble_tiling_report(cfg, 1.0)
print(f"  tiling pass fraction: {tiling.pass_fraction:.2f} "
      f"(worst mass {max(v.max_q for v in tiling.verdicts):.1e})")

print("\ncompleteness at a finite window is a different story: a radius-64")
print("window cannot see mass near the 2^-20 fragmentation scale, so most")
print("sampled words score low even though their measures are spectral:")
cfg = EnsembleConfig(triples=family, generator=gen, word_length=20,
                     samples=60, seed=7, grid=32, window=64)
rep = ensemble_spectrum_report(cfg)
print(f"  windowed pass fraction: {rep.pass_fraction:.3f}, "
      f"median min-Q {rep.min_q_median:.3f}")
print(f"  orthogonality never breaks: "
      f"max Q over all samples = {max(v.max_q for v in rep.verdicts):.6f}")

print("\nshorter words fragment less and score accordingly:")
for length in (2, 4, 8):
    cfg = EnsembleConfig(triples=family, generator=gen, word_length=length,
                         samples=60, seed=7, grid=32, window=64)
    rep = ensemble_spectrum_report(cfg)
    print(f"  length {length:2d}: median min-Q = {rep.min_q_median:.4f}")
