"""A numeric oracle for the closed-form operator norms: a direct search for
large ratios ||T x|| / ||x||, which nothing on the construction path calls."""

from __future__ import annotations

from fractions import Fraction

from ._lazy_numpy import np
from .lp_operators import NormReport, TailOp, norm_ratio, riesz_thorin_upper


def op_norm_bruteforce(T: TailOp, budget: int = 200, seed: int = 0) -> NormReport:
    """Certified lower bound: the basis directions and seeded random
    vectors, then coordinate ascent from the best.  Exact for rational
    p = 1, where a basis direction attains the norm."""
    if T.space.is_l1 and all(isinstance(v, Fraction) for v in T.b):
        value = max(Fraction(1), sum(T.b[:-1]) / T.b[-1])
        return NormReport(float(value), "BruteForce", float(value), float(value), exact=value)
    dim = T.stage + 1
    bf, p = T.b_floats(), T.space.p_float
    rng = np.random.default_rng(seed)
    starts = np.vstack([np.eye(dim), rng.standard_normal((max(0, budget), dim))])
    ratios = [norm_ratio(bf, x, p) for x in starts]
    best, x = max(ratios), starts[int(np.argmax(ratios))]
    for step in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6):
        improved = True
        while improved:
            improved = False
            for i in range(dim):
                for sgn in (1.0, -1.0):
                    trial = x.copy()
                    trial[i] += sgn * step * max(1.0, abs(trial[i]))
                    r = norm_ratio(bf, trial, p)
                    if r > best:
                        best, x, improved = r, trial, True
    return NormReport(best, "BruteForce", best, max(riesz_thorin_upper(bf, p), best))
