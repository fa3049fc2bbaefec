"""Norm prescription in the Hilbert space and in l_p.

The Hilbert recurrence is exact on squares, so the irrational target
sqrt(2) is handled without any floating error; the prescribed norms are
then cross-checked against a dense SVD.  For p = 1.5 the coefficient and
the norm come from the Hoelder closed forms, (1 + U**q)**(1/q) with q the
dual exponent, sandwiched between a brute-force lower bound and the
interpolation upper bound.
"""

from fractions import Fraction

import numpy as np

from fbasis import (
    Constant,
    Frechet,
    TailOp,
    build_basis,
    l2,
    lp,
    op_norm,
    op_norm_bruteforce,
    solve_b_next,
)
from fbasis.lp_operators import riesz_thorin_upper

# targets a_n = sqrt(2), supplied as exact squares
system = build_basis(None, l2(64), Frechet(), n_max=8, a_squared=Constant(2))
print("squared coefficients:", system.coefficients_squared)
print("defect coefficients:", system.defect_coeffs)  # all exactly 1

for T, rep in zip(system.stages, system.norm_reports):
    dense = T.dense_matrix(T.stage + 2)
    svd = float(np.linalg.svd(dense, compute_uv=False)[0])
    print(f"stage {T.stage}: norm^2 = {rep.exact_square}, svd oracle = {svd:.12f}")

# now prescribe norms in l_1.5
space = lp(Fraction(3, 2), 32)
b = [1.0]
for target in (2.0, 3.0, 1.5, 2.5):
    nxt = solve_b_next(tuple(b), target, space)
    b.append(nxt)
    T = TailOp(len(b) - 1, tuple(b), space)
    rep = op_norm(T)
    brute = op_norm_bruteforce(T, budget=400, seed=1)
    upper = riesz_thorin_upper(T.b_floats(), 1.5)
    print(
        f"target {target}: b_next = {nxt:.12f}, norm = {rep.value:.9f}, "
        f"brute >= {brute.value:.9f}, interpolation <= {upper:.6f}"
    )
