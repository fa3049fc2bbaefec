"""An independent oracle for ``basis_builder.verify_biorthogonality``.

This is the loop the package ran before the check reused its functional
values: at every checked stage it evaluates each coordinate functional
v*_k(x) = x_k / b_k - x_{k+1} / b_{k+1} afresh, and it takes |u - v| over
every coordinate, matching or not.  The stages and the random rational x
are the ones the production check uses, so both must return the same
report, on the sound kernel ``image_pairs`` and on a corrupted one, which
this loop reads through ``apply_op``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fbasis import TailOp, apply
from fbasis.basis_builder import BiorthReport


def apply_op(kernel):
    """``apply`` on rational b and x with ``kernel`` in place of
    ``image_pairs``: the kernel's pairs, read back as Fractions."""
    def op(T, x):
        pairs = kernel([v.as_integer_ratio() for v in T.b], [v.as_integer_ratio() for v in x],
                       T.stage)
        return [Fraction(u, v) for u, v in pairs]
    return op


def verify_biorthogonality(sys, kernel=None) -> BiorthReport:
    """The check's report, with T_n x from ``apply``, or from ``kernel``
    through ``apply_op`` where one is given."""
    op = apply if kernel is None else apply_op(kernel)
    k = sys.n_max - 1
    b = [Fraction(v) for v in sys.coefficients]
    rng = random.Random(0)
    x = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in b]
    stages = sorted({2 ** j for j in range(k.bit_length()) if 2 ** j < k} | {k})
    worst = Fraction(0)
    for n in stages:
        partial = [Fraction(0)] * len(x)
        tail = Fraction(0)
        for i in range(n, 0, -1):
            tail += x[i - 1] / b[i - 1] - x[i] / b[i]
            partial[i - 1] = b[i - 1] * tail
        got = op(TailOp(n, tuple(b[: n + 1]), sys.space), x)
        worst = max([worst] + [abs(u - v) for u, v in zip(partial, got)])
    return BiorthReport(size=k, max_error=float(worst), ok=worst == 0)
