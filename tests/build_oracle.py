"""The stage loop ``basis_builder.build_basis`` ran before its exact stages
became two products with the small prescribed ratio: each stage divides
the running Fraction mass by the ratio for b_{n+1}**p, divides again for
W = mass / b_{n+1}**p, and adds b_{n+1}**p to the mass, a gcd of two large
numbers.  The function is the package's old one, unedited; only its
imports are new.  Every system it builds must equal, field by field and
type by type, the one the package builds now.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from fbasis.admissibility import check_admissible
from fbasis.basis_builder import BasisSystem, NotAdmissible, _certify_stage_norm
from fbasis.filters import FilterSpec
from fbasis.lp_operators import (
    DimensionMismatch,
    SpaceKind,
    _prescribed_ratio,
    _root,
    _stage_norm,
)
from fbasis.sequences import DomainError, ScalarSeq, eval_at, seq_pow, to_float


def build_basis(
    a: Optional[ScalarSeq],
    space: SpaceKind,
    F: FilterSpec,
    n_max: int = 32,
    a_squared: Optional[ScalarSeq] = None,
) -> BasisSystem:
    """Run the recurrence and certify every stage invariant.

    The loop carries the mass S = b_1**p + ... + b_n**p and prescribes
    b_{n+1}**p = S / W with W = (a_n**q - 1)**(p - 1) (W = a_n at p = 1).
    It stays in rationals while the targets do: the coefficients for
    p = 1, the squares for p = 2; from the first stage that leaves them
    it continues in floats.  ``a_squared`` optionally supplies exact
    squared targets for the Hilbert-space path (so irrational targets like
    sqrt(2) stay exact on squares).
    """
    if n_max < 2:
        raise DomainError("need at least two coefficients")
    if space.dim < n_max:
        raise DimensionMismatch(f"{n_max} coefficients need dimension {n_max}, got {space.dim}")
    admiss_seq = a
    if a is None:
        if a_squared is None:
            raise DomainError("a target sequence is required")
        admiss_seq = seq_pow(a_squared, Fraction(1, 2))
    targets = [eval_at(admiss_seq, n) for n in range(1, n_max)]
    for n, t in enumerate(targets, start=1):
        value = to_float(t)
        if value == math.inf:
            raise DomainError(f"target norm at stage {n} lies beyond the float range")
        if not value > 1:
            raise DomainError(f"target norm at stage {n} must exceed 1, got {value}")
    p = space.p if isinstance(space.p, Fraction) else Fraction(space.p).limit_denominator(10 ** 6)
    verdict = check_admissible(admiss_seq, F, max(p, Fraction(1)))
    if verdict.kind == "refuted":
        raise NotAdmissible(verdict)
    warnings = []
    if verdict.kind == "inconclusive":
        warnings.append(
            "admissibility inconclusive: the filter-basis property of the "
            "produced system is not certified (" + verdict.reason + ")"
        )

    p = space.p
    on_l1, on_l2 = p == 1, space.is_l2  # tested once, not per stage
    if on_l2 and a_squared is None:
        a_squared = seq_pow(a, 2)
    squares = [Fraction(1)] if on_l2 else None
    coeffs: list = [Fraction(1) if on_l1 else 1.0]
    mass = Fraction(1)
    reports: list = []
    defects: list = []
    for n, t in enumerate(targets, start=1):
        t_square = eval_at(a_squared, n) if on_l2 else None
        nxt = mass / _prescribed_ratio(t, p, t_square)  # b_{n+1}**p
        if isinstance(nxt, float) and not 0.0 < nxt < math.inf:  # mass or ratio past the range
            raise DomainError(f"coefficient at stage {n} lies beyond the float range")
        if squares is not None and not isinstance(nxt, Fraction):
            squares = None
            warnings.append("squared targets left the rationals; continuing in floats")
        if squares is not None:
            squares.append(nxt)
        b = _root(nxt, p)
        if isinstance(coeffs[-1], Fraction) and not isinstance(b, Fraction):
            coeffs = [float(v) for v in coeffs]
        coeffs.append(b if on_l1 else float(b))
        W = mass / nxt
        rep = _stage_norm(W, p, coeffs)
        _certify_stage_norm(rep, t, t_square, n)
        reports.append(rep)
        c = _root(W, p)  # U = ||v_n||_p / b_{n+1}
        defects.append(c if on_l1 else float(c))
        mass += nxt
    return BasisSystem(space=space, target=admiss_seq, filter=F, coefficients=coeffs,
                       coefficients_squared=squares, norm_reports=reports,
                       defect_coeffs=defects, admissibility=verdict, targets=targets,
                       warnings=warnings)
