"""Checkers the tests compare the library's answers with.

``set_equal`` decides semantic equality of two set expressions,
``count_prefix`` counts a set's members up to a horizon,
``solve_next_square`` is the Hilbert-space recurrence step on exact squares,
and ``remainder_dense_matrix`` the dense matrix of Id - T on a truncation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from fbasis.lp_operators import TailOp
from fbasis.natset import HorizonExceeded, SetExpr, _Desc, _ep_lcm, canonicalize
from fbasis.sequences import DomainError


def set_equal(a: SetExpr, b: SetExpr, check_horizon: int = 10 ** 4) -> bool:
    """Semantic equality: identical canonical form, or identical membership
    up to the check horizon together with identical descriptions.

    Descriptions that differ only by a redundant sparse token (as
    ``residue(4,0)|geom(2)`` and ``residue(4,0)|finite{2}`` do) compare
    unequal, so such a pair reads as a failure, never as a false pass."""
    ca, cb = canonicalize(a), canonicalize(b)
    if ca == cb:
        return True
    try:
        if not np.array_equal(ca.mask(check_horizon), cb.mask(check_horizon)):
            return False
        return all(_same_desc(x, y) for x, y in zip(ca.desc_pair(), cb.desc_pair()))
    except HorizonExceeded:
        return False


def _same_desc(a: _Desc, b: _Desc) -> bool:
    """Equal descriptions, residues compared over a common modulus."""
    m = _ep_lcm(a.ep, b.ep)
    return (a.ep.lift(m), a.plus, a.minus) == (b.ep.lift(m), b.plus, b.minus)


def count_prefix(s: SetExpr, horizon: int) -> int:
    return int(s.mask(horizon).sum())


def solve_next_square(b_squared: Sequence[Fraction], a_target_squared: Fraction) -> Fraction:
    """Exact next square for the Hilbert-space recurrence."""
    a2 = Fraction(a_target_squared)
    if a2 <= 1:
        raise DomainError("the squared target must exceed 1")
    return sum((Fraction(v) for v in b_squared), Fraction(0)) / (a2 - 1)


def remainder_dense_matrix(T: TailOp, dim: Optional[int] = None) -> np.ndarray:
    dim = dim or T.space.dim
    return np.eye(dim) - T.dense_matrix(dim)
