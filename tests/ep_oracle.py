"""Eventually periodic sets with their residues in a ``frozenset``, as an
oracle for ``natset._EP``.

An eventually periodic set is a modulus m and the residues mod m that it
occupies.  ``natset._EP`` keeps those residues as the bits of one int;
here they are a ``(modulus, frozenset)`` pair, and every operation is
written out residue by residue: lifting to a multiple of the modulus,
union and intersection over the lcm, complement, shift, density, and the
empty and full tests.
"""

from __future__ import annotations

import math
from fractions import Fraction


def of(ep) -> tuple[int, frozenset]:
    """The oracle form of an ``_EP``, read through its ``residues``."""
    return ep.modulus, ep.residues


def lift(a, modulus: int):
    m, residues = a
    return modulus, frozenset(r + j * m for r in residues for j in range(modulus // m))


def _common(a, b):
    m = a[0] * b[0] // math.gcd(a[0], b[0])
    return m, lift(a, m)[1], lift(b, m)[1]


def union(a, b):
    m, x, y = _common(a, b)
    return m, x | y


def intersect(a, b):
    m, x, y = _common(a, b)
    return m, x & y


def complement(a):
    m, residues = a
    return m, frozenset(range(m)) - residues


def shift(a, offset: int):
    m, residues = a
    return m, frozenset((r + offset) % m for r in residues)


def density(a) -> Fraction:
    return Fraction(len(a[1]), a[0])


def is_empty(a) -> bool:
    return not a[1]


def is_full(a) -> bool:
    return len(a[1]) == a[0]
