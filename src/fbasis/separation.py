"""Separators and cluster witnesses for diagonal functional systems.

For a diagonal system a_n e*_n the two regimes are decided by the
convergence of sum a_n**(-p):

* convergent: the vector with coordinates (1 + margin) / a_n separates
  the system from zero; |a_n x_n| = 1 + margin is an algebraic identity
  of the emitted spec, and the norm bound comes straight from the
  certified sum bound;
* divergent: zero is a cluster point, and for any finite collection of
  test vectors an explicit index m with max_k |a_m (x_k)_m| < 1 can be
  searched; the weighted-average profile shows the quantitative decay
  behind that search.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ._lazy_numpy import np
from ._record import record
from .natset import NATURALS
from .lp_operators import op_norm  # noqa: F401  (perfbench's tracer test calls separation.op_norm)
from .sequences import (
    DomainError,
    ScalarSeq,
    eval_at,
    seq_mul,
    seq_pow,
    seq_scale,
    tail_form,
)
from .series import running_sum, sum_inverse_p_verdict
from .vectors import TestVector


class NotSeparable(ValueError):
    """The inverse-power sum diverges, so acceptability holds instead."""


@record
class SeparatorSpec:
    dual_kind: str  # "linf-diagonal" | "l2-diagonal"
    margin: float
    vector: ScalarSeq  # coordinates (1 + margin) / a_n
    norm_bound: object  # certified bound for ||x||_1 or ||h||_2**2: float or Fraction
    identity_constant: float  # the common value of |a_n x_n|
    identity_exact: bool  # verified symbolically on the family


def plank_separator(a: ScalarSeq, dual_kind: str, margin) -> SeparatorSpec:
    """Separating vector when the relevant inverse sum converges."""
    margin = float(margin)
    if margin <= 0:
        raise DomainError("the margin must be positive")
    if not math.isfinite(margin):
        raise DomainError("the margin must be finite")
    if dual_kind not in ("linf-diagonal", "l2-diagonal"):
        raise DomainError(f"unknown dual kind {dual_kind!r}")
    p = 1 if dual_kind == "linf-diagonal" else 2
    verdict = sum_inverse_p_verdict(a, p, NATURALS)
    if verdict.kind != "converges":
        raise NotSeparable(
            f"sum of a**(-{p}) does not converge; the sequence is acceptable"
        )
    scale = Fraction(1 + Fraction(margin).limit_denominator(10 ** 9))
    vector = seq_scale(seq_pow(a, -1), scale)
    try:
        bound = float(scale) ** p * float(verdict.bound)
    except OverflowError:
        # a sum bound past the float range is exact, and so is its multiple
        bound = scale ** p * Fraction(verdict.bound)
    exact = _product_is_constant(a, vector, float(scale))
    return SeparatorSpec(
        dual_kind=dual_kind,
        margin=margin,
        vector=vector,
        norm_bound=bound,
        identity_constant=float(scale),
        identity_exact=exact,
    )


def _product_is_constant(a: ScalarSeq, v: ScalarSeq, constant: float) -> bool:
    prod = seq_mul(a, v)
    if prod is None:
        return False
    f = tail_form(prod)
    if f is None or f.beta != 0 or f.gamma != 0:
        return False
    if abs(float(f.c) - constant) > 1e-12 * constant:
        return False
    return all(abs(float(v) - constant) <= 1e-12 * constant for _, v in f.head)


@record
class ClusterWitness:
    index: int
    maxima: tuple  # |a_m (x_k)_m| at the witness index, per test vector


@record
class ClusterNotFound:
    horizon: int
    running_min: float
    at_index: int


def cluster_witness(
    a: ScalarSeq,
    p_dual,
    xs: Sequence[TestVector],
    horizon: int = 10 ** 6,
):
    """Smallest m <= horizon with max_k |a_m (x_k)_m| < 1.

    Existence is guaranteed in the divergent regime (sum of a**(-p)
    infinite); a miss at desk scale is reported as not-found with the
    running minimum, never treated as a refutation.  In the separator
    regime the search simply never succeeds.
    """
    from .sequences import eval_vector
    from .vectors import coordinate_vector

    if Fraction(p_dual) < 1:
        raise DomainError("the dual exponent must satisfy p >= 1")
    best = math.inf
    best_at = 0
    chunk = 1 << 16
    lo = 1
    while lo <= horizon:
        hi = min(horizon, lo + chunk - 1)
        avals = eval_vector(a, hi, lo - 1)
        worst = np.zeros(hi - lo + 1)
        per_vec = []
        for x in xs:
            vals = coordinate_vector(x, hi, lo - 1) * avals
            per_vec.append(vals)
            worst = np.maximum(worst, vals)
        idx = np.nonzero(worst < 1.0)[0]
        if idx.size:
            m = lo + int(idx[0])
            maxima = tuple(float(v[int(idx[0])]) for v in per_vec)
            return ClusterWitness(index=m, maxima=maxima)
        j = int(np.argmin(worst))
        if float(worst[j]) < best:
            best, best_at = float(worst[j]), lo + j
        lo = hi + 1
    return ClusterNotFound(horizon=horizon, running_min=best, at_index=best_at)


# ---------------------------------------------------------------------------
# the averaging profile


@record
class ProfileRow:
    n: int
    average: float  # A(n): weighted average of sum_k |a_m (x_k)_m|
    bound: float  # B(n): sum_k ||x_k||_1 / partial sum of a**-1


def lemma1_profile(
    a: ScalarSeq,
    xs: Sequence[TestVector],
    grid: Sequence[int],
) -> list[ProfileRow]:
    """Decay table A(n) <= B(n) behind the cluster-point argument.

    With weights a_m**-1 normalized over m <= n, the weighted average of
    sum_k |a_m (x_k)_m| collapses to sum_k sum_{m<=n} |(x_k)_m| over the
    partial sum of a**-1, which the absolute-sum bound pushes below
    B(n) -> 0.
    """
    if sum_inverse_p_verdict(a, 1, NATURALS).kind != "diverges":
        raise DomainError("the averaging profile needs a divergent inverse sum")
    from .sequences import eval_vector
    from .vectors import coordinate_vector

    norms = [float(x.norm_upper(1)) for x in xs]
    rows = []
    grid = sorted(set(int(n) for n in grid))
    if not grid or grid[0] < 1:
        raise DomainError("the grid points must be at least 1")
    top = grid[-1]
    coords = np.zeros(top)
    with np.errstate(divide="ignore", over="ignore"):  # values past the float range are +inf
        inv = 1.0 / eval_vector(a, top)
        for x in xs:
            coords += np.abs(coordinate_vector(x, top))
        inv_cum = np.cumsum(inv)
        coord_cum = np.cumsum(coords)
    logs = None
    for n in grid:
        s_n = float(inv_cum[n - 1])
        if s_n == 0.0:
            raise DomainError(f"the partial sum of a**-1 up to n={n} underflows to 0.0")
        avg = float(coord_cum[n - 1]) / s_n
        bound = running_sum(norms) / s_n
        if math.isnan(avg) or math.isnan(bound):  # +inf over +inf: the ratios in logs
            logs = logs or _log_sums(a, xs, grid)
            (ln_s, ln_coord), ln_norms = logs[0][n], logs[1]
            avg = _exp(ln_coord - ln_s) if math.isnan(avg) else avg
            bound = _exp(ln_norms - ln_s) if math.isnan(bound) else bound
        rows.append(ProfileRow(n=n, average=avg, bound=bound))
    return rows


def _log_sums(a: ScalarSeq, xs: Sequence[TestVector], grid: list):
    """ln of the partial sums of a**-1 and of sum_k |(x_k)_m| up to each n
    of the grid, a pair by n, and ln of sum_k ||x_k||_1's bound: finite
    where the float sums saturate to +inf."""
    from .sequences import eval_at_indices
    from .vectors import coordinate_vector, ln_norm_upper

    top, at = grid[-1], [n - 1 for n in grid]
    ln_inv = np.logaddexp.accumulate(-eval_at_indices(a, np.arange(1, top + 1), logs=True))
    ln_coords = np.full(top, -math.inf)
    for x in xs:
        np.logaddexp(ln_coords, coordinate_vector(x, top, logs=True), out=ln_coords)
    ln_coords = np.logaddexp.accumulate(ln_coords)
    ln_norms = float(np.logaddexp.reduce([ln_norm_upper(x, 1) for x in xs]))
    return dict(zip(grid, zip(ln_inv[at].tolist(), ln_coords[at].tolist()))), ln_norms


def _exp(x: float) -> float:
    """e**x, +inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# functionals as rank-one operators and back


@record
class RankOneOp:
    index: int
    norm: float
    anchor: int


def lift_functionals_to_operators(
    a: ScalarSeq, anchor: int, count: int
) -> list[RankOneOp]:
    """Diagonal functionals a_n e*_n lifted to rank-one operators
    x -> a_n e*_n(x) e_anchor; the norm is the product of the factor
    norms, hence exactly a_n."""
    if anchor < 1:
        raise DomainError("anchor index starts at 1")
    return [RankOneOp(n, float(eval_at(a, n)), anchor) for n in range(1, count + 1)]
