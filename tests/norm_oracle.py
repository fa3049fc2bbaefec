"""An independent numeric oracle for the tail-operator norm.

This is the general-p optimizer the package used before the Hoelder
closed form replaced it: an outer golden-section search over the mass
tau placed on coordinate n+1 and an inner Lagrange-stationarity solve by
monotone scalar root-finding.  It shares no code with the closed form,
so agreement between the two is evidence for both.
"""

from __future__ import annotations

import math

import numpy as np

from fbasis import TailOp, apply

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_OUTER = 200
_MAX_INNER = 200


def golden_section_norm(T: TailOp) -> float:
    """||T||_p by numeric optimization, at least the certified ratio of
    the optimizer it reconstructs."""
    p = T.space.p_float
    n = T.stage
    bf = T.b_floats()
    u = bf[:n] / bf[n]

    def inner_value(tau: float) -> float:
        """Best objective for fixed tau, via the stationarity equation."""
        if tau <= 0.0:
            return 1.0
        if tau >= 1.0:
            return float((u ** p).sum() ** (1.0 / p))
        mu = _solve_stationarity(u, tau, p, 1.0 - tau ** p)
        x = tau * u / mu
        return float(((x + tau * u) ** p).sum() ** (1.0 / p))

    best_tau, best_val = 0.0, 1.0
    if inner_value(1.0) > best_val:
        best_tau, best_val = 1.0, inner_value(1.0)
    lo, hi = 0.0, 1.0
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = inner_value(c), inner_value(d)
    for _ in range(_MAX_OUTER):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = inner_value(c)
            if fc > best_val:
                best_tau, best_val = c, fc
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = inner_value(d)
            if fd > best_val:
                best_tau, best_val = d, fd
        if hi - lo < 1e-14:
            break
    return max(best_val, _evaluate_candidate(T, best_tau, u, p), 1.0)


def _solve_stationarity(u: np.ndarray, tau: float, p: float, s: float) -> float:
    """Monotone root of sum((tau*u/mu)**p) = s in mu."""
    scale = float((u ** p).sum())

    def f(mu: float) -> float:
        return (tau / mu) ** p * scale - s

    lo = hi = (tau * scale ** (1.0 / p)) / max(s, 1e-300) ** (1.0 / p)
    lo /= 2.0
    hi *= 2.0
    for _ in range(_MAX_INNER):
        if f(lo) >= 0.0:
            break
        lo /= 2.0
    else:
        raise RuntimeError(f"stationarity bracketing failed ({lo!r}..{hi!r})")
    for _ in range(_MAX_INNER):
        if f(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError(f"stationarity bracketing failed ({lo!r}..{hi!r})")
    for _ in range(_MAX_INNER):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def _evaluate_candidate(T: TailOp, tau: float, u: np.ndarray, p: float) -> float:
    """Norm ratio of the reconstructed optimizer, a certified lower bound."""
    n = T.stage
    s = max(1.0 - tau ** p, 0.0)
    if tau <= 0.0:
        x = np.zeros(n + 1)
        x[0] = 1.0
    elif s == 0.0:
        x = np.zeros(n + 1)
        x[n] = -1.0
    else:
        x = np.concatenate([tau * u / _solve_stationarity(u, tau, p, s), [-tau]])
    y = np.array(apply(T, list(x)), dtype=float)
    nx = float((np.abs(x) ** p).sum() ** (1.0 / p))
    ny = float((np.abs(y) ** p).sum() ** (1.0 / p))
    return ny / nx if nx > 0 else 0.0
