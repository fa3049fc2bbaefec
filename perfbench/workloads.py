"""Seeded op lists for the benchmark workloads.

An op is one `fbasis` argv line plus what its oracle needs to judge the
report.  Each workload is an endless stream of blocks drawn from one
`random.Random(seed)`: the same seed gives the same stream.  A block has a
fixed composition (which commands, which cost strata) and only the
parameters inside each stratum are drawn, so runs on different seeds do
comparable work and their throughput and latencies can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Iterator, Optional

WORKLOADS = ("verdicts", "construct_exact", "construct_float")


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: str  # name of the oracle in oracle.CHECKS
    expect: dict = field(default_factory=dict, compare=False)
    stages: int = 0  # n_max - 1 for ops that build a system
    convergent_cert: bool = False  # the answer carries a convergent-sum certificate


def num(x) -> str:
    """A rational in the CLI's number syntax."""
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def seq_text(c, beta, gamma=Q(0)) -> str:
    if gamma == 0:
        return f"pow({num(c)},{num(beta)})"
    return f"powlog({num(c)},{num(beta)},{num(gamma)})"


# ---------------------------------------------------------------------------
# target sequences the construct oracles evaluate themselves


@dataclass(frozen=True)
class Target:
    """c * n**beta after an explicit head; beta = 0 is const(c)."""

    c: Q
    beta: Q = Q(0)
    head: tuple = ()

    def text(self) -> str:
        tail = f"const({num(self.c)})" if self.beta == 0 else seq_text(self.c, self.beta)
        if not self.head:
            return tail
        return "prefix[" + ",".join(num(v) for v in self.head) + "]:" + tail

    def exact(self, n: int) -> Optional[Q]:
        """The n-th value as a Fraction; None unless beta is an integer."""
        if n <= len(self.head):
            return Q(self.head[n - 1])
        if self.beta.denominator != 1:
            return None
        return self.c * Q(n) ** self.beta

    def value(self, n: int) -> float:
        if n <= len(self.head):
            return float(self.head[n - 1])
        return float(self.c) * float(n) ** float(self.beta)


# ---------------------------------------------------------------------------
# verdicts

P_GRID = (Q(1), Q(3, 2), Q(2), Q(3))
C_GRID = (Q(1), Q(3, 2), Q(2), Q(5, 2), Q(3), Q(4))
ALPHA_GRID = (Q(1, 4), Q(1, 3), Q(1, 2), Q(2, 3), Q(3, 4), Q(1))
GAMMA_GRID = (Q(-1), Q(-1, 2), Q(1, 2), Q(1))
# beta = 1/8 is left out: see KNOWN_DEFECTS
BETA_GRID = tuple(sorted({Q(k, d) for d in (1, 2, 3, 4, 8) for k in range(-8, 25)
                          if Q(-1) <= Q(k, d) <= Q(3)} - {Q(1, 8)}))
FILTER_KINDS = ("frechet", "statistical", "summable", "trace-frechet", "trace-statistical")

# high-stratum refutation cells: the exact prefix sum costs most for an
# integer exponent s = beta * p, less for a fractional one, least with a
# log factor; every block holds the same multiset of cells
HIGH_CELLS = ("pow-int", "pow-int", "pow-frac", "pow-frac", "powlog")


def _residue(rng: random.Random) -> tuple[int, int]:
    q = rng.choice((2, 3, 4, 5))
    return q, rng.randrange(q)


def _filter_text(kind: str, rng: random.Random) -> tuple[str, dict]:
    if kind == "frechet":
        return "frechet", {"kind": "frechet"}
    if kind == "statistical":
        return "statistical", {"kind": "statistical"}
    if kind == "summable":
        alpha = rng.choice(ALPHA_GRID)
        return f"summable(pow(1,{num(-alpha)}))", {"kind": "summable", "alpha": alpha}
    base = kind.split("-", 1)[1]
    q, r = _residue(rng)
    return f"trace({base}; residue({q},{r}))", {"kind": kind}


def admissible(beta: Q, gamma: Q, p: Q, filt: dict) -> bool:
    """Ground truth for c * n**beta * log(n+1)**gamma at exponent p.

    Bounded targets are admissible for every free filter.  Otherwise a
    convergent global sum of a**-p refutes everywhere; Frechet (and its
    trace on a residue class) refutes every unbounded target; statistical
    (and its trace) admits growth up to n**(1/p); summable(n**-alpha)
    admits a**p * n**-alpha bounded.
    """
    s, t = beta * p, gamma * p
    if beta < 0 or (beta == 0 and gamma <= 0):
        return True
    if s > 1 or (s == 1 and t > 1):
        return False
    kind = filt["kind"]
    if kind in ("frechet", "trace-frechet"):
        return False
    if kind in ("statistical", "trace-statistical"):
        return s < 1 or (s == 1 and t <= 0)
    alpha = filt["alpha"]
    return s < alpha or (s == alpha and t <= 0)


def _draw_low(rng: random.Random) -> tuple[Q, Q, Q]:
    """beta, gamma, p with s = beta * p <= 1."""
    p = rng.choice(P_GRID)
    beta = rng.choice([b for b in BETA_GRID if b * p <= 1])
    gamma = rng.choice(GAMMA_GRID) if rng.random() < 0.5 else Q(0)
    return beta, gamma, p


def _draw_high(rng: random.Random, cell: str) -> tuple[Q, Q, Q]:
    """beta, gamma, p with s = beta * p in (1, 3]."""
    p = rng.choice(P_GRID)
    if cell == "pow-int":
        betas = [b for b in BETA_GRID if b * p == 2]
    elif cell == "pow-frac":
        betas = [b for b in BETA_GRID if 1 < b * p < 2 and (b * p).denominator != 1]
    else:
        betas = [b for b in BETA_GRID if 1 < b * p <= 3]
    gamma = rng.choice(GAMMA_GRID) if cell == "powlog" else Q(0)
    return rng.choice(betas), gamma, p


def _check_admissible_op(rng, kind, beta, gamma, p) -> Op:
    c = rng.choice(C_GRID)
    ftext, fdesc = _filter_text(kind, rng)
    verdict = "proved" if admissible(beta, gamma, p, fdesc) else "refuted"
    return Op(
        ("check-admissible", "--seq", seq_text(c, beta, gamma), "--filter", ftext, "--p", num(p)),
        "verdict",
        {"verdict": verdict},
        convergent_cert=verdict == "refuted",
    )


WITNESS_GAPS = (Q(3, 4), Q(1), Q(3, 2))


def _witness_op(rng: random.Random, holds: bool, k: int) -> Op:
    if holds:
        alpha, p = rng.choice(ALPHA_GRID), rng.choice(P_GRID)
        beta = rng.choice([b for b in BETA_GRID if b * p <= alpha])
    else:
        # Greedy blocks grow as s = beta * p falls toward alpha: at s - alpha
        # = 1/4 with alpha = 1 one report is 1.6 MB, at 3/4 ~60 KB.  The
        # gap and p rotate with the block index, so that every run of 12
        # blocks or more holds the scan that sets the peak RSS (+8 MB at
        # p = 3, gap 3/2); greedy refutations with alpha < 1 come from the
        # summable check-admissible op.
        alpha, p = Q(1), P_GRID[(k // 3) % 4]
        beta = (alpha + WITNESS_GAPS[k % 3]) / p
    c = rng.choice(C_GRID)
    return Op(
        ("witness", "--seq", seq_text(c, beta), "--weights", f"pow(1,{num(-alpha)})",
         "--p", num(p)),
        "witness",
        {"holds": holds, "weights_alpha": alpha},
        convergent_cert=not holds,
    )


def _separate_op(rng: random.Random, separable: bool) -> Op:
    dual = rng.choice(("linf", "l2"))
    q = 1 if dual == "linf" else 2
    if separable:
        beta = rng.choice([b for b in BETA_GRID if 1 < b * q <= 3])
    else:
        beta = rng.choice([b for b in BETA_GRID if b * q <= 1])
    c = rng.choice(C_GRID)
    margin = rng.choice(("0.05", "0.1", "0.25", "0.5", "1"))
    return Op(
        ("separate", "--seq", seq_text(c, beta), "--dual", dual, "--margin", margin),
        "separate",
        {"separable": separable, "c": c, "beta": beta, "q": q, "margin": Q(margin)},
        convergent_cert=separable,
    )


# set shape -> its class under (frechet, statistical, summable(n**-alpha), alpha <= 1)
SET_CLASSES = {
    "residue": ("stationary", "stationary", "stationary"),
    "!residue": ("stationary", "stationary", "stationary"),
    "geom": ("stationary", "negligible", "negligible"),
    "!geom": ("stationary", "member", "member"),
    "finite": ("negligible", "negligible", "negligible"),
    "cofinite": ("member", "member", "member"),
}


def _classify_op(rng: random.Random) -> Op:
    shape = rng.choice(tuple(SET_CLASSES))
    if shape.endswith("residue"):
        text = "residue(%d,%d)" % _residue(rng)
    elif shape.endswith("geom"):
        text = f"geom({rng.choice((2, 3, 5))})"
    else:
        vals = sorted(rng.sample(range(1, 60), rng.randrange(1, 5)))
        text = shape + "{" + ",".join(str(v) for v in vals) + "}"
    if shape.startswith("!"):
        text = "!" + text
    column = rng.randrange(3)
    ftext, _ = _filter_text(("frechet", "statistical", "summable")[column], rng)
    return Op(("classify-set", "--set", text, "--filter", ftext), "classify",
              {"class": SET_CLASSES[shape][column]})


def _dominates_op(rng: random.Random) -> Op:
    def summable():
        a = rng.choice(ALPHA_GRID)
        return f"summable(pow(1,{num(-a)}))", a

    def trace():
        q, r = _residue(rng)
        return f"trace(statistical; residue({q},{r}))"

    pair = rng.randrange(8)
    if pair == 0:
        f1, f2, want = rng.choice(("statistical", summable()[0], trace())), "frechet", "proved"
    elif pair == 1:
        f2 = rng.choice(("statistical", summable()[0], trace()))
        f1, want = "frechet", "refuted"
    elif pair == 2:
        f1, f2, want = "statistical", summable()[0], "proved"
    elif pair == 3:
        f1, f2, want = summable()[0], rng.choice(("statistical", trace())), "refuted"
    elif pair == 4:
        (f1, a1), (f2, a2) = summable(), summable()
        want = "proved" if a1 >= a2 else "refuted"
    elif pair == 5:
        f1, f2, want = "statistical", trace(), "refuted"
    elif pair == 6:
        f1, f2, want = trace(), "statistical", "proved"
    else:
        f1, f2, want = trace(), summable()[0], "proved"
    return Op(("dominates", "--filter", f1, "--filter2", f2), "dominates", {"verdict": want})


def _profile_op(rng: random.Random) -> Op:
    c = rng.choice(C_GRID)
    beta = rng.choice([b for b in BETA_GRID if 0 <= b <= 1])
    tail = rng.choice((Q(3, 2), Q(2), Q(3)))
    grid = sorted(rng.sample(range(5, 4000), 3))
    vectors = f"powtail({num(tail)}); e({rng.randrange(1, 6)})"
    return Op(
        ("profile-lemma1", "--seq", seq_text(c, beta), "--vectors", vectors,
         "--grid", ",".join(str(g) for g in grid)),
        "profile",
        {"rows": len(grid)},
    )


def readme_ops() -> list[Op]:
    """The nine README examples, with the exit codes their answers imply."""
    return [
        Op(("check-admissible", "--seq", "pow(1,0.5)", "--filter", "statistical", "--p", "2"),
           "verdict", {"verdict": "proved"}),
        Op(("build-basis", "--seq", "const(2)", "--space", "l1",
            "--filter", "summable(const(0.5))", "--n-max", "8"),
           "exact", {"target": Target(Q(2)), "square": False}, stages=7),
        Op(("build-basis", "--a-squared", "const(2)", "--space", "l2",
            "--filter", "frechet", "--n-max", "8"),
           "exact", {"target": Target(Q(2)), "square": True}, stages=7),
        Op(("witness", "--seq", "pow(1,2)", "--weights", "pow(1,-1)", "--p", "1"),
           "witness", {"holds": False, "weights_alpha": Q(1)}, convergent_cert=True),
        Op(("separate", "--seq", "pow(1,2)", "--dual", "linf", "--margin", "0.1"),
           "separate", {"separable": True, "c": Q(1), "beta": Q(2), "q": 1,
                        "margin": Q("0.1")}, convergent_cert=True),
        Op(("classify-set", "--set", "residue(2,0)", "--filter", "statistical"),
           "classify", {"class": "stationary"}),
        Op(("demo-convergence", "--seq", "prefix[2]:pow(1,1)", "--space", "l1",
            "--filter", "summable(pow(1,-1))", "--n-max", "10",
            "--vector", "spike(shift(geom(2),1); powlog(1,0,-2))", "--under", "frechet"),
           "demo", {"converges": False, "n_max": 10}, stages=9),
        Op(("dominates", "--filter", "frechet", "--filter2", "statistical"),
           "dominates", {"verdict": "refuted"}),
        Op(("profile-lemma1", "--seq", "pow(1,1/2)", "--vectors", "powtail(2); e(1)",
            "--grid", "10,100,1000", "--format", "csv"),
           "profile", {"rows": 3}),
    ]


# Inputs that fail today.  They stay out of the timed streams, so that a
# gated run completes, and every run tries them once, untimed, and records
# the outcome, so that the defect stays in view until it is fixed: the
# exact root of 2**k overflows a float while summing n**(-1/8) over geom(2).
KNOWN_DEFECTS = (
    Op(("check-admissible", "--seq", "pow(2,1/8)", "--filter", "frechet", "--p", "1"),
       "verdict", {"verdict": "refuted"}),
    Op(("check-admissible", "--seq", "powlog(3/2,1/8,1/2)", "--filter",
        "trace(frechet; residue(5,2))", "--p", "1"),
       "verdict", {"verdict": "refuted"}),
)


def _verdicts_block(rng: random.Random, k: int) -> list[Op]:
    ops = []
    high = list(HIGH_CELLS)
    rng.shuffle(high)
    for kind, cell in zip(FILTER_KINDS, high):
        ops.append(_check_admissible_op(rng, kind, *_draw_low(rng)))
        ops.append(_check_admissible_op(rng, kind, *_draw_high(rng, cell)))
    # summable refutations below the global cutoff go through a greedy witness
    alpha = rng.choice(ALPHA_GRID[:-1])
    p = rng.choice(P_GRID)
    beta = rng.choice([b for b in BETA_GRID if alpha < b * p <= 1])
    c = rng.choice(C_GRID)
    ops.append(Op(
        ("check-admissible", "--seq", seq_text(c, beta), "--filter",
         f"summable(pow(1,{num(-alpha)}))", "--p", num(p)),
        "verdict", {"verdict": "refuted"}, convergent_cert=True))
    ops += [_witness_op(rng, True, k), _witness_op(rng, False, k)]
    ops += [_separate_op(rng, True), _separate_op(rng, False)]
    ops += [_classify_op(rng) for _ in range(4)]
    ops += [_dominates_op(rng) for _ in range(4)]
    ops.append(_profile_op(rng))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# construct_exact and construct_float
#
# Construction cost depends on the space, the target's shape and n_max.
# Every block covers all n strata, each stratum with a fixed shape, and the
# space (construct_exact) or p (construct_float) of a stratum rotates with
# the block index k, so runs that fit a different number of blocks still do
# the same mix of work.  The seed draws the constants, the heads and n
# inside a stratum.

# 8 narrow strata over n_max 44..242: cost grows like n**2 here, and wider
# strata let the ops at the median and tail latency change from seed to seed
EXACT_STRATA = tuple((c - 1, c + 1) for c in range(45, 256, 28))
# the median op falls in the second stratum and the tail op among the
# third and fourth; their n is pinned so that latency_p50_ms and
# latency_tail_ms do not follow the n the seed draws there
FLOAT_STRATA = ((4, 6), (8, 8), (11, 11), (15, 15))
LP_GRID = (Q(5, 4), Q(3, 2), Q(3), Q(4))
TARGET_C = (Q(3, 2), Q(2), Q(5, 2), Q(3), Q(7, 2), Q(4), Q(9, 2), Q(5))


def _head(rng: random.Random, lo: int, hi: int) -> tuple:
    return tuple(rng.choice(TARGET_C) for _ in range(rng.randint(lo, hi)))


def _rational_target(rng: random.Random, shape: int) -> tuple[Target, str]:
    """A target with rational values and a filter it is admissible for."""
    c = rng.choice(TARGET_C)
    if shape == 0:
        return Target(c), rng.choice(("frechet", "statistical", "summable(pow(1,-1))"))
    if shape == 1:
        return Target(c, Q(0), _head(rng, 1, 3)), rng.choice(("frechet", "statistical"))
    return Target(c, Q(1)), "summable(pow(1,-1))"


def _build_exact_op(rng: random.Random, space: str, stratum: tuple, shape: int) -> Op:
    n = rng.randint(*stratum)
    target, filt = _rational_target(rng, shape)
    flag = "--seq" if space == "l1" else "--a-squared"
    return Op(
        ("build-basis", flag, target.text(), "--space", space, "--filter", filt,
         "--n-max", str(n), "--dim", str(n + 1)),
        "exact",
        {"target": target, "square": space == "l2"},
        stages=n - 1,
    )


def _demo_op(rng: random.Random, stratum: tuple, under: bool) -> Op:
    """Unbounded targets: convergent under their own summable filter,
    divergent under Frechet on the sparse spike vector."""
    n = rng.randint(*stratum)
    target = Target(rng.choice(TARGET_C), Q(1), _head(rng, 0, 2))
    argv = ("demo-convergence", "--seq", target.text(), "--space", "l1",
            "--filter", "summable(pow(1,-1))", "--n-max", str(n), "--dim", str(n + 1),
            "--vector", "spike(shift(geom(2),1); powlog(1,0,-2))")
    if under:
        argv += ("--under", "frechet")
    return Op(argv, "demo", {"converges": not under, "n_max": n}, stages=n - 1)


def _construct_exact_block(rng: random.Random, k: int) -> list[Op]:
    ops = [_build_exact_op(rng, ("l1", "l2")[(i + k) % 2], stratum, i % 3)
           for i, stratum in enumerate(EXACT_STRATA)]
    half = len(EXACT_STRATA) // 2
    ops.append(_demo_op(rng, EXACT_STRATA[k % half], k % 2 == 0))
    ops.append(_demo_op(rng, EXACT_STRATA[half + k % half], k % 2 == 1))
    rng.shuffle(ops)
    return ops


def _lp_op(rng: random.Random, p: Q, stratum: tuple, shape: int) -> Op:
    n = rng.randint(*stratum)
    c = rng.choice(TARGET_C)
    if shape == 0:
        target, filt = Target(c), rng.choice(("frechet", "statistical"))
    elif shape == 1:
        target, filt = Target(c, Q(0), _head(rng, 1, 2)), "frechet"
    else:
        target, filt = Target(c, Q(1, 4)), "statistical"
    return Op(
        ("build-basis", "--seq", target.text(), "--space", f"lp({num(p)})",
         "--filter", filt, "--n-max", str(n)),
        "float",
        {"target": target},
        stages=n - 1,
    )


# The smaller beta, the farther out defect_report's threshold scans run:
# 1/4 costs ~0.3 s an op, the QUICK exponents ~20-130 ms, and 1/5 and 1/6
# take 2 s and 12 s, too slow to sit in a steady run.
QUICK = {"l1": (Q(1, 3), Q(1, 2), Q(2, 3), Q(3, 4)), "l2": (Q(1, 3), Q(2, 5), Q(1, 2))}


def _irrational_op(rng: random.Random, k: int) -> Op:
    space = ("l1", "l2")[(k // 2) % 2]
    beta = Q(1, 4) if k % 2 == 0 else rng.choice(QUICK[space])
    n = rng.randint(4, 16)
    target = Target(rng.choice(TARGET_C), beta)
    return Op(
        ("build-basis", "--seq", target.text(), "--space", space,
         "--filter", "summable(pow(1,-1))", "--n-max", str(n)),
        "float",
        {"target": target},
        stages=n - 1,
    )


def _construct_float_block(rng: random.Random, k: int) -> list[Op]:
    ops = [_lp_op(rng, LP_GRID[(i + k) % 4], stratum, i % 3)
           for i, stratum in enumerate(FLOAT_STRATA)]
    ops.append(_irrational_op(rng, k))
    rng.shuffle(ops)
    return ops


_BLOCKS = {
    "verdicts": _verdicts_block,
    "construct_exact": _construct_exact_block,
    "construct_float": _construct_float_block,
}


def blocks(workload: str, seed: int) -> Iterator[list[Op]]:
    """The workload's endless block stream for this seed."""
    make = _BLOCKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verdicts":
        yield readme_ops()
    k = 0
    while True:
        yield make(rng, k)
        k += 1
