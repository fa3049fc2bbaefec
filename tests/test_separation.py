import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fbasis import (
    BasisVector,
    ClusterNotFound,
    ClusterWitness,
    Constant,
    NotSeparable,
    PowerLog,
    PowerTail,
    cluster_witness,
    lemma1_profile,
    lift_functionals_to_operators,
    plank_separator,
    sum_inverse_p_verdict,
)
from fbasis.sequences import DomainError, eval_at

from conftest import random_power_seq


class TestSeparator:
    def test_square_decay(self):
        sep = plank_separator(PowerLog(1, Fraction(2)), "linf-diagonal", 0.1)
        assert sep.identity_constant == pytest.approx(1.1)
        assert sep.identity_exact
        assert sep.norm_bound <= 1.1 * 2.0
        for n in (1, 2, 10, 1000):
            prod = float(eval_at(PowerLog(1, Fraction(2)), n)) * float(
                eval_at(sep.vector, n)
            )
            assert prod == pytest.approx(1.1)

    def test_hilbert_side(self):
        sep = plank_separator(PowerLog(1, Fraction(1)), "l2-diagonal", 0.1)
        assert sep.identity_exact
        # squared norm bound: (1.1)^2 * sum n^-2
        assert sep.norm_bound <= 1.21 * 2.0

    def test_not_separable(self):
        with pytest.raises(NotSeparable):
            plank_separator(Constant(2), "linf-diagonal", 0.1)

    def test_margin_domain(self):
        with pytest.raises(DomainError):
            plank_separator(PowerLog(1, Fraction(2)), "linf-diagonal", 0)

    def test_dichotomy_thirty_sequences(self):
        rng = random.Random(37)
        fired_separator = fired_witness = 0
        tried = 0
        while fired_separator + fired_witness < 30 and tried < 200:
            tried += 1
            a = random_power_seq(rng, beta_range=(0, 3), allow_log=False)
            for p, dual in ((1, "linf-diagonal"), (2, "l2-diagonal")):
                verdict = sum_inverse_p_verdict(a, p)
                if verdict.kind == "converges":
                    sep = plank_separator(a, dual, 0.25)
                    assert sep.identity_exact
                    fired_separator += 1
                elif verdict.kind == "diverges":
                    with pytest.raises(NotSeparable):
                        plank_separator(a, dual, 0.25)
                    w = cluster_witness(a, p, [BasisVector(1)], horizon=10 ** 4)
                    assert isinstance(w, ClusterWitness)
                    fired_witness += 1
        assert fired_separator >= 5 and fired_witness >= 5


class TestClusterWitness:
    def test_finite_support(self):
        w = cluster_witness(Constant(2), 1, [BasisVector(1)], horizon=10)
        assert isinstance(w, ClusterWitness) and w.index == 2

    def test_sqrt_against_harmonic_tail(self):
        w = cluster_witness(PowerLog(1, Fraction(1, 2)), 2, [PowerTail(Fraction(1))], horizon=100)
        assert isinstance(w, ClusterWitness) and w.index == 2
        assert w.maxima[0] == pytest.approx(math.sqrt(2) / 2)

    def test_separator_regime_not_found(self):
        w = cluster_witness(
            PowerLog(1, Fraction(2)),
            1,
            [PowerTail(Fraction(2), Fraction(11, 10))],
            horizon=10 ** 5,
        )
        assert isinstance(w, ClusterNotFound)
        assert w.running_min == pytest.approx(1.1)

    def test_a_miss_to_the_horizon_evaluates_each_chunk_once(self):
        """|a_m x_m| = 2 at every m, so the search reads all 10**6 indices in
        chunks; each chunk is evaluated on its own indices, not from 1."""
        tracemalloc.start()
        try:
            w = cluster_witness(PowerLog(2, Fraction(2)), 2, [PowerTail(Fraction(2))])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(w, ClusterNotFound) and w.horizon == 10 ** 6
        assert peak < 8 * 2 ** 20


class TestProfile:
    def test_constant_weights_collapse(self):
        rows = lemma1_profile(Constant(1), [BasisVector(1)], [1, 10, 100])
        for r in rows:
            assert r.average == pytest.approx(1.0 / r.n)
            assert r.bound == pytest.approx(1.0 / r.n)

    def test_bound_dominates_and_decays(self):
        rows = lemma1_profile(
            PowerLog(1, Fraction(1, 2)), [PowerTail(Fraction(2))], [10, 100, 1000]
        )
        for r in rows:
            assert r.average <= r.bound + 1e-12
        assert rows[-1].bound < rows[0].bound

    def test_sums_past_the_float_range_take_their_ratio_in_logs(self):
        """Both partial sums are +inf in floats, 10**400 times their values at
        a = 10**-400; A and B are their ratios all the same."""
        big = Fraction(10) ** 400
        rows = lemma1_profile(Constant(1 / big), [PowerTail(Fraction(2), big)], [10, 100])
        for r in rows:
            m = np.arange(1, r.n + 1)
            assert r.average == pytest.approx(float(np.sum(m ** -2.0)) / r.n, rel=1e-9)
            assert r.bound == pytest.approx(math.pi ** 2 / 6 / r.n, rel=1e-3)
            assert r.average <= r.bound

    def test_requires_divergence(self):
        with pytest.raises(DomainError):
            lemma1_profile(PowerLog(1, Fraction(2)), [BasisVector(1)], [10])


class TestLifts:
    def test_forward_norms_exact(self):
        ops = lift_functionals_to_operators(Constant(2), 1, 5)
        assert [o.norm for o in ops] == [2.0] * 5
