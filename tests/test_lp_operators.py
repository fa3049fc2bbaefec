import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fbasis import (
    Constant,
    DimensionMismatch,
    DomainError,
    NormReport,
    Statistical,
    TailOp,
    apply,
    build_basis,
    l1,
    l2,
    lp,
    op_norm,
    op_norm_bruteforce,
    remainder_norm,
    solve_b_next,
)
from fbasis.lp_operators import (
    _mass_ratio,
    _root,
    image_pairs,
    norm_ratio,
    norming_input,
    riesz_thorin_upper,
)
from fbasis.sequences import exact_root

from checkers import remainder_dense_matrix, solve_next_square
from norm_oracle import _stage_norm, apply_norm_ratio, golden_section_norm


def svd_norm(T, dim=None):
    return float(np.linalg.svd(T.dense_matrix(dim), compute_uv=False)[0])


_RATIONALS = st.fractions(min_value=Fraction(1, 40), max_value=40, max_denominator=40)


@settings(max_examples=60, deadline=None)
@given(b=st.lists(_RATIONALS, min_size=3, max_size=10), float_last=st.booleans(),
       x=st.lists(st.one_of(st.integers(-9, 9), _RATIONALS.map(lambda v: -v), _RATIONALS),
                  min_size=12, max_size=12))
def test_apply_on_a_rational_stage_is_the_kernel(b, float_last, x):
    """``apply(TailOp(n, b[:n+1], space), x)`` is the Fractions of the kernel's
    pairs at every stage of rational coefficients.  A float last coefficient
    leaves the stages before it rational; the stage that reads it takes the
    float branch, which matches the kernel on the float's exact ratio to
    rounding."""
    b = tuple(b[:-1]) + (float(b[-1]) if float_last else b[-1],)
    x = x[: len(b) + 1]
    for n in range(1, len(b)):
        got = apply(TailOp(n, b[: n + 1], l1(16)), x)
        pairs = image_pairs([v.as_integer_ratio() for v in b],
                            [v.as_integer_ratio() for v in x], n)
        want = [Fraction(u, v) for u, v in pairs]
        if float_last and n == len(b) - 1:
            scale = max(abs(v) for v in x) * (1 + max(b) / min(b))
            assert all(type(v) is float for v in got)
            assert got == pytest.approx([float(v) for v in want], abs=1e-12 * float(scale))
        else:
            assert got == want and all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-3, 7), -0.5, 0, -2, 0.0],
                         ids=["zero-fraction", "negative-fraction", "negative-float", "zero-int",
                              "negative-int", "zero-float"])
@pytest.mark.parametrize("where", [0, 2])
def test_a_non_positive_coefficient_is_refused(bad, where):
    """Rational entries are checked on their numerators, floats by comparison;
    either way a zero or negative entry raises, among rationals or floats."""
    for rest in ((Fraction(1), Fraction(1, 2), Fraction(3, 4)), (1.0, 0.5, 0.75)):
        b = rest[:where] + (bad,) + rest[where + 1:]
        with pytest.raises(DomainError, match="positive"):
            TailOp(2, b, l1(8))


class TestApply:
    def test_defect_vanishes_on_plain_vectors(self):
        T = TailOp(1, (Fraction(1), Fraction(1)), l1(8))
        assert apply(T, [Fraction(1), Fraction(0), Fraction(0)]) == [1, 0, 0]

    def test_pure_defect(self):
        T = TailOp(1, (Fraction(1), Fraction(1)), l1(8))
        assert apply(T, [Fraction(0), Fraction(1), Fraction(0)]) == [-1, 0, 0]

    def test_spec_coordinates(self):
        T = TailOp(2, (Fraction(1), Fraction(1, 2), Fraction(3, 4)), l1(8))
        got = apply(T, [0, 0, 1, 0])
        assert got == [Fraction(-4, 3), Fraction(-2, 3), 0, 0]

    def test_dimension_check(self):
        T = TailOp(2, (Fraction(1), Fraction(1, 2), Fraction(3, 4)), l1(8))
        with pytest.raises(DimensionMismatch):
            apply(T, [1, 2])

    def test_projection_property(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randrange(1, 5)
            b = tuple(Fraction(rng.randrange(1, 9), rng.randrange(1, 5)) for _ in range(n + 1))
            T = TailOp(n, b, l1(12))
            x = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n + 3)]
            once = apply(T, x)
            twice = apply(T, once)
            assert once == twice


class TestNorms:
    def test_l1_column_max(self):
        T = TailOp(2, (Fraction(1), Fraction(1, 2), Fraction(3, 4)), l1(8))
        r = op_norm(T)
        assert r.exact == 2 and r.method == "ColumnMax"

    def test_l2_closed_form_vs_svd(self):
        T = TailOp(2, (1.0, 1.0, math.sqrt(2)), l2(8), b_squared=(Fraction(1), Fraction(1), Fraction(2)))
        r = op_norm(T)
        assert r.exact_square == 2
        assert r.value == pytest.approx(svd_norm(T), abs=1e-9)

    def test_l2_fifty_stages_vs_svd(self):
        squares = [Fraction(1)]
        for _ in range(20):
            squares.append(solve_next_square(tuple(squares), Fraction(2)))
        coeffs = tuple(math.sqrt(float(s)) for s in squares)
        T = TailOp(20, coeffs, l2(32), b_squared=tuple(squares))
        r = op_norm(T)
        assert float(r.exact_square) == pytest.approx(2.0)
        assert r.value == pytest.approx(svd_norm(T), abs=1e-9)

    def test_numeric_vs_bruteforce_corpus(self):
        rng = random.Random(12)
        for p in (1.0, 1.5, 2.0, 3.0):
            for trial in range(4):
                n = rng.randrange(1, 5)
                b = tuple(0.2 + rng.random() * 2 for _ in range(n + 1))
                space = l1(12) if p == 1.0 else (l2(12) if p == 2.0 else lp(p, 12))
                T = TailOp(n, b, space)
                r = op_norm(T)
                rb = op_norm_bruteforce(T, budget=400, seed=trial)
                assert rb.value <= r.upper + 1e-9
                assert r.value - rb.value <= 1e-6
                assert rb.value <= r.value + 1e-9

    def test_l1_bruteforce_exact(self):
        T = TailOp(2, (Fraction(1), Fraction(1, 2), Fraction(3, 4)), l1(8))
        r = op_norm_bruteforce(T)
        assert r.exact == 2

    def test_numeric_path_matches_closed_forms(self):
        # the golden-section oracle against the closed form at p -> 1 and p = 2
        b = (1.0, 0.7, 1.3)
        near_one = golden_section_norm(TailOp(2, b, lp(1 + 1e-12, 8)))
        exact_one = op_norm(TailOp(2, tuple(Fraction(x).limit_denominator(10) for x in b), l1(8)))
        # allow the tiny exponent perturbation itself
        assert near_one == pytest.approx(float(exact_one.value), abs=1e-9)
        at_two = golden_section_norm(TailOp(2, b, l2(8)))
        closed_two = op_norm(TailOp(2, b, l2(8)))
        assert at_two == pytest.approx(closed_two.value, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.sampled_from((1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 1 + 1e-12)),
           st.integers(0, 2 ** 32))
    def test_norm_ratio_keeps_the_bits_of_apply(self, n, p, seed):
        """On the coefficient array, the ratio is ``apply``'s to the last bit,
        for random vectors and for the norming input the certificate uses."""
        rng = random.Random(seed)
        b = tuple(math.exp(rng.uniform(-20.0, 20.0)) for _ in range(n + 1))
        T = TailOp(n, b, lp(p, n + 1))
        bf = T.b_floats()
        x = np.array([rng.uniform(0.0, 10.0) for _ in range(n + 1)])
        assert norm_ratio(bf, x, p) == apply_norm_ratio(T, x)
        x = norming_input(bf, p)
        assert norm_ratio(bf, x, p) == apply_norm_ratio(T, x)

    def test_riesz_thorin_dominates_truth(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randrange(1, 4)
            b = tuple(0.3 + rng.random() for _ in range(n + 1))
            for p in (1.2, 1.5, 2.5):
                T = TailOp(n, b, lp(p, 10))
                assert op_norm(T).value <= riesz_thorin_upper(T.b_floats(), p) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60), st.sampled_from((1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 1 + 1e-12)),
           st.integers(0, 2 ** 32))
    def test_float_reports_bracket_the_norming_ratio(self, n, p, seed):
        """On float coefficients the O(1) bracket of ``op_norm`` holds the
        norming vector's ratio and the value of the general ``_stage_norm``."""
        rng = random.Random(seed)
        b = tuple(math.exp(rng.uniform(-20.0, 20.0)) for _ in range(n + 1))
        T = TailOp(n, b, lp(p, n + 1))
        rep, old = op_norm(T), _stage_norm(_mass_ratio(T), p, b)
        assert rep.method == old.method
        assert rep.lower <= old.lower <= old.value <= rep.upper
        assert rep.value == pytest.approx(old.value, rel=1e-12)

    @pytest.mark.parametrize("b,space", [((Fraction(1),), l1(4)), ((2.0,), l1(4)),
                                         ((Fraction(1),), l2(4)), ((2.0,), l2(4)),
                                         ((1.0,), lp(Fraction(3, 2), 4)), ((1.0,), lp(3, 4)),
                                         ((Fraction(1),), lp(4, 4))])
    def test_a_stage_zero_operator_reports_norm_one(self, b, space):
        rep = op_norm(TailOp(0, b, space))
        assert rep.lower <= rep.value == 1.0 <= rep.upper

    def test_monotone_in_last_coefficient(self):
        b = (1.0, 0.5)
        vals = [
            op_norm(TailOp(2, b + (t,), lp(1.5, 8))).value
            for t in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


class TestSolve:
    def test_l1_exact(self):
        assert solve_b_next((Fraction(1), Fraction(1, 2)), Fraction(2), l1(8)) == Fraction(3, 4)
        assert solve_b_next((Fraction(1),), Fraction(2), l1(8)) == Fraction(1, 2)

    def test_l2_exact_square(self):
        assert solve_next_square((Fraction(1), Fraction(1)), Fraction(2)) == Fraction(2)

    def test_target_domain(self):
        with pytest.raises(DomainError):
            solve_b_next((Fraction(1),), Fraction(1), l1(8))
        with pytest.raises(DomainError):
            solve_next_square((Fraction(1),), Fraction(1))

    def test_general_p_prescription(self):
        rng = random.Random(31)
        for trial in range(6):
            n = rng.randrange(1, 4)
            b = tuple(0.3 + rng.random() for _ in range(n))
            target = 1.0 + 0.2 + rng.random() * 2.5
            space = lp(1.5, 10)
            nxt = solve_b_next(b, target, space)
            T = TailOp(n, b + (nxt,), space)
            r = op_norm(T)
            assert r.value == pytest.approx(target, abs=1e-6)
            rb = op_norm_bruteforce(T, budget=300, seed=trial)
            assert r.value - rb.value <= 1e-6
            assert rb.value <= riesz_thorin_upper(T.b_floats(), 1.5) + 1e-9


@st.composite
def prescriptions(draw):
    """(p, b_1..b_n, a): rational coefficients and target, p in {1, 3/2, 2, 3}."""
    p = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]))
    n = draw(st.integers(1, 4))
    b = tuple(Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 20))) for _ in range(n))
    a = Fraction(draw(st.integers(11, 60)), 10)
    return p, b, a


@settings(max_examples=40, deadline=None)
@given(prescriptions())
def test_prescribed_coefficient_hits_the_target(case):
    p, b, a = case
    space = lp(p, 8)
    nxt = solve_b_next(b, a, space)
    squares = None
    if p == 2:
        # exact on the squares; the coefficient itself is their root
        squares = tuple(v * v for v in b)
        squares += (solve_next_square(squares, a * a),)
        assert float(nxt) ** 2 == pytest.approx(float(squares[-1]), rel=1e-12)
    T = TailOp(len(b), b + (nxt,), space, b_squared=squares)
    rep = op_norm(T)
    if p == 1:
        assert rep.exact == a
    elif p == 2:
        assert rep.exact_square == a * a
    else:
        assert rep.value == pytest.approx(float(a), rel=1e-12)
        assert rep.lower == pytest.approx(float(a), rel=1e-9)
    brute = op_norm_bruteforce(T, budget=30, seed=0)
    assert brute.value <= rep.value * (1 + 1e-9)
    assert brute.value <= rep.upper * (1 + 1e-12)


class TestRemainder:
    def test_l1_exact_value(self):
        T = TailOp(2, (Fraction(1), Fraction(1, 2), Fraction(3, 4)), l1(8))
        r = remainder_norm(T)
        assert r.exact == 3  # 1 + the stage norm 2

    def test_l1_upper_sandwich_attained(self):
        T = TailOp(2, (Fraction(1), Fraction(1, 2), Fraction(3, 4)), l1(8))
        assert float(remainder_norm(T).value) == op_norm(T).value + 1.0

    def test_l2_vs_svd(self):
        T = TailOp(1, (1.0, 1.0), l2(8))
        r = remainder_norm(T)
        got = float(np.linalg.svd(remainder_dense_matrix(T, 8), compute_uv=False)[0])
        assert r.value == pytest.approx(got, abs=1e-12)
        assert r.value == pytest.approx(math.sqrt(2.0))

    def test_sandwich_all_spaces(self):
        rng = random.Random(2)
        for p in (1.0, 1.5, 2.0):
            for _ in range(8):
                n = rng.randrange(1, 4)
                b = tuple(0.3 + rng.random() for _ in range(n + 1))
                space = l1(10) if p == 1.0 else (l2(10) if p == 2.0 else lp(p, 10))
                T = TailOp(n, b, space)
                s = op_norm(T).value
                r = remainder_norm(T).value
                assert max(1.0, s - 1.0) - 1e-9 <= r <= s + 1.0 + 1e-9

    def test_remainder_needs_room(self):
        T = TailOp(2, (1.0, 1.0, 1.0), lp(1.5, 3))
        with pytest.raises(DimensionMismatch):
            remainder_norm(T)

    def test_remainder_numeric_vs_dense_oracle(self):
        rng = random.Random(77)
        for _ in range(5):
            n = rng.randrange(1, 4)
            b = tuple(0.3 + rng.random() for _ in range(n + 1))
            T = TailOp(n, b, lp(1.5, 9))
            r = remainder_norm(T)
            M = remainder_dense_matrix(T, 9)
            best = 0.0
            gen = np.random.default_rng(5)
            probes = [gen.standard_normal(9) for _ in range(2000)]
            probes.extend(np.eye(9))
            for x in probes:
                nx = (np.abs(x) ** 1.5).sum() ** (1 / 1.5)
                y = M @ x
                best = max(best, float((np.abs(y) ** 1.5).sum() ** (1 / 1.5)) / nx)
            assert best <= r.value + 1e-9
            assert r.value - best <= 1e-9  # attained at a basis direction


def _root_by_fraction_scaling(x: Fraction) -> float:
    """The square root as ``_root`` took it before: scaled by a Fraction
    power of four."""
    j = (x.numerator.bit_length() - x.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(x / Fraction(4) ** j), j)


@st.composite
def non_square_rationals(draw):
    """m / d * 2**e with e in [-1100, 1100], and a few around the
    subnormal boundary (2**-1022, 2**-1074) and past it."""
    e = draw(st.one_of(st.integers(-1100, 1100),
                       st.sampled_from([-1022, -1023, -1074, -1075, -2044, -2100, -2148])))
    m = draw(st.integers(1, 2 ** draw(st.sampled_from([8, 53, 64, 200]))))
    d = draw(st.integers(1, 2 ** draw(st.sampled_from([8, 53, 64, 200]))))
    x = Fraction(m, d) * Fraction(2) ** e
    assume(exact_root(x, 2) is None)
    return x


@settings(max_examples=400, deadline=None)
@given(non_square_rationals())
def test_shift_scaled_root_matches_fraction_scaling(x):
    got = _root(x, 2)
    want = _root_by_fraction_scaling(x)
    assert got.hex() == want.hex()
    if Fraction(2) ** -1022 <= x < Fraction(2) ** 1023:
        assert got == math.sqrt(float(x))


@pytest.mark.parametrize("x", [Fraction(2) ** -1074 * 3, Fraction(2) ** -1022 * 5 / 7,
                               Fraction(2) ** 1100 * 3, Fraction(1, 3) * Fraction(2) ** -2148,
                               Fraction(2 ** 53 + 1, 2 ** 53 - 1), Fraction(1, 2)])
def test_shift_scaled_root_fixed_cases(x):
    assert _root(x, 2).hex() == _root_by_fraction_scaling(x).hex()


def test_op_norm_reports_a_float_stage_as_the_build_does():
    """Each float stage of a build and ``op_norm`` on that stage's operator
    report through one formula: the same method, values equal up to the
    rounding of the running sums, each inside the other's bracket."""
    sys = build_basis(Constant(2), lp(1.5, 40), Statistical(), 40)
    for n, got in enumerate(sys.norm_reports, start=1):
        rep = op_norm(sys.stage(n))
        assert rep.method == got.method == "ClosedForm"
        assert rep.value == pytest.approx(got.value, rel=1e-12)
        assert rep.lower <= got.value <= rep.upper and got.lower <= rep.value <= got.upper


def test_a_norm_report_holds_its_value_between_its_bounds_exactly():
    """One ulp outside either bound, or a nan, is refused: no slack."""
    up = math.nextafter(1.0, 2.0)
    assert NormReport(1.0, "ClosedForm", 1.0, 1.0).value == 1.0
    for value, lower, upper in ((1.0, up, up), (up, 1.0, 1.0), (math.nan, 1.0, 1.0)):
        with pytest.raises(ValueError, match="outside its bounds"):
            NormReport(value, "ClosedForm", lower, upper)


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_a_non_finite_float_exponent_is_refused(p):
    """A float p must be finite; a rational one always is, even past the
    float range."""
    with pytest.raises(DomainError, match="the exponent must be finite"):
        lp(p)
    assert lp(Fraction(10 ** 400)).p == 10 ** 400
