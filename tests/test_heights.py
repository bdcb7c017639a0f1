import math
import random
from fractions import Fraction

import pytest
import sympy

from orbitforge.fields import make_field
from orbitforge.ideals import SSet, factor_rational_prime, finite_place
from orbitforge.heights import (
    approximate_by_unit,
    canonical_height,
    height,
    height_S_of_inverse,
    height_T,
    height_outside_S_of_inverse,
    height_value,
    local_abs,
    log_abs_embedding,
    one_step_bound,
    support_lambda,
    unit_approximation_deviation,
)
from orbitforge.polynomials import Polynomial

Q = make_field("rational")
F2 = make_field("quadratic", 2)
Fm5 = make_field("quadratic", -5)


def rational_height_oracle(fr: Fraction) -> float:
    # h(p/q) = log max(|p|, q) for a reduced fraction
    if fr == 0:
        return 0.0
    return math.log(max(abs(fr.numerator), fr.denominator))


def test_float_sums_do_not_depend_on_the_python_version():
    # the values as CPython 3.11 adds them, left to right; sum() of floats
    # rounds both differently from Python 3.12 on
    assert height_value(Q.element(Fraction(-35, 12))) == 3.555348061489414
    first_ten = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    S = SSet(Q, [P for p in first_ten for P in factor_rational_prime(Q, p)])
    assert S.T_sum == 10.478226628504814


def test_local_abs_examples():
    two = factor_rational_prime(Q, 2)[0]
    three = factor_rational_prime(Q, 3)[0]
    assert local_abs(Q.element(720), finite_place(two)) == pytest.approx(2.0**-4)
    assert local_abs(Q.element(Fraction(1, 9)), finite_place(three)) == pytest.approx(9.0)
    x = F2.element(3, 1)
    from orbitforge.ideals import archimedean_places

    v1, v2 = archimedean_places(F2)
    assert local_abs(x, v1) == pytest.approx(3 + math.sqrt(2), rel=1e-12)
    assert local_abs(x, v2) == pytest.approx(3 - math.sqrt(2), rel=1e-12)


def test_height_examples():
    assert height_value(Q.element(Fraction(3, 2))) == pytest.approx(math.log(3), abs=1e-12)
    assert height_value(Q.element(-1)) == 0.0
    assert height_value(Q.element(0)) == 0.0
    assert height_value(F2.element(1, 1)) == pytest.approx(
        0.5 * math.log(1 + math.sqrt(2)), rel=1e-12
    )


def test_height_matches_rational_oracle_random():
    rng = random.Random(5)
    for _ in range(400):
        fr = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))
        assert height_value(Q.element(fr)) == pytest.approx(
            rational_height_oracle(fr), abs=1e-12
        )


def test_height_equals_height_of_inverse():
    rng = random.Random(9)
    for _ in range(1000):
        F = rng.choice((Q, F2, Fm5))
        if F.degree == 1:
            x = F.element(Fraction(rng.randrange(-9999, 10000), rng.randrange(1, 9999)))
        else:
            x = F.element(rng.randrange(-99, 100), rng.randrange(-99, 100))
        if x.is_zero():
            continue
        h1 = height_value(x)
        h2 = height_value(x.inverse())
        assert h1 == pytest.approx(h2, rel=1e-9, abs=1e-9)


def test_huge_unit_power_height_no_cancellation():
    u = F2.element(1, 1) ** 200  # conjugate embedding is astronomically small
    assert height_value(u) == pytest.approx(100 * math.log(1 + math.sqrt(2)), rel=1e-12)
    assert log_abs_embedding(u, 1) == pytest.approx(
        -200 * math.log(1 + math.sqrt(2)), rel=1e-12
    )


def test_fundamental_unit_height_is_half_regulator():
    for D in (2, 3, 5, 13):
        F = make_field("quadratic", D)
        assert height_value(F.fundamental_unit) == pytest.approx(
            F.regulator / 2, abs=1e-12
        )


def test_height_T_examples():
    S0 = [P for p in (2, 3) for P in factor_rational_prime(Q, p)]
    S = SSet(Q, S0)
    binv = Q.element(Fraction(1, 720))
    hS = height_T(binv, S.places())
    assert hS == pytest.approx(math.log(144), rel=1e-12)
    assert height_T(binv, []) == 0.0
    h_rest = height_outside_S_of_inverse(Q.element(720), S)
    assert h_rest == pytest.approx(math.log(5), rel=1e-12)
    assert hS + h_rest == pytest.approx(math.log(720), rel=1e-12)
    assert height_S_of_inverse(Q.element(720), S) == pytest.approx(hS, rel=1e-12)


def test_decomposition_identity_random():
    rng = random.Random(23)
    fields = (Q, F2, Fm5)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for _ in range(1000):
        F = rng.choice(fields)
        if F.degree == 1:
            b = F.element(rng.randrange(1, 10**4) * rng.choice((1, -1)))
        else:
            b = F.element(rng.randrange(-100, 101), rng.randrange(-100, 101))
            if b.is_zero():
                continue
        chosen = rng.sample(primes, rng.randrange(0, 6))
        ideals = []
        for p in chosen:
            above = factor_rational_prime(F, p)
            ideals.extend(above if rng.random() < 0.7 else above[:1])
        S = SSet(F, ideals)
        lhs = height_value(b)
        rhs = height_S_of_inverse(b, S) + height_outside_S_of_inverse(b, S)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_support_lambda_examples_and_oracle():
    st = support_lambda(Q.element(12))
    assert {P.norm for P in st.sigma} == {2, 3} and st.lam == 3
    assert support_lambda(Q.element(-1)).lam == 1
    assert support_lambda(F2.element(1, 1)).lam == 1
    assert support_lambda(Q.element(Fraction(26, 2))).lam == 13
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randrange(2, 10**9)
        st = support_lambda(Q.element(n))
        assert st.lam == max(sympy.factorint(n))
        assert {P.p for P in st.sigma} == set(sympy.factorint(n))


def test_one_step_bound_validity_exhaustive():
    for coeffs, deg in (([1, 0, 1], 2), ([3, -1, 0, 1], 3), ([-1, 0, 1], 2)):
        f = Polynomial(Q, coeffs)
        B = one_step_bound(f)
        assert B >= 0
        for p in range(-50, 51):
            for q in range(1, 51):
                x = Q.element(Fraction(p, q))
                lhs = abs(height_value(f(x)) - deg * height_value(x))
                assert lhs <= B + 1e-9, (coeffs, p, q, lhs, B)


def test_one_step_bound_rejects_low_degree():
    with pytest.raises(ValueError):
        one_step_bound(Polynomial(Q, [1, 1]))


def test_canonical_height_examples():
    sq = Polynomial(Q, [0, 0, 1])
    r = canonical_height(sq, 3, tol=1e-9)
    assert r.value == pytest.approx(math.log(3), abs=1e-12)
    f1 = Polynomial(Q, [1, 0, 1])
    r1 = canonical_height(f1, 1, tol=1e-6)
    assert r1.value == pytest.approx(0.4073698, abs=1e-3)
    r2 = canonical_height(f1, 2, tol=1e-6)
    assert r2.value == pytest.approx(0.8147397, abs=1e-3)
    fm = Polynomial(Q, [-1, 0, 1])
    rm = canonical_height(fm, -1, tol=1e-6)
    assert rm.value == 0.0


def test_canonical_height_telescoping_oracle():
    # independent oracle: follow the orbit with plain integers
    x = 1
    for _ in range(6):
        x = x * x + 1
    assert x == 210066388901
    oracle = math.log(x) / 2**6
    f1 = Polynomial(Q, [1, 0, 1])
    assert canonical_height(f1, 1, tol=1e-6).value == pytest.approx(oracle, abs=1e-4)


def test_canonical_height_bit_cap_degrades_not_raises():
    f1 = Polynomial(Q, [1, 0, 1])
    r = canonical_height(f1, 10, tol=1e-12, bit_cap=10_000)
    assert r.error_bound > 1e-12  # could not reach tol
    assert r.value == pytest.approx(canonical_height(f1, 10, tol=1e-6).value, abs=1e-2)


def test_functional_equation_suite():
    for coeffs in ([1, 0, 1], [-1, 0, 1], [3, -1, 0, 1]):
        f = Polynomial(Q, coeffs)
        d = f.degree
        for a in range(-10, 11):
            r1 = canonical_height(f, f(Q.element(a)), tol=1e-4)
            r2 = canonical_height(f, a, tol=1e-4)
            lhs = abs(r1.value - d * r2.value)
            assert lhs <= 2 * max(r1.error_bound, d * r2.error_bound) + 1e-12


def test_height_sandwich_above_threshold():
    # multiplicative two-sided bound with factor 2 once h is large enough
    for coeffs in ([1, 0, 1], [-1, 0, 1], [3, -1, 0, 1]):
        f = Polynomial(Q, coeffs)
        d = f.degree
        B = one_step_bound(f)
        c6 = B / (d - 1)
        threshold = 2 * c6
        for a in (2500, -4000, 10**4 + 7):
            x = Q.element(a)
            h0 = height_value(x)
            if h0 <= threshold:
                continue
            y = x
            for ell in (1, 2, 3):
                y = f(y)
                hy = height_value(y)
                assert d**ell * 2 * h0 > hy > d**ell * 0.5 * h0


def test_unit_approximation_rank0_and_bound():
    assert approximate_by_unit(Q.element(720), 3) == 1
    assert unit_approximation_deviation(Q.element(720), Q.element(1), 3) == pytest.approx(0.0, abs=1e-12)
    x = Fm5.element(4, 1)
    assert approximate_by_unit(x, 2) == 1
    assert unit_approximation_deviation(x, Fm5.element(1), 2) == pytest.approx(0.0, abs=1e-12)


def test_unit_approximation_worked_instances():
    x = F2.element(3, 1)
    eps = approximate_by_unit(x, 1)
    assert eps == 1
    dev = unit_approximation_deviation(x, eps, 1)
    assert dev == pytest.approx(0.51187, abs=1e-4)
    assert dev <= F2.regulator
    x2 = F2.element(1, 1) ** 6 * 7
    eps2 = approximate_by_unit(x2, 2)
    assert eps2 == F2.element(1, 1) ** -3
    assert (eps2**2 * x2) == 7
    assert unit_approximation_deviation(x2, eps2, 2) == pytest.approx(0.0, abs=1e-9)


def test_unit_approximation_random_inequality():
    rng = random.Random(41)
    fields = [F2, make_field("quadratic", 3), make_field("quadratic", 5)]
    for F in fields:
        bound_unit = F.regulator  # = (1/2) A3 d^2 R at r=1, d=2, per n
        for _ in range(100):
            x = F.element(rng.randrange(-200, 201), rng.randrange(-200, 201))
            if x.is_zero():
                continue
            n = rng.choice((1, 2, 3))
            eps = approximate_by_unit(x, n)
            dev = unit_approximation_deviation(x, eps, n)
            assert dev <= n * bound_unit + 1e-9


def test_unit_approximation_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        approximate_by_unit(F2.element(0), 1)
