from fractions import Fraction

import pytest

from orbitforge.fields import make_field
from orbitforge.polynomials import (
    Polynomial,
    poly_gcd,
    splitting_degree,
    splitting_field_disc,
    square_root_in_field,
)

Q = make_field("rational")
F2 = make_field("quadratic", 2)


def test_eval_and_degree():
    f = Polynomial(Q, [3, -1, 0, 1])
    assert f.degree == 3
    assert f(Q.element(2)) == 9
    assert f(Q.element(Fraction(1, 2))) == Fraction(3, 1) - Fraction(1, 2) + Fraction(1, 8)
    assert f.iterate_value(1, 0) == 1
    assert f.iterate_value(1, 2) == 27


def test_trim_and_zero():
    f = Polynomial(Q, [1, 2, 0, 0])
    assert f.degree == 1
    z = Polynomial(Q, [0])
    assert z.degree == -1


def test_distinct_root_count():
    assert Polynomial(Q, [3, -1, 0, 1]).distinct_root_count() == 3
    assert Polynomial(Q, [0, 0, 1]).distinct_root_count() == 1  # x^2
    assert Polynomial(Q, [1, 2, 1]).distinct_root_count() == 1  # (x+1)^2
    assert Polynomial(Q, [0, -1, 0, 1]).distinct_root_count() == 3  # x^3 - x
    # (x-1)^2 (x-2): two distinct roots
    assert Polynomial(Q, [-2, 5, -4, 1]).distinct_root_count() == 2


def test_poly_gcd():
    f = Polynomial(Q, [-2, 5, -4, 1])  # (x-1)^2 (x-2)
    g = poly_gcd(f, f.derivative())
    assert g.degree == 1
    assert g(Q.element(1)).is_zero()


def test_square_root_in_field():
    assert square_root_in_field(Q, Q.element(Fraction(9, 4))) == Fraction(3, 2)
    assert square_root_in_field(Q, Q.element(2)) is None
    r = square_root_in_field(F2, F2.element(2))  # sqrt(2) itself
    assert r is not None and r * r == 2
    y = F2.element(3, 2)  # 3 + 2 sqrt2 = (1 + sqrt2)^2
    r2 = square_root_in_field(F2, y)
    assert r2 is not None and r2 * r2 == y
    assert square_root_in_field(F2, F2.element(3)) is None


def test_roots_in_field():
    f = Polynomial(Q, [-6, 11, -6, 1])
    assert sorted(r.a for r in f.peeled[0]) == [1, 2, 3]
    g = Polynomial(F2, [-2, 0, 1])  # x^2 - 2
    roots = g.peeled[0]
    assert len(roots) == 2 and all((r * r) == 2 for r in roots)
    h = Polynomial(Q, [1, 0, 1])
    assert h.peeled[0] == ()


def test_splitting_degree_cases():
    assert splitting_degree(Polynomial(Q, [-6, 11, -6, 1])) == 1
    assert splitting_degree(Polynomial(Q, [1, 0, 1])) == 2
    assert splitting_degree(Polynomial(Q, [3, -1, 0, 1])) == 6  # disc -239
    assert splitting_degree(Polynomial(Q, [1, -3, 0, 1])) == 3  # x^3-3x+1, disc 81
    assert splitting_degree(Polynomial(F2, [-2, 0, 1])) == 1
    assert splitting_degree(Polynomial(Q, [2, 0, 0, 0, 1])) is None  # quartic leftover
    # cubic with one rational root and quadratic remainder x^2+1
    assert splitting_degree(Polynomial(Q, [1, 1, 1, 1])) == 2


def test_splitting_field_disc():
    assert splitting_field_disc(Polynomial(Q, [1, 0, 1])) == -1
    assert splitting_field_disc(Polynomial(Q, [-2, 0, 1])) == 2
    assert splitting_field_disc(Polynomial(Q, [2, 0, 1])) == -2
    assert splitting_field_disc(Polynomial(Q, [-6, 11, -6, 1])) is None


def test_integral_check():
    assert Polynomial(Q, [3, -1, 0, 1]).is_integral()
    assert not Polynomial(Q, [Fraction(1, 2), 1]).is_integral()
