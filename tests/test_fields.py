import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from orbitforge.fields import FieldError, make_field

# class numbers checked by hand with reduced forms, or classical:
# disc -20: (1,0,5),(2,2,3); disc -4: (1,0,1); disc -3: (1,1,1);
# disc -23: (1,1,6),(2,+-1,3).
KNOWN_CLASS_NUMBERS = {
    -1: 1,
    -2: 1,
    -3: 1,
    -5: 2,
    -6: 2,
    -7: 1,
    -10: 2,
    -14: 4,
    -23: 3,
    -47: 5,
    2: 1,
    3: 1,
    5: 1,
    6: 1,
    7: 1,
    10: 2,
    15: 2,
    65: 2,
    79: 3,
}

KNOWN_UNITS = {
    2: (1, 1),   # 1 + sqrt(2)
    3: (2, 1),   # 2 + sqrt(3)
    6: (5, 2),
    7: (8, 3),
}


def test_rational_field_invariants():
    Q = make_field("rational")
    assert Q.degree == 1
    assert Q.class_number == 1
    assert Q.regulator == 1.0
    assert Q.unit_rank == 0
    assert Q.discriminant == 1


def test_discriminant_convention():
    assert make_field("quadratic", 5).discriminant == 5
    assert make_field("quadratic", -3).discriminant == -3
    assert make_field("quadratic", 2).discriminant == 8
    assert make_field("quadratic", -5).discriminant == -20


def test_make_field_rejections():
    with pytest.raises(FieldError):
        make_field("quadratic", 12)  # not squarefree
    with pytest.raises(FieldError):
        make_field("quadratic", 1)
    with pytest.raises(FieldError):
        make_field("quadratic", 10**7 + 3)  # disc above the cap


def test_make_field_tests_the_cap_before_factoring():
    # (2^61 - 1)(2^89 - 1): two large prime factors, so the squarefree test
    # would spend its whole rho budget before the cap refused the field
    D = (2**61 - 1) * (2**89 - 1)
    t0 = time.perf_counter()
    with pytest.raises(FieldError, match="field too large"):
        make_field("quadratic", D)
    assert time.perf_counter() - t0 < 0.1


def test_class_numbers():
    for D, h in KNOWN_CLASS_NUMBERS.items():
        assert make_field("quadratic", D).class_number == h, D


def test_fundamental_units_sqrtD_fields():
    for D, (x, y) in KNOWN_UNITS.items():
        F = make_field("quadratic", D)
        assert F.fundamental_unit == F.element(x, y)
        assert abs(F.fundamental_unit.norm()) == 1
        assert abs(F.regulator - math.log(x + y * math.sqrt(D))) < 1e-12


def test_fundamental_unit_half_integral():
    F5 = make_field("quadratic", 5)
    w = F5.omega()  # (1 + sqrt(5))/2
    assert F5.fundamental_unit == w
    assert abs(F5.regulator - math.log((1 + math.sqrt(5)) / 2)) < 1e-12
    F13 = make_field("quadratic", 13)
    assert abs(F13.regulator - math.log((3 + math.sqrt(13)) / 2)) < 1e-12


def test_torsion_orders():
    assert make_field("quadratic", -1).torsion_order == 4
    assert make_field("quadratic", -3).torsion_order == 6
    assert make_field("quadratic", -5).torsion_order == 2
    assert make_field("quadratic", 2).torsion_order == 2


def test_unit_rank_and_regulator_convention():
    assert make_field("quadratic", -5).unit_rank == 0
    assert make_field("quadratic", -5).regulator == 1.0
    assert make_field("quadratic", 2).unit_rank == 1


def test_element_arithmetic_examples():
    F2 = make_field("quadratic", 2)
    u = F2.element(1, 1)
    assert u * F2.element(1, -1) == -1
    assert F2.element(3, 1).conj() == F2.element(3, -1)
    Q = make_field("rational")
    assert Q.element(Fraction(2, 3)).inverse() == Q.element(Fraction(3, 2))
    assert Q.element(Fraction(2, 3)).inverse() == Fraction(3, 2)


def test_element_arith_errors():
    Q = make_field("rational")
    F2 = make_field("quadratic", 2)
    with pytest.raises(FieldError):
        _ = Q.element(1) + F2.element(1)
    with pytest.raises(ZeroDivisionError):
        Q.element(0).inverse()


def test_norms():
    F2 = make_field("quadratic", 2)
    assert F2.element(3, 1).norm() == 7
    Q = make_field("rational")
    assert Q.element(6).norm() == 6
    assert abs(F2.element(1, 1).norm()) == 1
    assert Q.element(0).norm() == 0
    F5 = make_field("quadratic", 5)
    w = F5.omega()
    assert w.norm() == -1 and w.trace() == 1


def test_exact_arithmetic_random_ring_laws():
    rng = random.Random(3)
    for D in (2, -5, 5, 13):
        F = make_field("quadratic", D)
        for _ in range(100):
            x = F.element(rng.randrange(-50, 51), rng.randrange(-50, 51))
            y = F.element(rng.randrange(-50, 51), rng.randrange(-50, 51))
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x + y).conj() == x.conj() + y.conj()
            assert (x * y).conj() == x.conj() * y.conj()
            if not x.is_zero():
                assert x * x.inverse() == 1
            assert x.norm() == (x * x.conj()).a


def test_is_integral():
    F5 = make_field("quadratic", 5)
    assert F5.element(Fraction(1, 2), Fraction(3)).is_integral() is False
    assert F5.omega().is_integral()
    assert F5.element(2, -7).is_integral()


# -- the integral fast path of the kernel against the Fraction formulas ------

ORACLE_FIELDS = [make_field("rational")] + [make_field("quadratic", D) for D in (2, 5, -1, -5)]


def _wsq(F):
    """(c0, c1) with w^2 = c0 + c1*w, as Fractions."""
    if F.degree == 1:
        return Fraction(0), Fraction(0)
    if F.D % 4 == 1:
        return Fraction(F.D - 1, 4), Fraction(1)
    return Fraction(F.D), Fraction(0)


def _ref_mul(F, x, y):
    c0, c1 = _wsq(F)
    (a, b), (c, d) = x, y
    return a * c + b * d * c0, a * d + b * c + b * d * c1


def _ref_inv(F, x):
    a, b = x
    c0, c1 = _wsq(F)
    # conjugate of a + b*w is (a + c1*b) - b*w; norm = x * conj(x)
    conj = (a + c1 * b, -b)
    n = _ref_mul(F, x, conj)[0]
    return conj[0] / n, conj[1] / n


def _ref_pow(F, x, k):
    if k < 0:
        return _ref_pow(F, _ref_inv(F, x), -k)
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _ref_mul(F, out, x)
    return out


_numerators = st.one_of(
    st.integers(-10, 10), st.integers(-(2**64), 2**64), st.integers(-(2**2000), 2**2000)
)
_coordinates = st.one_of(
    _numerators,
    st.builds(Fraction, _numerators),
    st.builds(Fraction, _numerators, st.sampled_from([2, 3, 4, 6, 2**61 - 1, 3**200])),
)


@st.composite
def _operands(draw):
    F = draw(st.sampled_from(ORACLE_FIELDS))
    coords = []
    for _ in range(2):
        a = draw(_coordinates)
        b = draw(_coordinates) if F.degree == 2 else 0
        coords.append((a, b))
    return F, coords


def _check(z, F, ref):
    assert type(z.a) is Fraction and type(z.b) is Fraction
    assert (z.a, z.b) == ref
    assert z == F.element(*ref) and hash(z) == hash((F.kind, F.D, ref[0], ref[1]))


@given(_operands(), st.integers(-2, 4), st.integers(-(2**70), 2**70))
def test_kernel_fast_path_matches_fraction_formulas(case, k, n):
    F, coords = case
    x, y = (F.element(a, b) for a, b in coords)
    rx, ry = ((Fraction(a), Fraction(b)) for a, b in coords)
    for z in (x, y):
        assert type(z.a) is Fraction and type(z.b) is Fraction
    _check(x, F, rx)
    _check(x + y, F, (rx[0] + ry[0], rx[1] + ry[1]))
    _check(x - y, F, (rx[0] - ry[0], rx[1] - ry[1]))
    _check(-x, F, (-rx[0], -rx[1]))
    _check(x * y, F, _ref_mul(F, rx, ry))
    _check(x * x, F, _ref_mul(F, rx, rx))
    _check(x + n, F, (rx[0] + n, rx[1]))
    _check(n * x, F, (n * rx[0], n * rx[1]))
    if k >= 0 or any(rx):
        _check(x**k, F, _ref_pow(F, rx, k))
    if any(ry):
        _check(x / y, F, _ref_mul(F, rx, _ref_inv(F, ry)))
    y_int, m = x.integral_parts()
    lcm = math.lcm(rx[0].denominator, rx[1].denominator)
    assert m == lcm and y_int.is_integral()
    _check(y_int, F, (rx[0] * lcm, rx[1] * lcm))
    assert (x == y) == (rx == ry)
    if rx == ry:
        assert hash(x) == hash(y)


# -- the basis pair (wsq_const, wsq_lin) against sqrt(D) coordinates ----------

BASIS_FIELDS = [make_field("quadratic", D) for D in (2, 3, -1, -2, -5)] + [
    make_field("quadratic", D) for D in (5, 13, -3, -7, -15)
]


def test_basis_pair_is_decided_by_D_mod_4():
    assert (make_field("rational").wsq_const, make_field("rational").wsq_lin) == (0, 0)
    for F in BASIS_FIELDS:
        assert (F.wsq_const, F.wsq_lin) == tuple(int(c) for c in _wsq(F))
        assert F.omega() * F.omega() == F.wsq_const + F.wsq_lin * F.omega()


@given(st.sampled_from(BASIS_FIELDS), _coordinates, _coordinates)
def test_from_sqrtd_inverts_sqrtd_coords(F, a, b):
    x = F.element(a, b)
    u, v = x.sqrtd_coords()
    assert F.from_sqrtd(u, v) == x
    assert x.norm() == u * u - F.D * v * v
    assert x.trace() == 2 * u
    assert x.conj().sqrtd_coords() == (u, -v)
