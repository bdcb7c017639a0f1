import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from orbitforge.fields import make_field
from orbitforge.ideals import (
    SSet,
    archimedean_places,
    build_SX,
    factor_element_ideal,
    factor_rational_prime,
    ord_ideal,
)


def ideals_above(field, p):
    return factor_rational_prime(field, p)


def test_place_degree_identity_exact():
    for args in (("rational", None), ("quadratic", 2), ("quadratic", -5),
                 ("quadratic", 5), ("quadratic", -1), ("quadratic", 13)):
        F = make_field(*args)
        total = sum(Fraction(pl.local_degree, F.degree) for pl in archimedean_places(F))
        assert total == 1


def test_splitting_examples():
    F2 = make_field("quadratic", 2)
    seven = ideals_above(F2, 7)
    assert [P.kind for P in seven] == ["split-a", "split-b"]
    assert {P.root for P in seven} == {3, 4}
    assert all(P.norm == 7 for P in seven)
    two = ideals_above(F2, 2)
    assert len(two) == 1 and two[0].kind == "ramified" and two[0].norm == 2
    Q = make_field("rational")
    five = ideals_above(Q, 5)
    assert five[0].e == five[0].f == 1 and five[0].norm == 5


def test_splitting_completeness_all_small_primes():
    from orbitforge.intfactor import sieve_primes

    for D in (2, -5, 5, -1, -3, 13, 10):
        F = make_field("quadratic", D)
        for p in sieve_primes(1000):
            parts = ideals_above(F, p)
            assert sum(P.e * P.f for P in parts) == 2, (D, p)


def test_large_split_prime_splits_by_square_root():
    F2 = make_field("quadratic", 2)
    p = sympy.nextprime(10**12)
    while p % 8 not in (1, 7):  # 2 is a square mod p: p splits in Q(sqrt 2)
        p = sympy.nextprime(p)
    t0 = time.perf_counter()
    split = factor_rational_prime(F2, p)
    elapsed = time.perf_counter() - t0
    assert [P.kind for P in split] == ["split-a", "split-b"]
    assert [P.root for P in split] == sorted(sympy.sqrt_mod(2, p, all_roots=True))
    assert elapsed < 0.01


def test_factor_rational_prime_rejects_composite():
    Q = make_field("rational")
    with pytest.raises(ValueError):
        factor_rational_prime(Q, 6)
    # 399165290221 * 798330580441, a strong pseudoprime to the prime bases <= 37
    with pytest.raises(ValueError, match="is not prime"):
        factor_rational_prime(Q, 318665857834031151167461)


def test_factor_rational_prime_proves_each_prime_once(monkeypatch):
    # the per-field splitting cache is read before the primality proof, and
    # only proved primes enter it, so a composite is refused on every call
    from orbitforge import ideals

    fields = [make_field("rational"), make_field("quadratic", 2), make_field("quadratic", -5)]
    primes = (2, 3, 5, 7, 10007)
    fresh = sorted(p for F in fields for p in primes if p not in F._splitting_cache)
    assert 10007 in fresh
    calls = []
    plain = ideals.is_prime

    def counted(n):
        calls.append(n)
        return plain(n)

    monkeypatch.setattr(ideals, "is_prime", counted)
    for _ in range(3):
        for F in fields:
            for p in primes:
                assert factor_rational_prime(F, p) == factor_rational_prime(F, p)
    assert sorted(calls) == fresh
    for _ in range(2):
        with pytest.raises(ValueError, match="is not prime"):
            factor_rational_prime(fields[1], 318665857834031151167461)
    assert calls[len(fresh):] == [318665857834031151167461] * 2


def test_ord_examples():
    Q = make_field("rational")
    two = ideals_above(Q, 2)[0]
    three = ideals_above(Q, 3)[0]
    assert ord_ideal(Q.element(720), two) == 4
    assert ord_ideal(Q.element(Fraction(1, 9)), three) == -2
    F2 = make_field("quadratic", 2)
    p7a, p7b = ideals_above(F2, 7)
    x = F2.element(3, 1)
    assert {ord_ideal(x, p7a), ord_ideal(x, p7b)} == {0, 1}
    ram = ideals_above(F2, 2)[0]
    assert ord_ideal(F2.element(0, 1), ram) == 1  # sqrt(2)
    assert ord_ideal(F2.element(2), ram) == 2
    assert ord_ideal(F2.element(4, 2), ram) == 3  # 2*(2 + sqrt 2)


def test_ord_split_deep_powers():
    F2 = make_field("quadratic", 2)
    p7a, p7b = ideals_above(F2, 7)
    x = F2.element(3, 1) ** 5 * 7**2  # ord at one side 5+2, other 2
    o_a, o_b = ord_ideal(x, p7a), ord_ideal(x, p7b)
    assert sorted((o_a, o_b)) == [2, 7]
    assert ord_ideal(x.inverse(), p7a) == -o_a


@given(st.integers(-10**6, 10**6).filter(bool), st.sampled_from([2, 3, 7, 10007]), st.integers(0, 3000))
def test_ord_rational_matches_repeated_division(u, p, e):
    n, v = u * p**e, 0
    while n % p == 0:
        n //= p
        v += 1
    Q = make_field("rational")
    assert ord_ideal(Q.element(u * p**e), ideals_above(Q, p)[0]) == v
    assert ord_ideal(Q.element(Fraction(1, u * p**e)), ideals_above(Q, p)[0]) == -v


def test_factor_element_examples():
    Q = make_field("rational")
    fac = factor_element_ideal(Q.element(720))
    assert {P.p: e for P, e in fac.items()} == {2: 4, 3: 2, 5: 1}
    F2 = make_field("quadratic", 2)
    fac2 = factor_element_ideal(F2.element(3, 1))
    assert len(fac2) == 1
    [(P, e)] = fac2.items()
    assert P.p == 7 and e == 1 and P.norm == 7
    assert len(factor_element_ideal(F2.element(1, 1))) == 0  # unit
    with pytest.raises(ZeroDivisionError):
        factor_element_ideal(Q.element(0))


def test_factorization_recombination_random():
    rng = random.Random(17)
    fields = [make_field("rational"), make_field("quadratic", 2), make_field("quadratic", -5)]
    for _ in range(1000):
        F = rng.choice(fields)
        if F.degree == 1:
            x = F.element(rng.randrange(1, 10**6) * rng.choice((1, -1)))
        else:
            x = F.element(rng.randrange(-300, 301), rng.randrange(-300, 301))
            if x.is_zero():
                continue
        fac = factor_element_ideal(x)
        assert fac.norm_value() == abs(x.norm())
        assert all(e >= 0 for _, e in fac.items())


def test_fractional_factorization_negative_exponents():
    Q = make_field("rational")
    fac = factor_element_ideal(Q.element(Fraction(9, 20)))
    got = {(P.p): e for P, e in fac.items()}
    assert got == {3: 2, 2: -2, 5: -1}
    assert fac.norm_value() == Fraction(9, 20)


def test_build_SX():
    Q = make_field("rational")
    s1 = build_SX(Q, 1)
    assert s1.t == 0 and s1.s == 1 and s1.P == 1 and s1.Q == 1
    s10 = build_SX(Q, 10)
    assert s10.rational_primes() == [2, 3, 5, 7] and s10.t == 4
    F2 = make_field("quadratic", 2)
    s7 = build_SX(F2, 7)
    assert s7.t == 3
    assert {(P.p, P.kind) for P in s7.ideals} == {
        (2, "ramified"), (7, "split-a"), (7, "split-b")}
    with pytest.raises(ValueError):
        build_SX(Q, 0.5)


def test_SX_count_bound():
    import math

    for F in (make_field("rational"), make_field("quadratic", 2)):
        for X in (2, 10, 100, 500):
            s = build_SX(F, X)
            assert s.t <= 6 * F.degree * X / math.log(X)


def test_sset_dedup_and_selectors():
    F2 = make_field("quadratic", 2)
    p7 = ideals_above(F2, 7)
    S = SSet(F2, p7 + p7 + ideals_above(F2, 2))
    assert S.t == 3
    assert S.ideal_selectors() == ["2", "7"]
    S_half = SSet(F2, [p7[0]])
    assert S_half.ideal_selectors() == ["7a"]
