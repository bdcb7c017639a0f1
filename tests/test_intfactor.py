import random

import pytest
import sympy

from orbitforge.intfactor import (
    IncompleteFactorization,
    factorize,
    iroot,
    is_prime,
    multiplicative_dependence,
    perfect_power_base,
    strip_primes,
)


def refold(fac):
    n = 1
    for p, e in fac.items():
        n *= p**e
    return n


def test_is_prime_against_sympy():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 10**7)
        assert is_prime(n) == sympy.isprime(n)
    for n in (2, 3, 2**61 - 1, 10**18 + 9, 4547337172376300111955330758342147474062293202868155909489):
        assert is_prime(n) == sympy.isprime(n)


def test_factorize_small_and_refold():
    assert factorize(720) == {2: 4, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert factorize(-12) == {2: 2, 3: 1}
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 10**12)
        fac = factorize(n)
        assert refold(fac) == n
        assert all(is_prime(p) for p in fac)


def test_factorize_perfect_powers_and_large_primes():
    p = 1000003
    assert factorize(p**5) == {p: 5}
    q = 2**89 - 1  # prime
    assert factorize(q) == {q: 1}


def test_budget_exhaustion_explicit():
    # two 30-digit primes: far beyond any tiny rho budget
    a = sympy.nextprime(10**29 + 12345)
    b = sympy.nextprime(10**29 + 99999)
    with pytest.raises(IncompleteFactorization) as ei:
        factorize(a * b * 8, budget=50)
    err = ei.value
    assert err.partial.get(2) == 3
    assert err.cofactor == a * b


def test_iroot_and_perfect_power():
    assert iroot(10**18, 3) == (10**6, True)
    assert iroot(10**18 + 5, 3) == (10**6, False)
    assert iroot((2**70 + 3) ** 5 - 1, 5) == (2**70 + 2, False)
    assert iroot(3**1000, 1000) == (3, True)
    assert perfect_power_base(64) == (2, 6)
    assert perfect_power_base(729) == (3, 6)
    assert perfect_power_base(7) == (7, 1)
    assert perfect_power_base(36) == (6, 2)
    assert perfect_power_base(3**37) == (3, 37)


def test_strip_primes():
    rest, removed = strip_primes(720, [2, 3])
    assert rest == 5 and removed == {2: 4, 3: 2}
    rest, removed = strip_primes(-7, [2, 3, 5])
    assert rest == 7 and removed == {}


def test_multiplicative_dependence():
    assert multiplicative_dependence(16, 4) == (1, 2)
    assert multiplicative_dependence(8, 4) == (2, 3)
    assert multiplicative_dependence(6, 36) == (2, 1)
    assert multiplicative_dependence(6, 10) is None
    assert multiplicative_dependence(49, 7) == (1, 2)
    r, s = multiplicative_dependence(12**5, 12**3)
    assert (r, s) == (3, 5)
    # exponents with a prime factor above 31
    assert multiplicative_dependence(3**37, 3) == (1, 37)
    assert multiplicative_dependence(7**2, 7**106) == (53, 1)
    assert multiplicative_dependence(3**37 * 2, 3) is None
