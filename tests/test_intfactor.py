import inspect
import math
import random
import re
import sys
import time

import pytest
import sympy
from hypothesis import given, strategies as st

from orbitforge.intfactor import (
    IncompleteFactorization,
    _brent_rho,
    _is_strong_lucas_prp,
    factorize,
    iroot,
    is_prime,
    multiplicative_dependence,
    perfect_power_base,
    small_prime_divisors,
    small_primes,
    strip_primes,
)


# Smallest composites passing Miller-Rabin on the first 12 and 13 prime bases
# (Sorenson-Webster, Math. Comp. 86 (2017)).
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981


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


def test_psi12_and_psi13_are_composite():
    assert not is_prime(PSI12)
    assert not is_prime(PSI13)
    assert factorize(PSI12) == {399165290221: 1, 798330580441: 1}


def _strong_base2(n):
    """Whether odd n > 2 passes one strong Miller-Rabin round to base 2."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(2, (n - 1) >> s, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


@pytest.mark.parametrize(
    "n", [2047, 3277, 4033, 4681, 8321, 3215031751, 3825123056546413051]
)
def test_base2_strong_pseudoprimes_fail_lucas(n):
    assert _strong_base2(n)
    assert not _is_strong_lucas_prp(n)
    assert not is_prime(n)


@pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
def test_strong_lucas_pseudoprimes_fail_miller_rabin(n):
    assert _is_strong_lucas_prp(n)
    assert not _strong_base2(n)
    assert not is_prime(n)


def test_carmichael_numbers_are_composite():
    for n in (561, 1105, 1729, 41041, 825265):
        assert not is_prime(n)


# 1093 and 3511 are Wieferich primes, so their squares pass the base-2 round
# and reach the Lucas half, whose search for D never ends on a square.
@pytest.mark.parametrize("p", [1093, 3511, 1000003, 2**89 - 1])
def test_prime_squares_are_composite_at_once(p):
    t0 = time.perf_counter()
    assert not is_prime(p * p)
    assert time.perf_counter() - t0 < 0.1


def _pseudoprime_shapes():
    """p*q with q = 2p - 1 or q = k(p - 1) + 1, both prime: the shape strong
    pseudoprimes take.  Half the draws give the prime q alone."""

    def build(args):
        p, k, take = args
        p = sympy.nextprime(p)
        for q in [2 * p - 1] + [j * (p - 1) + 1 for j in range(k, k + 40)]:
            if sympy.isprime(q):
                return p * q if take else q
        return p

    return st.tuples(
        st.integers(3, 2**80), st.integers(2, 400), st.booleans()
    ).map(build)


@given(
    st.one_of(
        st.integers(0, 2**64 - 1),
        st.integers(64, 599).flatmap(
            lambda b: st.integers(2**b, 2 ** (b + 1) - 1).map(lambda n: n | 1)
        ),
        _pseudoprime_shapes(),
    )
)
def test_is_prime_oracle_sympy(n):
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


@pytest.mark.parametrize(
    "n",
    [2**16384, 3**10000 * 7, 2**5000 * 3**3000 * 9973**200, 7**4096 * 10007**3,
     2**1000 * (2**89 - 1)],
    ids=["2^16384", "3^10000*7", "2^5000*3^3000*9973^200", "7^4096*10007^3", "2^1000*M89"],
)
def test_factorize_large_prime_powers_against_sympy(n):
    assert factorize(n) == sympy.factorint(n)


def test_budget_exhaustion_explicit():
    # two 30-digit primes: far beyond any tiny rho budget
    a = sympy.nextprime(10**29 + 12345)
    b = sympy.nextprime(10**29 + 99999)
    with pytest.raises(IncompleteFactorization) as ei:
        factorize(a * b * 8, budget=50)
    err = ei.value
    assert err.partial.get(2) == 3
    assert err.cofactor == a * b


def test_budget_exhaustion_names_sizes_at_the_default_int_str_limit():
    # 3^10000 has 4,772 digits, past Python's default limit of 4,300: the
    # message names bit lengths, so building it cannot hit that limit
    assert getattr(sys, "get_int_max_str_digits", lambda: 4300)() == 4300
    pq = 1000000000039 * 2000000000003  # two 40-bit primes
    with pytest.raises(IncompleteFactorization) as ei:
        factorize(pq * 3**10000, 10)
    err = ei.value
    assert (err.n, err.partial, err.cofactor) == (pq * 3**10000, {3: 10000}, pq)
    assert str(err) == (
        f"factor budget exhausted on a {(pq * 3**10000).bit_length()}-bit integer: "
        "a 81-bit composite cofactor remains"
    )


def _rho_with_squarings(n, budget):
    """_brent_rho(n, budget) and the modular squarings it ran, counted by
    tracing the lines of the form `y = (y * y + c) % n`."""
    lines, start = inspect.getsourcelines(_brent_rho)
    squaring = {
        start + i for i, line in enumerate(lines) if re.search(r"(\w+) = \(\1 \* \1 \+ c\) % n", line)
    }
    assert len(squaring) == 3  # advance loop, batch loop, backtrack
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line" and frame.f_lineno in squaring:
            count += 1
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is _brent_rho.__code__ else None)
    try:
        out = _brent_rho(n, budget)
    finally:
        sys.settrace(old)
    return out, count


@pytest.mark.parametrize("budget,found", [(10, False), (100, False), (10**6, True)])
def test_brent_rho_charges_every_squaring(budget, found):
    (f, used), squarings = _rho_with_squarings(1000003 * 1000033, budget)
    assert squarings <= used <= budget
    assert f in ((1000003, 1000033) if found else (None,))


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


@given(st.lists(st.sampled_from(small_primes()), max_size=12),
       st.integers(min_value=-(2**128), max_value=2**128))
def test_small_prime_divisors_match_the_trial_scan(primes, cofactor):
    # the gcd route finds the same primes, in the same order, as testing each one
    n = math.prod(primes) * cofactor
    assert small_prime_divisors(n) == [p for p in small_primes() if n % p == 0]
