"""Big-integer primality and factorization with explicit step budgets.

Primality is Baillie-PSW: exact below 2**64, with no counterexample known
above.  Factorization never truncates silently: when the Pollard-rho
budget runs out with a composite cofactor left, IncompleteFactorization is
raised and carries the partial factorization plus the cofactor.
"""

from __future__ import annotations

import functools
import math

_TRIAL_BOUND = 10_000

DEFAULT_RHO_BUDGET = 600_000


class IncompleteFactorization(ArithmeticError):
    """Factor budget exhausted; .partial and .cofactor describe what is known."""

    def __init__(self, n: int, partial: dict[int, int], cofactor: int):
        super().__init__(  # sizes, not digits: n may pass the int/str digit limit
            f"factor budget exhausted on a {n.bit_length()}-bit integer: "
            f"a {cofactor.bit_length()}-bit composite cofactor remains"
        )
        self.n = n
        self.partial = dict(partial)
        self.cofactor = cofactor


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit by a byte sieve."""
    if limit < 2:
        return []
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i, fl in enumerate(sieve) if fl]


@functools.cache
def small_primes() -> list[int]:
    return sieve_primes(_TRIAL_BOUND)


@functools.cache
def _small_primorial() -> int:
    return math.prod(small_primes())


def small_prime_divisors(n: int) -> list[int]:
    """The primes <= the trial bound that divide n, ascending; the scan ends at gcd 1."""
    g, found = math.gcd(n, _small_primorial()), []
    for p in small_primes():
        if g == 1:
            break
        if g % p == 0:
            g //= p
            found.append(p)
    return found


_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Baillie-PSW primality: exact below 2**64, no counterexample known above.

    Trial division by the primes <= 37, one strong Miller-Rabin round to
    base 2, then a strong Lucas test with Selfridge's parameters
    (Baillie-Wagstaff, Math. Comp. 35 (1980)).
    """
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no prime factor <= 37, so none at all
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(2, (n - 1) >> s, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a & 1 == 0:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 2.

    Selfridge's parameters: the first D in 5, -7, 9, -11, ... with
    Jacobi(D/n) = -1, then P = 1, Q = (1 - D)/4.  With n + 1 = d * 2**s,
    d odd, n passes when U_d = 0 or V_{d 2**r} = 0 (mod n) for some r < s.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D has Jacobi(D/n) = -1: the search below never ends
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:  # gcd(D, n) > 1
            return abs(D) == n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & (-1 - n)).bit_length() - 1
    d = (n + 1) >> s
    # ladder over (V_k, V_{k+1}, Q^k) from k = 1 along the bits of d, with
    # V_{2k} = V_k^2 - 2 Q^k and V_{2k+1} = V_k V_{k+1} - P Q^k (P = 1)
    v, w, qk = 1, (1 - 2 * Q) % n, Q % n
    for bit in bin(d)[3:]:
        if bit == "1":
            v, w, qk = (v * w - qk) % n, (w * w - 2 * qk * Q) % n, qk * qk * Q % n
        else:
            v, w, qk = (v * v - 2 * qk) % n, (v * w - qk) % n, qk * qk % n
    # D U_d = 2 V_{d+1} - P V_d, and D is invertible mod n
    if (2 * w - v) % n == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Integer k-th root: largest r with r**k <= n, and whether r**k == n."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n, True
    # start just above the root (the float log widened past its rounding
    # error), so Newton converges in a few steps even for large k
    e = math.log2(n) / k * (1 + 1e-12) + 1e-9
    shift = max(int(e) - 52, 0)
    r = (int(2.0 ** (e - shift)) + 1) << shift
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r, r**k == n


def perfect_power_base(n: int) -> tuple[int, int]:
    """Write n >= 1 as base**e with base not itself a perfect power; e maximal.

    Tries every prime exponent up to the bit length."""
    if n < 1:
        raise ValueError("perfect_power_base needs n >= 1")
    if n == 1:
        return 1, 1
    base, exp = n, 1
    changed = True
    while changed:
        changed = False
        for p in sieve_primes(base.bit_length()):
            r, exact = iroot(base, p)
            if exact:
                base, exp = r, exp * p
                changed = True
                break
    return base, exp


def _brent_rho(n: int, budget: int) -> tuple[int | None, int]:
    """Brent-variant Pollard rho with deterministic parameters.

    Returns (factor, steps_used); a step is one modular squaring, those of
    Brent's advance loop included.  factor is None when the budget ran out.
    """
    if n % 2 == 0:
        return 2, 0
    used = 0
    for c in range(1, 64):  # deterministic restart sequence
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            advance = min(r, budget - used)
            for _ in range(advance):
                y = (y * y + c) % n
            used += advance
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k, budget - used)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                    used += 1
                g = math.gcd(q, n)
                k += m
                if used >= budget:
                    break
            r *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                used += 1
                g = math.gcd(abs(x - ys), n)
                if used >= budget:
                    break
        if 1 < g < n:
            return g, used
        if used >= budget:
            return None, used
    return None, used


def factorize(n: int, budget: int = DEFAULT_RHO_BUDGET) -> dict[int, int]:
    """Full prime factorization of |n| >= 1 as {prime: exponent}.

    Trial division by small primes, then the Baillie-PSW test (exact below
    2**64, no counterexample known above) plus budgeted Pollard rho on what
    remains.  Raises IncompleteFactorization when the budget is exhausted
    with a composite piece left.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    orig = n
    out: dict[int, int] = {}
    if n == 1:
        return out
    for p in small_primes():
        if p * p > n:
            break
        if n % p == 0:
            n, out[p] = _divide_out(n, p)
    if n == 1:
        return out
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return out

    remaining = budget
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        base, exp = perfect_power_base(m)
        if exp > 1:
            if is_prime(base):
                out[base] = out.get(base, 0) + exp
                continue
            stack.extend([base] * exp)
            continue
        f, used = _brent_rho(m, max(remaining, 0))
        remaining -= used
        if f is None:
            cof = m
            for q in stack:
                cof *= q
            raise IncompleteFactorization(orig, out, cof)
        stack.append(f)
        stack.append(m // f)
    return out


def strip_primes(n: int, primes) -> tuple[int, dict[int, int]]:
    """Remove all factors of the given primes from |n|; returns (rest, removed)."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot strip 0")
    removed: dict[int, int] = {}
    for p in primes:
        if p < 2:
            continue
        while n % p == 0:
            removed[p] = removed.get(p, 0) + 1
            n //= p
    return n, removed


def _divide_out(a: int, b: int) -> tuple[int, int]:
    """(a / b**k, k) for the largest k with b**k | a; b >= 2."""
    powers = []  # b, b^2, b^4, ... while they divide what is left of a
    p = b
    while a % p == 0:
        a //= p
        powers.append(p)
        p *= p
    k = (1 << len(powers)) - 1
    for i in reversed(range(len(powers))):
        if a % powers[i] == 0:
            a //= powers[i]
            k += 1 << i
    return a, k


def multiplicative_dependence(x: int, y: int) -> tuple[int, int] | None:
    """Minimal (r, s), r > 0, gcd(r,s) = 1, with |x|**r == |y|**s; None if none.

    Both inputs must have |.| >= 2: the trivial cases belong to the caller.
    Such (r, s) exist iff |x| = b**s and |y| = b**r for one b.  The
    Euclidean algorithm on those unknown exponents, run by exact division
    of the values, finds b or refutes it; no root is extracted, so every
    exponent is found, not only those with small prime factors.
    """
    x, y = abs(x), abs(y)
    if x < 2 or y < 2:
        raise ValueError("multiplicative_dependence needs |x|, |y| >= 2")
    a, b = max(x, y), min(x, y)
    quotients = []
    while True:
        c, k = _divide_out(a, b)
        if k == 0:
            return None
        quotients.append(k)
        if c == 1:
            break
        a, b = b, c
    # unwind from b = base^1, c = base^0 back to (max, min) = base^(ea, eb)
    ea, eb = 1, 0
    for k in reversed(quotients):
        ea, eb = eb + k * ea, ea
    ex, ey = (ea, eb) if x >= y else (eb, ea)
    return ey, ex
