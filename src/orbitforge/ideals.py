"""Prime ideals, places, exact p-adic orders and ideal factorization.

Splitting of a rational prime p in a quadratic field is read off the
Kronecker symbol of the field discriminant at p.  Orders at split primes
are computed through a Hensel lift of the root of the minimal polynomial
of the basis generator, which identifies the completion with Z_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cache import FactorCache
from .fields import FieldSpec, NFElement, FieldError
from .intfactor import _divide_out, is_prime, sieve_primes


def kronecker_at_prime(disc: int, p: int) -> int:
    """Kronecker symbol (disc / p) for a prime p."""
    if p == 2:
        if disc % 2 == 0:
            return 0
        return 1 if disc % 8 in (1, 7) else -1
    r = disc % p
    if r == 0:
        return 0
    t = pow(r, (p - 1) // 2, p)
    return 1 if t == 1 else -1


@dataclass(frozen=True)
class PrimeIdealRec:
    """One prime ideal above a rational prime p."""

    field: FieldSpec
    p: int
    e: int
    f: int
    kind: str  # split-a | split-b | inert | ramified | rational
    root: int | None  # c with ideal = (p, w - c), when applicable

    @property
    def norm(self) -> int:
        return self.p**self.f

    @property
    def local_degree(self) -> int:
        return self.e * self.f

    def key(self) -> tuple:
        return (self.p, self.kind)

    def __repr__(self):
        if self.kind in ("rational", "inert"):
            return f"({self.p})"
        return f"({self.p}, w-{self.root})"


def factor_rational_prime(field: FieldSpec, p: int) -> list[PrimeIdealRec]:
    """All prime ideals above p, with e, f and two-element representations.

    The per-field cache is read first: p enters it only once proved prime."""
    cached = field._splitting_cache.get(p)
    if cached is not None:
        return list(cached)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if field.degree == 1:
        out = [PrimeIdealRec(field, p, 1, 1, "rational", None)]
        field._splitting_cache[p] = tuple(out)
        return out
    sym = kronecker_at_prime(field.discriminant, p)
    if sym == -1:
        out = [PrimeIdealRec(field, p, 1, 2, "inert", None)]
    elif sym == 0:
        (c,) = _minpoly_roots_mod(field, p)
        out = [PrimeIdealRec(field, p, 2, 1, "ramified", c)]
    else:
        lo, hi = _minpoly_roots_mod(field, p)
        out = [
            PrimeIdealRec(field, p, 1, 1, "split-a", lo),
            PrimeIdealRec(field, p, 1, 1, "split-b", hi),
        ]
    field._splitting_cache[p] = tuple(out)
    return out


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks, Cohen 1.5.1)."""
    if a % p == 0:
        return 0
    q, r = p - 1, 0
    while q % 2 == 0:
        q, r = q // 2, r + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    y, x, b = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while b != 1:
        m = next((m for m in range(1, r) if pow(b, 1 << m, p) == 1), None)
        if m is None:
            raise ArithmeticError(f"{a} is not a square mod {p}")
        t = pow(y, 1 << (r - m - 1), p)
        y, r, x, b = t * t % p, m, x * t % p, b * t * t % p
    return x


def _minpoly_roots_mod(field: FieldSpec, p: int) -> list[int]:
    """The distinct roots of the minimal polynomial of w mod p, ascending."""
    t0, t1 = -field.wsq_const, -field.wsq_lin  # w^2 + t1*w + t0 = 0
    if p == 2:
        return [c for c in (0, 1) if (c * c + t1 * c + t0) % 2 == 0]
    s = _sqrt_mod(t1 * t1 - 4 * t0, p)
    half = (p + 1) // 2
    return sorted({(-t1 + s) * half % p, (-t1 - s) * half % p})


def _hensel_lift(field: FieldSpec, P: PrimeIdealRec, prec: int) -> tuple[int, int]:
    """Root of the minimal polynomial of w mod p**prec refining P.root.

    Valid for unramified P (the root is simple mod p); returns (c, p**prec).
    """
    t0, t1 = -field.wsq_const, -field.wsq_lin
    p = P.p
    c = P.root
    mod = p
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        mod_new = p**k
        fc = (c * c + t1 * c + t0) % mod_new
        dfc = (2 * c + t1) % mod_new
        c = (c - fc * pow(dfc, -1, mod_new)) % mod_new
        mod = mod_new
    return c, mod


def _vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    return _divide_out(n, p)[1]


def ord_ideal(x: NFElement, P: PrimeIdealRec) -> int:
    """Exact order of x at the prime ideal P; x must be nonzero."""
    if x.is_zero():
        raise ZeroDivisionError("order of 0 requested")
    y, m = x.integral_parts()
    v_den = _vp(m, P.p) if m % P.p == 0 else 0
    return _ord_integral(y, P) - P.e * v_den


def _ord_integral(y: NFElement, P: PrimeIdealRec) -> int:
    p = P.p
    field = y.field
    if P.kind == "rational":
        return _vp(y.a.numerator, p)
    ua, ub = int(y.a), int(y.b)
    if P.kind == "inert":
        if ua == 0:
            return _vp(ub, p)
        if ub == 0:
            return _vp(ua, p)
        return min(_vp(ua, p), _vp(ub, p))
    if P.kind == "ramified":
        g = min(_vp(ua, p) if ua else 10**9, _vp(ub, p) if ub else 10**9)
        ua //= p**g
        ub //= p**g
        extra = 1 if (ua + ub * P.root) % p == 0 else 0
        return 2 * g + extra
    # split: order = v_p of the image of y under w -> c in Z_p
    total = _vp(abs(y.norm().numerator), p)
    if total == 0:
        return 0
    c, mod = _hensel_lift(field, P, total + 1)
    im = (ua + ub * c) % mod
    if im == 0:
        return total  # all of the valuation sits at this ideal
    return min(_vp(im, p), total)


# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Place:
    """An archimedean embedding class or a finite prime ideal."""

    kind: str  # "archimedean" | "finite"
    field: FieldSpec
    embedding_index: int | None = None
    ideal: PrimeIdealRec | None = None

    @property
    def local_degree(self) -> int:
        if self.kind == "finite":
            return self.ideal.local_degree
        if self.field.degree == 1:
            return 1
        return 1 if self.field.D > 0 else 2

    def __repr__(self):
        if self.kind == "archimedean":
            return f"inf_{self.embedding_index}"
        return f"v_{self.ideal!r}"


def archimedean_places(field: FieldSpec) -> list[Place]:
    if field.degree == 1 or field.D < 0:
        return [Place("archimedean", field, embedding_index=0)]
    return [
        Place("archimedean", field, embedding_index=0),
        Place("archimedean", field, embedding_index=1),
    ]


def finite_place(ideal: PrimeIdealRec) -> Place:
    return Place("finite", ideal.field, ideal=ideal)


# ---------------------------------------------------------------------------
# S-sets
# ---------------------------------------------------------------------------


class SSet:
    """A finite set of places containing all archimedean ones.

    Carries the statistics used by the explicit bounds: s and t counts,
    the largest and the product of the finite norms, and the sum of
    log*log of the norms.
    """

    def __init__(self, field: FieldSpec, ideals=()):
        self.field = field
        seen = {}
        for P in ideals:
            if P.field != field:
                raise FieldError("ideal from a different field in S")
            seen[(P.p, P.kind)] = P
        self.ideals: tuple[PrimeIdealRec, ...] = tuple(
            sorted(seen.values(), key=lambda P: (P.p, P.kind))
        )
        self.archimedean: tuple[Place, ...] = tuple(archimedean_places(field))
        self._keys = frozenset(seen)
        self._fullness: tuple[tuple[int, ...], tuple[PrimeIdealRec, ...]] | None = None

    @property
    def t(self) -> int:
        return len(self.ideals)

    @property
    def s(self) -> int:
        return len(self.archimedean) + self.t

    @property
    def P(self) -> int:
        return max((P.norm for P in self.ideals), default=1)

    @property
    def Q(self) -> int:
        q = 1
        for P in self.ideals:
            q *= P.norm
        return q

    @property
    def T_sum(self) -> float:
        from .constants import log_star

        total = 0  # left to right, as in heights.height
        for P in self.ideals:
            total += log_star(math.log(P.norm))
        return total

    def contains_ideal(self, P: PrimeIdealRec) -> bool:
        return (P.p, P.kind) in self._keys

    def key(self) -> frozenset:
        return self._keys

    def rational_primes(self) -> list[int]:
        return sorted({P.p for P in self.ideals})

    def fullness(self) -> tuple[tuple[int, ...], tuple[PrimeIdealRec, ...]]:
        """(full primes, lone ideals), computed once.

        A full prime is a rational prime p every ideal above which is in S;
        the lone ideals are those of S above the other primes of S (one
        ideal of a split p)."""
        if self._fullness is None:
            full, lone = [], []
            for p in self.rational_primes():
                above = factor_rational_prime(self.field, p)
                if all(self.contains_ideal(P) for P in above):
                    full.append(p)
                else:
                    lone.extend(P for P in self.ideals if P.p == p)
            self._fullness = (tuple(full), tuple(lone))
        return self._fullness

    def places(self) -> list[Place]:
        return list(self.archimedean) + [finite_place(P) for P in self.ideals]

    def ideal_selectors(self) -> list[str]:
        """Round-trippable selector strings (see config module grammar)."""
        out = []
        by_p: dict[int, list[PrimeIdealRec]] = {}
        for P in self.ideals:
            by_p.setdefault(P.p, []).append(P)
        for p, recs in sorted(by_p.items()):
            above = factor_rational_prime(self.field, p)
            if len(recs) == len(above):
                out.append(str(p))
            else:
                for r in recs:
                    out.append(f"{p}{'a' if r.kind == 'split-a' else 'b'}")
        return out

    def __repr__(self):
        return f"S(inf + {list(self.ideals)})"


def build_SX(field: FieldSpec, X) -> SSet:
    """S^X: all archimedean places plus every finite place of norm <= X."""
    if X < 1:
        raise ValueError("X must be >= 1")
    xi = int(X)
    ideals = []
    for p in sieve_primes(xi):
        for P in factor_rational_prime(field, p):
            if P.norm <= X:
                ideals.append(P)
    return SSet(field, ideals)


# ---------------------------------------------------------------------------
# factorization of elements into prime ideals
# ---------------------------------------------------------------------------


class IdealFactorization:
    """Finite map prime ideal -> nonzero exponent for a principal fractional ideal."""

    def __init__(self, field: FieldSpec, entries: dict[PrimeIdealRec, int]):
        self.field = field
        self.entries = {P: e for P, e in entries.items() if e != 0}

    def norm_value(self) -> Fraction:
        out = Fraction(1)
        for P, e in self.entries.items():
            out *= Fraction(P.norm) ** e
        return out

    def positive_part(self) -> dict[PrimeIdealRec, int]:
        return {P: e for P, e in self.entries.items() if e > 0}

    def items(self):
        return sorted(self.entries.items(), key=lambda kv: (kv[0].p, kv[0].kind))

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        inner = ", ".join(f"{P!r}^{e}" for P, e in self.items())
        return "{" + inner + "}"


def factor_element_ideal(
    x: NFElement, factors: FactorCache | None = None
) -> IdealFactorization:
    """Factor the fractional ideal of x != 0 into prime ideals.

    Factors |Nm| of the integral part and the denominator over Z, then
    distributes orders over the ideals above each rational prime.  The
    recombination invariant prod Nm(P)^e == |Nm(x)| is asserted.
    Raises IncompleteFactorization when the budget of factors runs out.
    """
    if x.is_zero():
        raise ZeroDivisionError("cannot factor the zero ideal")
    field = x.field
    y, m = x.integral_parts()
    nm = abs(y.norm().numerator)
    primes: set[int] = set()
    factors = factors if factors is not None else FactorCache()
    fac_nm = factors.lookup_or_factor(nm) if nm > 1 else {}
    fac_m = factors.lookup_or_factor(m) if m > 1 else {}
    primes.update(fac_nm)
    primes.update(fac_m)
    entries: dict[PrimeIdealRec, int] = {}
    for p in sorted(primes):
        for P in factor_rational_prime(field, p):
            e = ord_ideal(x, P)
            if e:
                entries[P] = e
    out = IdealFactorization(field, entries)
    expected = abs(Fraction(y.norm(), m**field.degree))
    if out.norm_value() != expected:
        raise ArithmeticError(
            f"recombination failed for {x!r}: {out.norm_value()} != {expected}"
        )
    return out
