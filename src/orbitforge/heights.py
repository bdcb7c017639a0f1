"""Logarithmic heights, S-heights, support statistics and canonical heights.

Heights are real numbers in nats.  Finite-place parts are assembled from
exact integer orders, so only the archimedean logarithms carry rounding;
those are computed along a cancellation-free route so that unit-like
elements with huge coordinates but tiny embeddings stay accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cache import FactorCache
from .fields import NFElement
from .ideals import (
    Place,
    PrimeIdealRec,
    SSet,
    archimedean_places,
    factor_element_ideal,
    factor_rational_prime,
    finite_place,
    ord_ideal,
)
from .polynomials import Polynomial

_SHIFT_BITS = 900


def _log_scaled_sum(a: int, b: int, D: int) -> float:
    """log(a + b*sqrt(D)) for a, b >= 0, not both 0, any bit size."""
    k = max(a.bit_length(), b.bit_length()) - _SHIFT_BITS
    if k > 0:
        return math.log((a >> k) + (b >> k) * math.sqrt(D)) + k * math.log(2)
    return math.log(a + b * math.sqrt(D))


def _log_embed_pair(A: int, B: int, D: int) -> tuple[float, float]:
    """(log|A + B*sqrt(D)|, log|A - B*sqrt(D)|) without cancellation, D > 0."""
    if B == 0:
        v = math.log(abs(A))
        return v, v
    if A == 0:
        v = math.log(abs(B)) + 0.5 * math.log(D)
        return v, v
    norm = A * A - D * B * B
    big = _log_scaled_sum(abs(A), abs(B), D)
    small = math.log(abs(norm)) - big
    if (A > 0) == (B > 0):
        return big, small
    return small, big


def log_abs_embedding(x: NFElement, embedding_index: int = 0) -> float:
    """log of the archimedean absolute value of x != 0 at one embedding."""
    if x.is_zero():
        raise ZeroDivisionError("log|0| requested")
    field = x.field
    if field.degree == 1:
        return math.log(abs(x.a.numerator)) - math.log(x.a.denominator)
    u, v = x.sqrtd_coords()
    A = u.numerator * v.denominator
    B = v.numerator * u.denominator
    W = u.denominator * v.denominator
    if field.D > 0:
        plus, minus = _log_embed_pair(A, B, field.D)
        return (plus if embedding_index == 0 else minus) - math.log(W)
    # complex embedding: |x| = sqrt(A^2 + |D| B^2) / W
    return 0.5 * math.log(A * A - field.D * B * B) - math.log(W)


def local_abs(x: NFElement, v: Place) -> float:
    """The normalized absolute value |x|_v; exact orders drive the finite case."""
    if v.field != x.field:
        raise ValueError("place and element fields differ")
    if v.kind == "archimedean":
        if x.is_zero():
            return 0.0
        return math.exp(log_abs_embedding(x, v.embedding_index))
    if x.is_zero():
        raise ZeroDivisionError("finite |0|_v requested")
    P = v.ideal
    o = ord_ideal(x, P)
    return float(P.p) ** (-Fraction(o, P.e))


# ---------------------------------------------------------------------------
# height breakdowns
# ---------------------------------------------------------------------------


@dataclass
class HeightBreakdown:
    contributions: list[tuple[Place, float]]
    total: float


def _arch_contributions(x: NFElement) -> list[tuple[Place, float]]:
    field = x.field
    out = []
    for pl in archimedean_places(field):
        la = log_abs_embedding(x, pl.embedding_index)
        out.append((pl, pl.local_degree / field.degree * max(la, 0.0)))
    return out


def height(x: NFElement, factors: FactorCache | None = None) -> HeightBreakdown:
    """Weil height breakdown of x; h(0) = 0 by the log+ convention.

    The finite part only sees primes dividing the coordinate denominators,
    so integral elements never trigger integer factorization.
    """
    field = x.field
    if x.is_zero():
        return HeightBreakdown([], 0.0)
    contributions = _arch_contributions(x)
    _, m = x.integral_parts()
    if m > 1:
        factors = factors if factors is not None else FactorCache()
        fac = factors.lookup_or_factor(m)
        for p in sorted(fac):
            for P in factor_rational_prime(field, p):
                o = ord_ideal(x, P)
                if o < 0:
                    contributions.append(
                        (finite_place(P), Fraction(P.f * -o, field.degree) * math.log(P.p))
                    )
    total = 0  # left to right: from Python 3.12 on, sum() of floats rounds differently
    for _, c in contributions:
        total += c
    return HeightBreakdown(contributions, float(total))


def height_value(x: NFElement, factors: FactorCache | None = None) -> float:
    return height(x, factors).total


def height_T(x: NFElement, places) -> float:
    """T-height: the height sum restricted to the given places.

    Only per-place exact orders are needed, so this stays cheap even when
    a full factorization of x would be out of reach.
    """
    if x.is_zero():
        return 0.0
    field = x.field
    total = 0.0
    for pl in places:
        if pl.kind == "archimedean":
            la = log_abs_embedding(x, pl.embedding_index)
            total += pl.local_degree / field.degree * max(la, 0.0)
        else:
            P = pl.ideal
            o = ord_ideal(x, P)
            if o < 0:
                total += float(Fraction(P.f * -o, field.degree)) * math.log(P.p)
    return total


def height_S_of_inverse(x: NFElement, S: SSet) -> float:
    """h_S(1/x) for x != 0: the S-part of the height of the reciprocal."""
    return height_T(x.inverse(), S.places())


def height_outside_S_of_inverse(
    x: NFElement, S: SSet, factors: FactorCache | None = None
) -> float:
    """h_{M \\ S}(1/x): finite places outside S only; needs x factored."""
    fac = factor_element_ideal(x, factors)
    field = x.field
    total = 0.0
    for P, e in fac.items():
        if e > 0 and not S.contains_ideal(P):
            total += float(Fraction(P.f * e, field.degree)) * math.log(P.p)
    return total


@dataclass
class SupportStats:
    sigma: list[PrimeIdealRec]
    lam: int


def support_lambda(x: NFElement, factors: FactorCache | None = None) -> SupportStats:
    """Support sigma (primes with positive order) and its largest norm.

    lambda = 1 when the support is empty (units and their ratios).
    """
    if x.is_zero():
        raise ZeroDivisionError("support of 0 requested")
    fac = factor_element_ideal(x, factors)
    pos = sorted(fac.positive_part(), key=lambda P: (P.norm, P.p, P.kind))
    lam = pos[-1].norm if pos else 1
    return SupportStats(pos, lam)


# ---------------------------------------------------------------------------
# one-step height bound and the canonical height
# ---------------------------------------------------------------------------


def _abs_embed(x: NFElement, idx: int) -> float:
    if x.is_zero():
        return 0.0
    return math.exp(log_abs_embedding(x, idx))


def one_step_bound(f: Polynomial) -> float:
    """A valid B with |h(f(x)) - deg(f) * h(x)| <= B for all x in the field.

    Simplicity over sharpness: the upper direction is the coefficient
    height plus log(deg + 1); the lower direction combines the dominance
    threshold at each archimedean place with the norm of the leading
    coefficient at the finite ones.
    """
    n = f.degree
    if n < 2:
        raise ValueError("one_step_bound needs deg f >= 2")
    if not f.is_integral():
        raise ValueError("one_step_bound expects integral coefficients")
    field = f.field
    d = field.degree
    up = 0.0
    low_arch = 0.0
    for pl in archimedean_places(field):
        idx = pl.embedding_index
        wt = pl.local_degree / d
        mags = [_abs_embed(c, idx) for c in f.coeffs]
        lead = mags[-1]
        up += wt * (math.log(n + 1) + math.log(max(max(mags), 1e-300)))
        c_ratio = max(mags[:-1]) / lead if n >= 1 else 0.0
        T = max(1.0, 2 * n * c_ratio, (2.0 / lead) ** (1.0 / n))
        low_arch += wt * max(n * math.log(T), math.log(2.0) - math.log(lead))
    nm_lead = abs(f.leading.norm())
    low = low_arch + n * math.log(float(nm_lead)) / d
    return max(up, low, 0.0)


@dataclass
class CanonicalHeightResult:
    value: float
    error_bound: float
    iterations_used: int
    one_step_B: float


def canonical_height(
    f: Polynomial,
    x,
    tol: float = 1e-9,
    bit_cap: int = 10**6,
) -> CanonicalHeightResult:
    """Dynamical canonical height by telescoping h(f^(k)(x)) / deg^k.

    Iterates until the certified error B/((deg-1) deg^k) drops below tol
    or the iterate bit size would pass bit_cap; in the latter case the
    achieved (larger) error is reported rather than raising.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = f.degree
    if n < 2:
        raise ValueError("canonical height needs deg f >= 2")
    B = one_step_bound(f)
    field = f.field
    if not isinstance(x, NFElement):
        x = field.element(x)
    y = x
    k = 0
    while B / ((n - 1) * n**k) > tol:
        nxt = f(y)
        if nxt.bit_size() > bit_cap:
            break
        y = nxt
        k += 1
    val = height_value(y) / n**k if not y.is_zero() else 0.0
    err = B / ((n - 1) * n**k)
    return CanonicalHeightResult(max(val, 0.0), err, k, B)


# ---------------------------------------------------------------------------
# unit approximation of archimedean absolute values
# ---------------------------------------------------------------------------


def approximate_by_unit(x: NFElement, n: int) -> NFElement:
    """A unit eps making |eps^n x|_v close to |Nm(x)|^(1/d) at archimedean v.

    At unit rank 0 the identity already balances the embeddings exactly and
    1 is returned.  At rank 1 the one-dimensional unit-lattice system is
    solved and the exponent split as t = n*y + z with z in [0, n); the
    deviation at each archimedean place is then below n * R, which is the
    A3-shaped bound for the supported fields.
    """
    if x.is_zero():
        raise ZeroDivisionError("cannot approximate 0 by a unit")
    if n < 1:
        raise ValueError("n must be a positive integer")
    field = x.field
    if field.unit_rank == 0:
        return field.one()
    nm = x.norm()
    log_nm = math.log(abs(nm.numerator)) - math.log(nm.denominator)
    v = log_abs_embedding(x, 0) - log_nm / field.degree
    reg = log_abs_embedding(field.fundamental_unit, 0)
    t = v / reg
    y = math.floor(t / n)
    return field.fundamental_unit ** (-y)


def unit_approximation_deviation(x: NFElement, eps: NFElement, n: int) -> float:
    """max over archimedean v of |log|eps^n x|_v - (1/d) log|Nm(x)||."""
    field = x.field
    nm = x.norm()
    log_nm = math.log(abs(nm.numerator)) - math.log(nm.denominator)
    worst = 0.0
    scaled = eps**n * x
    for pl in archimedean_places(field):
        dev = abs(
            log_abs_embedding(scaled, pl.embedding_index) - log_nm / field.degree
        )
        worst = max(worst, dev)
    return worst
