"""Polynomials over Q or a quadratic field, with exact evaluation.

Coefficients are NFElement values stored lowest-degree first.  The module
also resolves the degree of a splitting field where that is decidable
with the machinery at hand: full root-peeling plus square tests in the
base field, and the discriminant test for an irreducible cubic.  Each
polynomial computes its squarefree part and its root peel once, on first
use, and every later reader shares them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property

from .fields import FieldSpec, NFElement, make_field
from .intfactor import DEFAULT_RHO_BUDGET, factorize, is_prime


class Polynomial:
    def __init__(self, field: FieldSpec, coeffs):
        cs = [c if isinstance(c, NFElement) else field.element(c) for c in coeffs]
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs: tuple[NFElement, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        if len(self.coeffs) == 1 and self.coeffs[0].is_zero():
            return -1
        return len(self.coeffs) - 1

    @property
    def leading(self) -> NFElement:
        return self.coeffs[-1]

    def is_integral(self) -> bool:
        return all(c.is_integral() for c in self.coeffs)

    def __call__(self, x: NFElement) -> NFElement:
        if not isinstance(x, NFElement):
            x = self.field.element(x)
        out = self.field.zero()
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self) -> "Polynomial":
        return Polynomial(self.field, [c * i for i, c in enumerate(self.coeffs)][1:] or [0])

    def iterate_value(self, x, n: int) -> NFElement:
        """The n-th forward image of x; n = 0 returns x itself."""
        if not isinstance(x, NFElement):
            x = self.field.element(x)
        for _ in range(n):
            x = self(x)
        return x

    @cached_property
    def squarefree_part(self) -> "Polynomial":
        """f / gcd(f, f'), over Q when every coefficient is rational."""
        f = self
        if all(c.b == 0 for c in f.coeffs):
            f = Polynomial(_RATIONAL, [c.a for c in f.coeffs])
        return f if f.degree < 1 else _divmod_poly(f, poly_gcd(f, f.derivative()))[0]

    @cached_property
    def peeled(self) -> tuple[tuple[NFElement, ...], "Polynomial"]:
        """(roots in the base field, the cofactor left after dividing them out).

        The roots come with multiplicity.  Rational roots come first, ordered
        by |numerator|, then denominator, then sign; the two roots of a
        remaining quadratic factor that splits by the square test in the
        field follow.  A remaining factor of degree >= 3 is left alone.
        """
        field = self.field
        if self.degree < 1:
            return (), self
        roots: list[NFElement] = []
        g = self
        for q in sorted(_rational_roots(self),
                        key=lambda q: (abs(q.numerator), q.denominator, q < 0)):
            r = field.element(q)
            while g(r).is_zero():
                roots.append(r)
                g, _ = _divmod_poly(g, Polynomial(field, [-r, 1]))
        if g.degree == 2:
            c0, c1, c2 = g.coeffs
            y = square_root_in_field(field, c1 * c1 - 4 * c0 * c2)
            if y is not None:
                roots += [(-c1 + y) / (2 * c2), (-c1 - y) / (2 * c2)]
                g = Polynomial(field, [g.leading])
        return tuple(roots), g

    def distinct_root_count(self) -> int:
        """Number of distinct roots over an algebraic closure."""
        return max(self.squarefree_part.degree, 0)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                terms.append(f"{c!r}")
            elif i == 1:
                terms.append(f"({c!r})*x" if c != 1 else "x")
            else:
                terms.append(f"({c!r})*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(terms) if terms else "0"


def _divmod_poly(num: Polynomial, den: Polynomial):
    field = num.field
    q = [field.zero()] * max(num.degree - den.degree + 1, 1)
    r = list(num.coeffs)
    d = den.degree
    lead_inv = den.leading.inverse()
    while len(r) - 1 >= d and not r[-1].is_zero():  # r stays trimmed: zero is [0]
        k = len(r) - 1 - d
        t = r[-1] * lead_inv
        q[k] = t
        for i in range(d + 1):
            r[k + i] = r[k + i] - t * den.coeffs[i]
        while len(r) > 1 and r[-1].is_zero():
            r.pop()
    return Polynomial(field, q), Polynomial(field, r)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm over the field."""
    while b.degree >= 0:
        a, b = b, _divmod_poly(a, b)[1]
    if a.degree < 0:
        return a
    return Polynomial(a.field, [c * a.leading.inverse() for c in a.coeffs])


# ---------------------------------------------------------------------------
# roots in the base field / splitting degree
# ---------------------------------------------------------------------------

# squarefree parts and rational-root searches work over Q whatever the base field
_RATIONAL = make_field("rational")


def _rational_square_root(q: Fraction):
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def square_root_in_field(field: FieldSpec, delta: NFElement):
    """A y with y*y == delta, or None if delta is not a square in the field."""
    if field.degree == 1:
        r = _rational_square_root(delta.a)
        return None if r is None else field.element(r)
    alpha, beta = delta.sqrtd_coords()
    D = field.D
    if beta == 0:
        r = _rational_square_root(alpha)
        if r is not None:
            return field.element(r)
        r = _rational_square_root(alpha / D)
        if r is not None:
            return _from_sqrtd_coords(field, Fraction(0), r)
        return None
    # (u + v*sqrt(D))^2 = delta: u^2 + D v^2 = alpha, 2uv = beta
    g = _rational_square_root(alpha * alpha - beta * beta * D)
    if g is None:
        return None
    for sign in (1, -1):
        u2 = (alpha + sign * g) / 2
        u = _rational_square_root(u2)
        if u is None or u == 0:
            continue
        v = beta / (2 * u)
        cand = _from_sqrtd_coords(field, u, v)
        if (cand * cand) == delta:
            return cand
    return None


def _from_sqrtd_coords(field: FieldSpec, u: Fraction, v: Fraction) -> NFElement:
    if field._omega_half:
        return field.element(u - v, 2 * v)
    return field.element(u, v)


def _rational_roots(f: Polynomial) -> list[Fraction]:
    """The distinct rational roots of f (degree >= 1), by p-adic lifting.

    Loos's method (SIAM J. Comput. 12 (1983)): let g be the squarefree part
    of f with integer coefficients and leading coefficient a.  The monic
    G(y) = a^(d-1) g(y/a) has the integer roots y = a*x, each with
    |y| <= B = 1 + max|G_i|.  Modulo the first prime p > d at which every
    root of G is simple (only primes dividing disc(G) != 0 fail), each
    root is Newton-lifted past 2B, and its symmetric residue is tested
    exactly.  A coefficient outside Q gives no roots.
    """
    if any(c.b != 0 for c in f.coeffs):
        return []
    g = f.squarefree_part
    scale = math.lcm(*(c.a.denominator for c in g.coeffs))
    ints = [int(c.a * scale) for c in g.coeffs]
    d, a = len(ints) - 1, ints[-1]
    G = [c * a ** (d - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    dG = [i * c for i, c in enumerate(G)][1:]
    B = 1 + max(abs(c) for c in G)
    for p in filter(is_prime, itertools.count(d + 1)):
        Gp = [c % p for c in G]
        residues = [r for r in range(p) if _horner(Gp, r) % p == 0]
        if all(_horner(dG, r) % p for r in residues):
            break  # every root mod p is simple, so each lifts to one p-adic root
    out = []
    for y in residues:
        m = p
        while m <= 2 * B:
            m *= m
            y = (y - _horner(G, y) * pow(_horner(dG, y), -1, m)) % m
        if 2 * y > m:
            y -= m
        if _horner(G, y) == 0:  # exact: no modulus can accept a false root
            out.append(Fraction(y, a))
    return out


def _horner(coeffs: list[int], x: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def splitting_degree(f: Polynomial) -> int | None:
    """Degree of a splitting field of f over the base field, when decidable.

    Returns 1 when all roots lie in the base field, 2 for one leftover
    irreducible quadratic, 3 or 6 for a leftover irreducible cubic over Q
    (discriminant-square test), and None when undecidable here.
    """
    g = f.peeled[1]
    if g.degree <= 0:
        return 1
    if g.degree == 2:
        return 2
    if g.degree == 3:
        c0, c1, c2, c3 = g.coeffs
        disc = (
            18 * c3 * c2 * c1 * c0
            - 4 * c2**3 * c0
            + c2**2 * c1**2
            - 4 * c3 * c1**3
            - 27 * c3**2 * c0**2
        )
        if square_root_in_field(f.field, disc) is not None:
            return 3
        return 6
    return None


def splitting_field_disc(f: Polynomial, budget: int = DEFAULT_RHO_BUDGET) -> int | None:
    """For splitting degree 2 over Q: squarefree m with L = Q(sqrt(m)).

    Factoring the discriminant raises IncompleteFactorization past budget.
    """
    if f.field.degree != 1:
        return None
    g = f.peeled[1]
    if g.degree != 2:
        return None
    c0, c1, c2 = g.coeffs
    delta = (c1 * c1 - 4 * c0 * c2).a
    m = delta.numerator * delta.denominator
    sf = 1
    for p, e in factorize(abs(m), budget).items():
        if e % 2:
            sf *= p
    return sf if m > 0 else -sf
