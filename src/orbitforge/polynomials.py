"""Polynomials over Q or a quadratic field, with exact evaluation.

Coefficients are NFElement values stored lowest-degree first.  The module
also resolves the degree of a splitting field where that is decidable
with the machinery at hand: full root-peeling plus square tests in the
base field, and the discriminant test for an irreducible cubic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import FieldSpec, NFElement


class Polynomial:
    def __init__(self, field: FieldSpec, coeffs):
        cs = []
        for c in coeffs:
            if isinstance(c, NFElement):
                cs.append(c)
            else:
                cs.append(field.element(c))
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
        if self.degree < 1:
            return Polynomial(self.field, [0])
        return Polynomial(
            self.field, [self.coeffs[i] * i for i in range(1, len(self.coeffs))]
        )

    def iterate_value(self, x, n: int) -> NFElement:
        """The n-th forward image of x; n = 0 returns x itself."""
        if not isinstance(x, NFElement):
            x = self.field.element(x)
        for _ in range(n):
            x = self(x)
        return x

    def distinct_root_count(self) -> int:
        """Number of distinct roots over an algebraic closure."""
        if self.degree < 1:
            return 0
        g = poly_gcd(self, self.derivative())
        return self.degree - g.degree

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
    while len(r) - 1 >= d and not all(c.is_zero() for c in r):
        k = len(r) - 1 - d
        t = r[-1] * lead_inv
        q[k] = t
        for i in range(d + 1):
            r[k + i] = r[k + i] - t * den.coeffs[i]
        while len(r) > 1 and r[-1].is_zero():
            r.pop()
        if len(r) - 1 < d:
            break
    return Polynomial(field, q), Polynomial(field, r)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm over the field."""
    while b.degree >= 0 and not all(c.is_zero() for c in b.coeffs):
        _, r = _divmod_poly(a, b)
        a, b = b, r
        if b.degree < 0 or all(c.is_zero() for c in b.coeffs):
            break
    if a.degree < 0:
        return a
    return Polynomial(a.field, [c * a.leading.inverse() for c in a.coeffs])


# ---------------------------------------------------------------------------
# roots in the base field / splitting degree
# ---------------------------------------------------------------------------


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
            return _times_sqrtd(field, r)
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


def _times_sqrtd(field: FieldSpec, r: Fraction) -> NFElement:
    return _from_sqrtd_coords(field, Fraction(0), r)


def roots_in_field(f: Polynomial) -> list[NFElement]:
    """All roots of f lying in the base field, peeled greedily.

    Rational roots come from the rational root theorem after clearing
    denominators; a remaining quadratic factor is solved by the square
    test in the field.  A remaining factor of degree >= 3 is left alone.
    """
    field = f.field
    roots: list[NFElement] = []
    g = f
    # peel rational roots
    changed = True
    while changed and g.degree >= 1:
        changed = False
        for r in _rational_root_candidates(g):
            val = g(field.element(r))
            if val.is_zero():
                roots.append(field.element(r))
                g, _ = _divmod_poly(g, Polynomial(field, [-r, 1]))
                changed = True
                break
    if g.degree == 2:
        c0, c1, c2 = g.coeffs
        delta = c1 * c1 - 4 * c0 * c2
        y = square_root_in_field(field, delta)
        if y is not None:
            for sign in (1, -1):
                roots.append((-c1 + (y if sign == 1 else -y)) / (2 * c2))
            g = Polynomial(field, [g.leading])
    return roots


def _rational_root_candidates(g: Polynomial):
    """Rational candidates p/q from the scaled integer coefficients."""
    scale = 1
    for c in g.coeffs:
        if c.b != 0:
            return  # irrational coefficients: no rational-root theorem
        scale = scale * c.a.denominator // math.gcd(scale, c.a.denominator)
    ints = [int(c.a * scale) for c in g.coeffs]
    lead = ints[-1]
    # strip trailing zero constant terms: 0 is then a root
    if ints[0] == 0:
        yield Fraction(0)
        return
    const = abs(ints[0])
    for dp in _divisors(const):
        for dq in _divisors(abs(lead)):
            yield Fraction(dp, dq)
            yield Fraction(-dp, dq)


def _divisors(n: int):
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return sorted(out)


def splitting_degree(f: Polynomial) -> int | None:
    """Degree of a splitting field of f over the base field, when decidable.

    Returns 1 when all roots lie in the base field, 2 for one leftover
    irreducible quadratic, 3 or 6 for a leftover irreducible cubic over Q
    (discriminant-square test), and None when undecidable here.
    """
    field = f.field
    g = f
    for r in roots_in_field(f):
        while True:
            q, rem = _divmod_poly(g, Polynomial(field, [-r, 1]))
            if rem.degree <= 0 and rem.coeffs[0].is_zero():
                g = q
            else:
                break
    if g.degree <= 0:
        return 1
    if g.degree == 2:
        c0, c1, c2 = g.coeffs
        delta = c1 * c1 - 4 * c0 * c2
        if square_root_in_field(field, delta) is not None:
            return 1  # should have been peeled; defensive
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
        if square_root_in_field(field, disc) is not None:
            return 3
        return 6
    return None


def splitting_field_disc(f: Polynomial) -> int | None:
    """For splitting degree 2 over Q: squarefree m with L = Q(sqrt(m))."""
    if f.field.degree != 1 or splitting_degree(f) != 2:
        return None
    g = f
    for r in roots_in_field(f):
        while True:
            q, rem = _divmod_poly(g, Polynomial(f.field, [-r, 1]))
            if rem.degree <= 0 and rem.coeffs[0].is_zero():
                g = q
            else:
                break
    if g.degree != 2:
        return None
    c0, c1, c2 = g.coeffs
    delta = (c1 * c1 - 4 * c0 * c2).a
    m = delta.numerator * delta.denominator
    sf = 1
    from .intfactor import factorize

    for p, e in factorize(abs(m)).items():
        if e % 2:
            sf *= p
    return sf if m > 0 else -sf
