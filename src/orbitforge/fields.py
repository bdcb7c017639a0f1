"""Exact arithmetic in Q and quadratic fields Q(sqrt(D)).

A field is described by a FieldSpec; elements are NFElement values with
exact Fraction coordinates over the integral basis {1, w}, where
w = sqrt(D) for D = 2, 3 mod 4 and w = (1 + sqrt(D))/2 for D = 1 mod 4.
Only this module makes that choice; the others read FieldSpec's pair
(wsq_const, wsq_lin) = (c, l), w^2 = c + l*w, or call FieldSpec.from_sqrtd.
Fundamental units come from the continued fraction of sqrt(D) (with a
cube-root refinement for the half-integral case), class numbers from
counting reduced binary quadratic forms of the field discriminant.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .intfactor import factorize, iroot

DISC_CAP = 10**6


class FieldError(ValueError):
    pass


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(abs(n)).values())


class NFElement:
    """Element a + b*w of a FieldSpec, with exact rational coordinates."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: "FieldSpec", a, b=0):
        self.field = field
        # a coordinate that is already a Fraction is kept: re-wrapping it
        # goes through the numbers.Rational ABC check on every result
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)
        if field.degree == 1 and self.b:
            raise FieldError("rational field elements have no w-coordinate")

    # -- ring structure -------------------------------------------------

    def _coerce(self, other) -> "NFElement":
        if isinstance(other, NFElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldError("element belongs to a different field")
            return other
        if isinstance(other, (int, Fraction)):
            return NFElement(self.field, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.is_integral() and o.is_integral():
            return NFElement(
                self.field, self.a.numerator + o.a.numerator, self.b.numerator + o.b.numerator
            )
        return NFElement(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        f = self.field
        # integral operands multiply as ints; the constructor wraps each
        # int coordinate in one Fraction
        if self.is_integral() and o.is_integral():
            a, b, c, d = self.a.numerator, self.b.numerator, o.a.numerator, o.b.numerator
        else:
            a, b, c, d = self.a, self.b, o.a, o.b
        if f.degree == 1:
            return NFElement(f, a * c)
        # w^2 = wsq_const + wsq_lin * w
        bd = b * d
        return NFElement(f, a * c + bd * f.wsq_const, a * d + b * c + bd * f.wsq_lin)

    __rmul__ = __mul__

    def inverse(self) -> "NFElement":
        if self.is_zero():
            raise ZeroDivisionError("inversion of 0")
        if self.field.degree == 1:
            return NFElement(self.field, 1 / self.a)
        n = self.norm()
        c = self.conj()
        return NFElement(self.field, c.a / n, c.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- field-theoretic data -------------------------------------------

    def conj(self) -> "NFElement":
        """The nontrivial automorphism (identity on Q)."""
        f = self.field
        if f.degree == 1:
            return self
        if f.wsq_lin:  # w -> 1 - w
            return NFElement(f, self.a + self.b, -self.b)
        return NFElement(f, self.a, -self.b)

    def norm(self) -> Fraction:
        """Product over the embeddings; signed field norm."""
        f = self.field
        if f.degree == 1:
            return self.a
        a, b = self.a, self.b
        if f.wsq_lin:
            return a * a + a * b - b * b * f.wsq_const
        return a * a - f.D * b * b

    def trace(self) -> Fraction:
        f = self.field
        if f.degree == 1:
            return self.a
        return 2 * self.a + f.wsq_lin * self.b

    def sqrtd_coords(self) -> tuple[Fraction, Fraction]:
        """Coordinates (u, v) with self = u + v*sqrt(D); FieldSpec.from_sqrtd inverts it."""
        f = self.field
        if f.degree == 1:
            return self.a, Fraction(0)
        if f.wsq_lin:
            return self.a + self.b / 2, self.b / 2
        return self.a, self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def denominator_lcm(self) -> int:
        return self.a.denominator * self.b.denominator // math.gcd(
            self.a.denominator, self.b.denominator
        )

    def integral_parts(self) -> tuple["NFElement", int]:
        """Write self = y / m with y integral and m a positive integer."""
        m = self.denominator_lcm()
        if m == 1:
            return self, 1
        return NFElement(self.field, self.a * m, self.b * m), m

    def bit_size(self) -> int:
        """Largest bit length among the coordinate numerators and denominators."""
        return max(
            self.a.numerator.bit_length(),
            self.a.denominator.bit_length(),
            self.b.numerator.bit_length(),
            self.b.denominator.bit_length(),
        )

    # -- misc -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.a == other and self.b == 0
        if not isinstance(other, NFElement):
            return NotImplemented
        return self.field == other.field and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.field.kind, self.field.D, self.a, self.b))

    def __repr__(self):
        if self.field.degree == 1 or self.b == 0:
            return str(self.a)
        return f"({self.a}) + ({self.b})*w"

    def as_string(self) -> str:
        """Exact round-trippable coordinate string: 'a' or 'a,b'."""
        if self.field.degree == 1:
            return str(self.a)
        return f"{self.a},{self.b}"


class FieldSpec:
    """Q or a quadratic field Q(sqrt(D)), with its classical invariants.

    The integral basis {1, w} is decided here alone and published as the pair
    (wsq_const, wsq_lin) = (c, l), w^2 = c + l*w: (0, 0) over Q, ((D - 1)/4, 1)
    with w = (1 + sqrt(D))/2 for D = 1 mod 4, else (D, 0) with w = sqrt(D).
    from_sqrtd(u, v) is u + v*sqrt(D) in that basis.

    Instances are built by make_field and treated as immutable afterwards;
    cached splitting data is filled in lazily and is safe to share across
    concurrent readers once construction is done.
    """

    def __init__(self, kind: str, D: int | None):
        self.kind = kind
        self.D = D
        self.degree = 1 if kind == "rational" else 2
        self._splitting_cache: dict[int, tuple] = {}
        if kind == "rational":
            self.discriminant, self.wsq_const, self.wsq_lin = 1, 0, 0
        elif D % 4 == 1:  # w = (1 + sqrt(D))/2
            self.discriminant, self.wsq_const, self.wsq_lin = D, (D - 1) // 4, 1
        else:  # w = sqrt(D)
            self.discriminant, self.wsq_const, self.wsq_lin = 4 * D, D, 0
        # populated by make_field where they differ:
        self.unit_rank = 0
        self.fundamental_unit: NFElement | None = None
        self.torsion_order = 2
        self.class_number = 1
        self.regulator = 1.0  # the convention at unit rank 0
        self.delta = 0.0

    # -- constructors ----------------------------------------------------

    def element(self, a, b=0) -> NFElement:
        return NFElement(self, a, b)

    def zero(self) -> NFElement:
        return NFElement(self, 0)

    def one(self) -> NFElement:
        return NFElement(self, 1)

    def omega(self) -> NFElement:
        if self.degree == 1:
            raise FieldError("Q has no quadratic generator")
        return NFElement(self, 0, 1)

    def from_sqrtd(self, u, v) -> NFElement:
        """The element u + v*sqrt(D): the inverse of NFElement.sqrtd_coords."""
        return NFElement(self, u - self.wsq_lin * v, (1 + self.wsq_lin) * v)

    def from_string(self, s: str) -> NFElement:
        parts = [p.strip() for p in s.split(",")]
        if len(parts) == 1:
            return self.element(Fraction(parts[0]))
        if len(parts) == 2 and self.degree == 2:
            return self.element(Fraction(parts[0]), Fraction(parts[1]))
        raise FieldError(f"cannot parse element {s!r} for this field")

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self.kind == other.kind and self.D == other.D

    def __hash__(self):
        return hash((self.kind, self.D))

    def __repr__(self):
        if self.kind == "rational":
            return "Q"
        return f"Q(sqrt({self.D}))"


# ---------------------------------------------------------------------------
# fundamental units
# ---------------------------------------------------------------------------


def _pell_fundamental(D: int) -> tuple[int, int, int]:
    """Least (x, y), y >= 1, with x^2 - D*y^2 = +-1, via the CF of sqrt(D).

    Returns (x, y, norm).  D must be positive and not a square.
    """
    a0 = math.isqrt(D)
    m, dd, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while True:
        t = p * p - D * q * q
        if t == 1 or t == -1:
            return p, q, t
        m = dd * a - m
        dd = (D - m * m) // dd
        a = (a0 + m) // dd
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q


def _half_unit_refinement(D: int, X: int, Y: int, N: int):
    """For D = 1 mod 4: check whether X + Y*sqrt(D) is the cube of a
    half-integral unit (x + y*sqrt(D))/2; returns (x, y, norm) or None.

    A unit of the maximal order satisfies 2X = x^3 - 3*n*x where n is its
    norm, so x is pinned near the integer cube root of 2X.
    """
    t, _ = iroot(2 * X, 3)
    for x in range(max(1, t - 2), t + 3):
        n = N  # norm of the cube root has the same sign
        if x * x * x - 3 * n * x != 2 * X:
            continue
        y2num = x * x - 4 * n
        if y2num <= 0 or y2num % D:
            continue
        y2 = y2num // D
        y = math.isqrt(y2)
        if y * y != y2:
            continue
        if (x - y) % 2 != 0 or (x % 2 == 0 and y % 2 == 0):
            continue
        # verify exactly: ((x + y*sqrt(D))/2)^3 == X + Y*sqrt(D)
        xx = Fraction(x, 2)
        yy = Fraction(y, 2)
        a3 = xx**3 + 3 * xx * yy**2 * D
        b3 = 3 * xx**2 * yy + yy**3 * D
        if a3 == X and b3 == Y:
            return x, y, n
    return None


def _fundamental_unit(field: FieldSpec) -> tuple[NFElement, int, float]:
    """Fundamental unit > 1 of the maximal order, its norm, and the regulator."""
    D = field.D
    X, Y, N = _pell_fundamental(D)
    # eps = (t + y*sqrt(D))/2: the half-integral cube root of X + Y*sqrt(D)
    # when there is one, else X + Y*sqrt(D) itself
    half = _half_unit_refinement(D, X, Y, N) if field.wsq_lin else None
    t, y, norm = half or (2 * X, 2 * Y, N)
    eps = field.from_sqrtd(Fraction(t, 2), Fraction(y, 2))
    # regulator = log of the larger archimedean absolute value; eps > 1 and
    # |conj(eps)| = 1/eps, so eps = (t + sqrt(t^2 - 4*norm))/2.
    if t > 10**150:
        reg = math.log(t)  # correction term is below double precision
    else:
        reg = math.log((t + math.sqrt(float(t * t - 4 * norm))) / 2.0)
    return eps, norm, reg


# ---------------------------------------------------------------------------
# class numbers by reduced binary quadratic forms
# ---------------------------------------------------------------------------


def _class_number_imaginary(disc: int) -> int:
    """Count reduced positive-definite forms of discriminant disc < 0."""
    h = 0
    bmax = math.isqrt(-disc // 3)
    for b in range(abs(disc) % 2, bmax + 1, 2):
        m4 = b * b - disc
        if m4 % 4:
            continue
        m = m4 // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            h += 1
            if 0 < b < a < c:
                h += 1  # the (a, -b, c) twin
    return h


def _reduced_forms_real(disc: int) -> set[tuple[int, int, int]]:
    """All reduced primitive indefinite forms of discriminant disc > 0."""
    forms = set()
    for b in range(1, math.isqrt(disc) + 1):
        if (disc - b * b) % 4:
            continue
        m = (disc - b * b) // 4  # = -a*c > 0
        if m == 0:
            continue
        # reduced forms have |a| < sqrt(disc), so only small divisors matter
        for a0 in range(1, min(m, math.isqrt(disc) + 1) + 1):
            if m % a0:
                continue
            for a in (a0, -a0):
                c = -m // a
                # reduced: |sqrt(disc) - 2|a|| < b < sqrt(disc), exactly
                if b * b >= disc:
                    continue
                if (2 * abs(a) - b) > 0 and (2 * abs(a) - b) ** 2 >= disc:
                    continue
                if (b + 2 * abs(a)) ** 2 <= disc:
                    continue
                if math.gcd(math.gcd(a, b), c) != 1:
                    continue
                forms.add((a, b, c))
    return forms


def _rho_step(form: tuple[int, int, int], disc: int, rd: int):
    """Reduction operator on reduced indefinite forms."""
    _, b, c = form
    step = 2 * abs(c)
    r = rd - ((rd + b) % step)
    return (c, r, (r * r - disc) // (4 * c))


def _class_number_real(disc: int, unit_norm: int) -> int:
    forms = _reduced_forms_real(disc)
    rd = math.isqrt(disc)
    seen: set[tuple[int, int, int]] = set()
    cycles = 0
    for f0 in sorted(forms):
        if f0 in seen:
            continue
        cycles += 1
        g = f0
        for _ in range(len(forms) + 1):
            seen.add(g)
            g = _rho_step(g, disc, rd)
            if g == f0:
                break
        else:
            raise ArithmeticError(f"reduction cycle did not close at disc {disc}")
    if unit_norm == -1:
        return cycles
    assert cycles % 2 == 0, "narrow class number must be even when Nm(eps) = 1"
    return cycles // 2


# ---------------------------------------------------------------------------
# public constructor
# ---------------------------------------------------------------------------


def make_field(kind: str, D: int | None = None) -> FieldSpec:
    """Build a fully populated FieldSpec for Q or Q(sqrt(D)).

    D must be squarefree and different from 0, 1; fields whose
    |discriminant| exceeds DISC_CAP are rejected as too large.
    """
    if kind == "rational":
        f = FieldSpec("rational", None)
        f.delta = math.log(2)
        return f
    if kind != "quadratic":
        raise FieldError(f"unknown field kind {kind!r}")
    if D is None or D in (0, 1):
        raise FieldError("quadratic field needs squarefree D != 0, 1")
    f = FieldSpec("quadratic", D)
    # the cap first: below it, factoring D for the squarefree test is cheap
    if abs(f.discriminant) > DISC_CAP:
        raise FieldError(
            f"field too large: |discriminant| = {abs(f.discriminant)} > {DISC_CAP}"
        )
    if not _is_squarefree(D):
        raise FieldError(f"D = {D} is not squarefree")
    f.delta = math.log(2) / 2
    if D > 0:
        f.unit_rank = 1
        f.fundamental_unit, norm, f.regulator = _fundamental_unit(f)
        f.class_number = _class_number_real(f.discriminant, norm)
    else:
        f.torsion_order = 4 if D == -1 else 6 if D == -3 else 2
        f.class_number = _class_number_imaginary(f.discriminant)
    return f
