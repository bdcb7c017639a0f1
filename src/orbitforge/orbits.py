"""Orbit iteration and the dynamical predicates over it.

Covers exact orbit records with a bit cap, periodicity tests backed by
canonical heights, S-integer-ratio and power-dependence witnesses with
closed-loop exact verification, primitive-divisor search, the S_k place
sets generated by the orbit of 0, and the constructive S-part witness
with its two proof inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .constants import A3
from .fields import FieldSpec, NFElement
from .ideals import (
    PrimeIdealRec,
    SSet,
    factor_element_ideal,
    factor_rational_prime,
    ord_ideal,
)
from .intfactor import (
    DEFAULT_RHO_BUDGET,
    multiplicative_dependence,
    small_primes,
    strip_primes,
)
from .heights import (
    approximate_by_unit,
    height_S_of_inverse,
    height_T,
    height_value,
    one_step_bound,
)
from .polynomials import Polynomial, splitting_degree

DEFAULT_BIT_CAP = 10**6
CYCLE_STEP_CAP = 64
# rows of the principal_generator box; one row costs a few microseconds
GENERATOR_ROW_CAP = 10**6


@dataclass
class OrbitRecord:
    alpha: NFElement
    iterates: list[NFElement]
    truncated: bool
    _norms_outside_S: dict[tuple, int] = dc_field(default_factory=dict)

    @property
    def length(self) -> int:
        return len(self.iterates) - 1

    def norm_outside_S(self, k: int, S: SSet) -> int:
        """_norm_outside_S of the k-th iterate, computed once per S."""
        key = (k, S.key())
        if key not in self._norms_outside_S:
            self._norms_outside_S[key] = _norm_outside_S(self.iterates[k], S)
        return self._norms_outside_S[key]


def iterate_orbit(
    f: Polynomial, alpha, m: int, bit_cap: int = DEFAULT_BIT_CAP
) -> OrbitRecord:
    """Exact iterates alpha, f(alpha), ..., up to m or the bit cap."""
    if m < 0:
        raise ValueError("m must be >= 0")
    field = f.field
    if not isinstance(alpha, NFElement):
        alpha = field.element(alpha)
    its = [alpha]
    truncated = False
    for _ in range(m):
        nxt = f(its[-1])
        if nxt.bit_size() > bit_cap:
            truncated = True
            break
        its.append(nxt)
    return OrbitRecord(alpha, its, truncated)


# ---------------------------------------------------------------------------
# periodicity
# ---------------------------------------------------------------------------


def _orbit_walk(f: Polynomial, start: NFElement, bit_cap: int) -> int | None:
    """The index where a repeat re-enters the orbit of start (finite orbit);
    -1 once h(x_k) > 2B/(deg-1) certifies a positive canonical height
    (infinite orbit); None at CYCLE_STEP_CAP or bit_cap.  The certificate needs
    integral f; B = one_step_bound is computed when it is first tried, and a
    non-integral f with no repeat within the caps raises ValueError."""
    n = f.degree
    if n < 2:
        raise ValueError("periodicity predicates need deg f >= 2")
    integral = f.is_integral()
    B = None
    seen: dict[NFElement, int] = {}
    x = start
    for k in range(CYCLE_STEP_CAP + 1):
        if k:
            x = f(x)
        if x.bit_size() > bit_cap:
            break
        if x in seen:
            return seen[x]
        seen[x] = k
        h = height_value(x) if integral else 0.0
        if h > 0:
            if B is None:
                B = one_step_bound(f)
            if h > 2 * B / (n - 1):
                return -1
    if not integral:
        raise ValueError("no repeat within the caps; the height certificate needs integral f")
    return None


def is_zero_periodic(f: Polynomial, bit_cap: int = DEFAULT_BIT_CAP) -> bool | None:
    """Whether 0 is a periodic point of f; None when undecided at the caps.

    A detected cycle answers exactly.  Without one, a positive canonical
    height of 0 (beyond twice its certified error) rules periodicity out.
    """
    entry = _orbit_walk(f, f.field.zero(), bit_cap)
    return None if entry is None else entry == 0


def is_preperiodic(f: Polynomial, alpha, bit_cap: int = DEFAULT_BIT_CAP) -> bool | None:
    """Whether alpha has a finite forward orbit; None when undecided."""
    if not isinstance(alpha, NFElement):
        alpha = f.field.element(alpha)
    entry = _orbit_walk(f, alpha, bit_cap)
    return None if entry is None else entry >= 0


# ---------------------------------------------------------------------------
# S-integrality and S-units without oversize factorizations
# ---------------------------------------------------------------------------


def is_s_integer(x: NFElement, S: SSet) -> bool:
    """|x|_v <= 1 at every place outside S, decided from exact orders.

    Denominator primes with no ideal in S refute membership outright, so
    no factorization of large cofactors is ever needed; exact orders are
    needed only above the primes of S that are not full (SSet.fullness).
    """
    if x.is_zero():
        return True
    _, m = x.integral_parts()
    if m > 1 and strip_primes(m, S.rational_primes())[0] > 1:
        return False
    for p in sorted({P.p for P in S.fullness()[1]}):
        for P in factor_rational_prime(x.field, p):
            if not S.contains_ideal(P) and ord_ideal(x, P) < 0:
                return False
    return True


def is_s_unit(x: NFElement, S: SSet) -> bool:
    """|x|_v = 1 at every place outside S."""
    if x.is_zero():
        return False
    return is_s_integer(x, S) and is_s_integer(x.inverse(), S)


# ---------------------------------------------------------------------------
# dependence witnesses
# ---------------------------------------------------------------------------


@dataclass
class DependenceWitness:
    kind: str  # "s_integer_ratio" | "power_relation"
    alpha: NFElement
    m: int
    n: int
    v: NFElement | None = None
    r: int | None = None
    s: int | None = None
    u: NFElement | None = None
    verified: bool = False

    def row(self) -> dict:
        return {
            "type": "witness",
            "kind": self.kind,
            "alpha": self.alpha.as_string(),
            "m": self.m,
            "n": self.n,
            "v": None if self.v is None else self.v.as_string(),
            "r": self.r,
            "s": self.s,
            "u": None if self.u is None else self.u.as_string(),
            "verified": self.verified,
        }


def _orbit_pair(orbit: OrbitRecord, m: int, n: int) -> tuple[NFElement, NFElement]:
    if m > orbit.length:
        raise ValueError(f"iterate {m} is past the orbit record (length {orbit.length})")
    return orbit.iterates[m], orbit.iterates[n]


def check_s_integer_ratio(
    orbit: OrbitRecord, m: int, n: int, S: SSet
) -> DependenceWitness | None:
    """Witness for f^(n)(alpha) = v * f^(m)(alpha) with v an S-integer."""
    if not (m > n >= 0):
        raise ValueError("need m > n >= 0")
    xm, xn = _orbit_pair(orbit, m, n)
    if xm.is_zero():
        raise ZeroDivisionError("f^(m)(alpha) = 0: the ratio is undefined")
    v = xn / xm
    if not is_s_integer(v, S):
        return None
    verified = (v * xm) == xn
    return DependenceWitness(
        "s_integer_ratio", orbit.alpha, m, n, v=v, verified=verified
    )


def _norm_outside_S(x: NFElement, S: SSet) -> int:
    """|Nm x| / prod_{P in S} Nm(P)^ord_P(x): the norm of the part of [x]
    away from S.  The ideals above a full prime p of S together take
    p^v_p(Nm x), so one strip removes every full prime; exact orders are
    taken only at the lone ideals of S."""
    if not x.is_integral():
        raise ValueError(
            "dependence checks need integral iterates: alpha must lie in the "
            "ring of integers"
        )
    full, lone = S.fullness()
    out = abs(x.norm().numerator)
    if full:
        out, _ = strip_primes(out, full)
    for P in lone:
        out //= P.norm ** ord_ideal(x, P)
    return out


def check_power_dependence(
    orbit: OrbitRecord, m: int, n: int, S: SSet
) -> DependenceWitness | None:
    """Witness (r, s, u) for (f^(m)(alpha))^r = u (f^(n)(alpha))^s, u an S-unit.

    The order vectors of the two integral iterates away from S must be
    proportional.  If they are, with coprime (r, s), then the norms away
    from S satisfy N_out(x_m)^r = N_out(x_n)^s, so the norms give the only
    candidate (r, s) without factoring either iterate; the S-unit test on
    u = x_m^r / x_n^s rejects the candidates whose vectors are not
    proportional.  Raises ValueError for a non-integral iterate.
    """
    if not (m > n >= 1):
        raise ValueError("need m > n >= 1")
    xm, xn = _orbit_pair(orbit, m, n)
    if xm.is_zero() or xn.is_zero():
        raise ZeroDivisionError("power dependence needs both iterates nonzero")
    X, Y = orbit.norm_outside_S(m, S), orbit.norm_outside_S(n, S)
    if X == 1:
        rs = (1, 0)
    elif Y == 1:
        rs = (0, 1)
    else:
        rs = multiplicative_dependence(X, Y)
    if rs is None:
        return None
    r, s = rs
    u = (xm**r) / (xn**s)
    if not is_s_unit(u, S):
        return None
    verified = (xm**r) == (u * xn**s)
    return DependenceWitness(
        "power_relation", orbit.alpha, m, n, r=r, s=s, u=u, verified=verified
    )


# ---------------------------------------------------------------------------
# primitive divisors
# ---------------------------------------------------------------------------


@dataclass
class ZsigmondyResult:
    m: int
    window_k: int
    primitive_prime: PrimeIdealRec | None
    excluded_indices: list[int]


def find_primitive_divisor(
    f: Polynomial, alpha, m: int, k: int,
    budget: int = DEFAULT_RHO_BUDGET, cache=None, bit_cap: int = DEFAULT_BIT_CAP,
) -> ZsigmondyResult:
    """Smallest-norm prime of f^(m)(alpha) absent from the k earlier iterates.

    A prime P of f^(m)(alpha) is primitive when ord_P(x_j) <= 0 for every
    iterate x_j of the window (a non-integral alpha has iterates of
    negative order), an exact test that factors nothing.  The primes of
    norm <= 9,973 come first, by trial division of the norm: every other
    prime lies above a rational prime past the trial bound, so its norm is
    larger.  f^(m)(alpha) is factored only when none of them answers (and
    always when the window holds a zero), so such answers add no cache
    record.  Raises IncompleteFactorization when that factorization
    exceeds the factor budget; the caller decides whether that is a skip.
    Raises ValueError when an iterate up to m passes bit_cap.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    orbit = iterate_orbit(f, alpha, m, bit_cap)
    if orbit.truncated:
        raise ValueError(f"orbit truncated below m = {m} by the bit cap of {bit_cap} bits")
    xm = orbit.iterates[m]
    if xm.is_zero() or (xm.is_integral() and abs(xm.norm()) == 1):
        raise ValueError("f^(m)(alpha) is a unit or zero: no divisor to find")
    window = list(range(max(0, m - k), m))
    earlier = [orbit.iterates[j] for j in window]
    if any(x.is_zero() for x in earlier):
        factor_element_ideal(xm, budget, cache)
        return ZsigmondyResult(m, k, None, window)
    trial = small_primes()
    nm = abs(xm.integral_parts()[0].norm().numerator)
    below = [
        P for p in trial if nm % p == 0
        for P in factor_rational_prime(xm.field, p) if ord_ideal(xm, P) > 0
    ]
    primitive = _first_primitive(below, earlier, trial[-1])
    if primitive is None:
        fac_m = factor_element_ideal(xm, budget, cache)
        primitive = _first_primitive(fac_m.positive_part(), earlier, math.inf)
    return ZsigmondyResult(m, k, primitive, window)


def _first_primitive(ideals, earlier, norm_cap) -> PrimeIdealRec | None:
    """First of ideals in (norm, p, kind) order, up to norm_cap, that has
    order <= 0 at every iterate of earlier."""
    for P in sorted(ideals, key=lambda P: (P.norm, P.p, P.kind)):
        if P.norm > norm_cap:
            break
        if all(ord_ideal(x, P) <= 0 for x in earlier):
            return P
    return None


def build_Sk(
    f: Polynomial, k: int, budget: int = DEFAULT_RHO_BUDGET, cache=None,
    bit_cap: int = DEFAULT_BIT_CAP,
) -> SSet:
    """S_k: archimedean places plus every prime dividing f^(j)(0), j <= k.

    0 must be certified non-periodic, so no f^(j)(0) is 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    zp = is_zero_periodic(f, bit_cap=bit_cap)
    if zp is None:
        raise ValueError(f"0-periodicity unknown within the bit cap of {bit_cap} bits")
    if zp:
        raise ValueError("0 is periodic: S_k is not defined")
    orbit = iterate_orbit(f, 0, k, bit_cap)
    if orbit.truncated:
        raise ValueError(f"orbit of 0 truncated below k = {k} by the bit cap of {bit_cap} bits")
    ideals = []
    for x in orbit.iterates[1:]:
        ideals.extend(factor_element_ideal(x, budget, cache).positive_part())
    return SSet(f.field, ideals)


# ---------------------------------------------------------------------------
# the divisibility-transfer check behind the ratio witnesses
# ---------------------------------------------------------------------------


def divisibility_transfer_holds(
    f: Polynomial, witness: DependenceWitness, S: SSet, bit_cap: int = DEFAULT_BIT_CAP
) -> bool:
    """Whether the S-free part of [f^(m)(alpha)] divides f^(m-n)(0), exactly.

    For integral f^(m)(alpha) that is the case exactly when
    f^(m-n)(0) / f^(m)(alpha) is an S-integer, so nothing is factored.
    Raises ValueError when either orbit passes bit_cap.  The dependence
    scan applies the norm form of this lemma, N_out(f^(m)(alpha)) dividing
    |Nm f^(m-n)(0)|, as a prefilter (search._scan_alpha).
    """
    if witness.kind != "s_integer_ratio":
        raise ValueError("transfer check applies to ratio witnesses")
    k = witness.m - witness.n
    zero_orbit = iterate_orbit(f, 0, k, bit_cap)
    if zero_orbit.truncated:
        raise ValueError(
            f"orbit of 0 truncated below m - n = {k} by the bit cap of {bit_cap} bits"
        )
    fk0 = zero_orbit.iterates[k]
    if fk0.is_zero():
        return True
    orbit = iterate_orbit(f, witness.alpha, witness.m, bit_cap)
    if orbit.truncated:
        raise ValueError(
            f"orbit truncated below m = {witness.m} by the bit cap of {bit_cap} bits"
        )
    xm = orbit.iterates[witness.m]
    if not xm.is_integral():
        raise ValueError("the transfer check needs an integral f^(m)(alpha)")
    return is_s_integer(fk0 / xm, S)


# ---------------------------------------------------------------------------
# generators of ideal powers and the S-part proof witness
# ---------------------------------------------------------------------------


class GeneratorSearchError(ArithmeticError):
    pass


def principal_generator(P: PrimeIdealRec, power: int) -> NFElement:
    """Deterministic generator of P**power (which must be principal).

    Enumerates short lattice elements of the right norm and order; raises
    GeneratorSearchError rather than guessing when the search box is
    exhausted, or before scanning it when it has more than
    GENERATOR_ROW_CAP rows.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    field = P.field
    if field.degree == 1:
        return field.element(P.p**power)
    if P.kind == "inert":
        return field.element(P.p**power)
    if P.kind == "ramified" and power % 2 == 0:
        return field.element(P.p ** (power // 2))
    target = P.norm**power
    D = field.D
    reg = field.regulator if field.unit_rank else 0.0
    # the row count 2*sqrt(target * e^reg / |D|), in logs: e^reg can overflow
    log_rows = 0.5 * (power * math.log(P.norm) + reg - math.log(abs(D))) + math.log(2)
    if log_rows > math.log(GENERATOR_ROW_CAP):
        raise GeneratorSearchError(
            f"the generator search for {P!r}^{power} needs ~10^{log_rows / math.log(10):.1f}"
            f" rows, over GENERATOR_ROW_CAP = {GENERATOR_ROW_CAP}"
        )
    bound = int(2 * math.sqrt(target * math.exp(reg) / abs(D))) + 2
    candidates = []
    for b in range(0, bound + 1):
        for a in _norm_equation_solutions(field, b, target):
            for x in ((a, b), (-a, -b)) if (a, b) != (0, 0) else ((a, b),):
                el = field.element(x[0], x[1])
                if el.is_zero():
                    continue
                if abs(el.norm()) == target and ord_ideal(el, P) >= power:
                    candidates.append(el)
        if candidates:
            break  # the smallest-b layer already contains a generator
    if not candidates:
        raise GeneratorSearchError(
            f"no generator of {P!r}^{power} within the search bound {bound}"
        )
    candidates.sort(key=lambda e: (abs(e.a), e.a < 0, abs(e.b), e.b < 0))
    return candidates[0]


def _norm_equation_solutions(field: FieldSpec, b: int, target: int):
    """All integers a with |Nm(a + b*w)| = target, for fixed b."""
    out = set()
    D = field.D
    for t in (target, -target):
        if field._omega_half:
            # (2a + b)^2 - D b^2 = 4 t
            disc = D * b * b + 4 * t
            if disc < 0:
                continue
            r = math.isqrt(disc)
            if r * r != disc:
                continue
            for sgn in (r, -r):
                num = sgn - b
                if num % 2 == 0:
                    out.add(num // 2)
        else:
            # a^2 = D b^2 + t
            val = D * b * b + t
            if val < 0:
                continue
            r = math.isqrt(val)
            if r * r == val:
                out.add(r)
                out.add(-r)
    return sorted(out)


@dataclass
class SPartWitness:
    b: NFElement
    s_ideals: list[PrimeIdealRec]
    exponents: list[int]
    quotients: list[int]
    remainders: list[int]
    generators: list[NFElement]
    c: NFElement
    eps: NFElement
    slack_lower: float
    slack_upper: float

    def row(self) -> dict:
        return {
            "type": "spart_witness",
            "b": self.b.as_string(),
            "exponents": list(self.exponents),
            "quotients": list(self.quotients),
            "remainders": list(self.remainders),
            "generators": [g.as_string() for g in self.generators],
            "c": self.c.as_string(),
            "eps": self.eps.as_string(),
            "slack_lower": self.slack_lower,
            "slack_upper": self.slack_upper,
        }


def spart_witness_from_value(b: NFElement, deg_f: int, S: SSet) -> SPartWitness:
    """Constructive witness for the S-part height gap of the value b.

    Decomposes the orders of b at the finite places of S as
    b_i = deg_f * h * q_i + r_i, divides out generators of the q_i-th
    ideal-power blocks, balances the cofactor by a unit, and records the
    two height inequalities of the construction with their slack.  Both
    slacks are required to be nonnegative.

    Nothing is factored, so no factor budget applies and
    IncompleteFactorization cannot arise.  The orders come from exact
    ord_ideal tests at the ideals of S.  For integral b the product formula
    gives h_{M \\ S}(1/b) = log N_out(b) / d from the norm
    (_norm_outside_S).  eps / qdenom has negative orders only at ideals of
    S, so its height is its T-height over the places of S.
    """
    if b.is_zero():
        raise ZeroDivisionError("witness needs a nonzero value")
    if not b.is_integral():
        raise ValueError("witness needs an integral value")
    if deg_f < 2:
        raise ValueError("witness needs deg f >= 2")
    field = b.field
    h = field.class_number
    d = field.degree
    ideals = list(S.ideals)
    exps = [ord_ideal(b, P) for P in ideals]
    block = deg_f * h
    qs = [e // block for e in exps]
    rs = [e % block for e in exps]
    gens = [principal_generator(P, h) for P in ideals]
    denom = field.one()
    qdenom = field.one()
    for g, q in zip(gens, qs):
        denom = denom * g ** (deg_f * q)
        qdenom = qdenom * g**q
    c = b / denom
    if not c.is_integral():
        raise ArithmeticError("cofactor c escaped the ring: generator orders wrong")
    for P, r in zip(ideals, rs):
        if ord_ideal(c, P) != r:
            raise ArithmeticError("cofactor ideal does not match the remainders")
    eps = approximate_by_unit(c, deg_f)

    if field.unit_rank >= 1:
        a3_term = 0.5 * A3(field) * d * d * field.regulator
    else:
        a3_term = 0.0
    q_norm = S.Q
    log_q = math.log(q_norm) if q_norm > 1 else 0.0

    h_s_binv = height_S_of_inverse(b, S)
    lhs_lower = height_T(eps / qdenom, S.places())
    rhs_lower = h_s_binv / deg_f - h * log_q - a3_term
    slack_lower = lhs_lower - rhs_lower

    h_out_binv = math.log(_norm_outside_S(b, S)) / d
    lhs_upper = height_value(eps**deg_f * c)
    rhs_upper = h_out_binv + deg_f * h / d * log_q + deg_f * a3_term
    slack_upper = rhs_upper - lhs_upper

    if slack_lower < -1e-9 or slack_upper < -1e-9:
        raise ArithmeticError(
            f"witness inequality violated: slacks {slack_lower}, {slack_upper}"
        )
    return SPartWitness(
        b, ideals, exps, qs, rs, gens, c, eps, slack_lower, slack_upper
    )


def spart_witness(f: Polynomial, alpha, S: SSet) -> SPartWitness:
    """The witness built at b = f(alpha); f must split over the base field."""
    field = f.field
    if not isinstance(alpha, NFElement):
        alpha = field.element(alpha)
    if not alpha.is_integral():
        raise ValueError("alpha must be integral")
    if splitting_degree(f) != 1:
        raise ValueError("witness construction needs f split over the base field")
    b = f(alpha)
    if b.is_zero():
        raise ZeroDivisionError("f(alpha) = 0")
    return spart_witness_from_value(b, f.degree, S)
