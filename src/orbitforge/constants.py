"""Evaluation of the explicit constants and bound shapes.

Everything here is a direct formula evaluation in double precision.  The
c-coefficients are configuration parameters defaulting to 1.0: reports
produced from these evaluators are bound *shapes* parameterized by c,
never claims about the true effective constants.

One substitution is made deliberately: products of log(norm) over the
finite places use log* = max(log, 1) instead of log, since a norm-2 ideal
would otherwise shrink the product below 1 non-monotonically.  Reports
carry a flag whenever the substitution changed anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, asdict

from .fields import FieldSpec, make_field
from .ideals import SSet, factor_rational_prime
from .intfactor import DEFAULT_RHO_BUDGET
from .polynomials import Polynomial, splitting_degree, splitting_field_disc


def log_star(x: float) -> float:
    """max(log x, 1), with log* 0 = 1."""
    if x < 0:
        raise ValueError("log* needs x >= 0")
    if x == 0:
        return 1.0
    return max(math.log(x), 1.0)


# ---------------------------------------------------------------------------
# the fully explicit constants
# ---------------------------------------------------------------------------


def A1(u: float, v: float) -> float:
    """v^(2v + 3.5) * 2^(7v) * log(2v) * u^(2v); overflow to inf is allowed."""
    if u < 1 or v < 1:
        raise ValueError("A1 needs u, v >= 1")
    try:
        return v ** (2 * v + 3.5) * 2.0 ** (7 * v) * math.log(2 * v) * u ** (2 * v)
    except OverflowError:
        return math.inf


def A2(u: float, v: float) -> float:
    """(2048 u)^v * v^3.5; overflow to inf is allowed."""
    if u < 1 or v < 1:
        raise ValueError("A2 needs u, v >= 1")
    try:
        return (2048.0 * u) ** v * v**3.5
    except OverflowError:
        return math.inf


def voutier_delta(d: int) -> float:
    """Lower-bound constant for heights of non-torsion algebraic numbers."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d <= 2:
        return math.log(2) / d
    return 0.25 * (math.log(math.log(d)) / math.log(d)) ** 3


def A3(field: FieldSpec) -> float:
    """(r!)^2 / (2^(r-1) d^r) * (delta/d)^(1-r) for unit rank r >= 1."""
    r = field.unit_rank
    if r < 1:
        raise ValueError("A3 undefined at unit rank 0")
    d = field.degree
    return (
        math.factorial(r) ** 2
        / (2.0 ** (r - 1) * d**r)
        * (field.delta / d) ** (1 - r)
    )


# ---------------------------------------------------------------------------
# configuration containers
# ---------------------------------------------------------------------------


@dataclass
class CParams:
    """The effectively-computable-but-unprinted coefficients, as knobs."""

    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    c4: float = 1.0
    c5: float = 1.0
    c6: float = 1.0
    c7: float = 1.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SplittingData:
    """Degree and class number of a splitting field."""

    degree_D: int
    class_number_L: int | None


class SplittingDataError(ValueError):
    pass


def resolve_splitting(f: Polynomial, budget: int = DEFAULT_RHO_BUDGET) -> SplittingData:
    """Determine splitting-field parameters, computing them when decidable.

    D comes from root analysis (and the cubic discriminant test over Q);
    the class number is computed when the splitting field is the base
    field or a quadratic field over Q, and is None otherwise (configured
    splitting data, loaded by the config, is the only other source).
    Factoring the discriminant of a quadratic splitting field is bounded
    by budget (IncompleteFactorization past it).
    """
    D = splitting_degree(f)
    if D is None:
        raise SplittingDataError(
            "splitting degree undecidable here: set splitting_degree in the config"
        )
    if D == 1:
        return SplittingData(1, f.field.class_number)
    if D == 2 and f.field.degree == 1:
        m = splitting_field_disc(f, budget)
        if m is not None:
            return SplittingData(2, make_field("quadratic", m).class_number)
    return SplittingData(D, None)


def _require_three_roots(f: Polynomial):
    if f.distinct_root_count() < 3:
        raise ValueError("the bound requires at least 3 distinct roots")


def _log_star_norm_product(S: SSet, D: int) -> tuple[float, bool]:
    prod = 1.0
    substituted = False
    for P in S.ideals:
        ln = math.log(P.norm)
        if ln < 1.0:
            substituted = True
        prod *= log_star(P.norm) ** D
    return prod, substituted


# ---------------------------------------------------------------------------
# the eta quantities and the bound shapes built from them
# ---------------------------------------------------------------------------


def eta1_inverse(
    f: Polynomial,
    S: SSet,
    c_params: CParams | None = None,
    splitting: SplittingData | None = None,
) -> float:
    """Reciprocal of the S-part gap factor, first shape."""
    _require_three_roots(f)
    c = c_params or CParams()
    sp = splitting or resolve_splitting(f)
    D = sp.degree_D
    prod, _ = _log_star_norm_product(S, D)
    return (
        c.c1
        * A1(f.field.degree * D, S.s * D)
        * max(1, S.t)
        * float(S.P) ** D
        * (log_star(S.P) + S.T_sum)
        * prod
    )


def eta2_inverse(
    f: Polynomial,
    S: SSet,
    c_params: CParams | None = None,
    splitting: SplittingData | None = None,
) -> float:
    """Reciprocal of the S-part gap factor, t > 0 shape (no v^v growth in t)."""
    _require_three_roots(f)
    if S.t == 0:
        raise ValueError("eta2 needs at least one finite place in S")
    c = c_params or CParams()
    sp = splitting or resolve_splitting(f)
    if sp.class_number_L is None:
        raise SplittingDataError(
            "class number of the splitting field required: set class_number_L"
        )
    D = sp.degree_D
    prod, _ = _log_star_norm_product(S, D)
    return (
        c.c1
        * A2(f.field.degree * D * sp.class_number_L, S.t * D)
        * S.t
        * float(S.P) ** D
        * prod
    )


def gyory_yu_height_bound(
    variant: int,
    field: FieldSpec,
    S: SSet,
    h_beta: float,
) -> float:
    """Height bound shape for solutions of decomposable-form equations.

    Pure formula evaluation; no equation is being solved.  Variant 1 uses
    the A1 growth in s, variant 2 (t > 0 only) the A2 growth in t with
    the class number folded in.
    """
    if h_beta < 0:
        raise ValueError("h_beta must be >= 0")
    prod, _ = _log_star_norm_product(S, 1)
    if variant == 1:
        return (
            A1(field.degree, S.s)
            * (log_star(S.Q) + h_beta)
            * S.P
            * (1.0 + S.T_sum / log_star(S.P))
            * prod
        )
    if variant == 2:
        if S.t == 0:
            raise ValueError("variant 2 needs at least one finite place")
        return (
            A2(field.degree * field.class_number, S.t)
            * (log_star(S.Q) + h_beta)
            * (S.P / log_star(S.P))
            * prod
        )
    raise ValueError("variant must be 1 or 2")


@dataclass
class EffectiveBoundReport:
    """Reproducible record of the eta shapes and the height-bound shapes."""

    eta1_inv: float
    eta2_inv: float | None
    northcott_bound_h: float
    northcott_bound_h2: float | None
    log_star_substituted: bool
    inputs: dict = dc_field(default_factory=dict)

    def rows(self) -> list[dict]:
        out = {
            "type": "effective_bounds",
            "eta1_inv": self.eta1_inv,
            "eta2_inv": self.eta2_inv,
            "northcott_bound_h": self.northcott_bound_h,
            "northcott_bound_h2": self.northcott_bound_h2,
            "log_star_substituted": self.log_star_substituted,
        }
        out.update({f"input_{k}": v for k, v in sorted(self.inputs.items())})
        return [out]


def northcott_bound(
    f: Polynomial,
    S: SSet,
    c_params: CParams | None = None,
    splitting: SplittingData | None = None,
    zero_periodic: bool | None = False,
) -> EffectiveBoundReport:
    """c2-scaled eta reciprocals: the height-bound shape for dependent orbits.

    Refuses to run when 0 is periodic or when periodicity is unknown
    (tri-state None), since the underlying statement assumes it.
    """
    if zero_periodic is None:
        raise ValueError("0-periodicity unknown: resolve it before bounding")
    if zero_periodic:
        raise ValueError("bound requires a polynomial for which 0 is not periodic")
    _require_three_roots(f)
    c = c_params or CParams()
    sp = splitting or resolve_splitting(f)
    e1 = eta1_inverse(f, S, c, sp)
    _, substituted = _log_star_norm_product(S, sp.degree_D)
    e2 = None
    b2 = None
    if S.t > 0 and sp.class_number_L is not None:
        e2 = eta2_inverse(f, S, c, sp)
        b2 = c.c2 * e2
    inputs = {
        "field": repr(f.field),
        "poly": repr(f),
        "S": ",".join(S.ideal_selectors()),
        "c_params": c.as_dict(),
        "splitting_degree": sp.degree_D,
        "class_number_L": sp.class_number_L,
    }
    return EffectiveBoundReport(e1, e2, c.c2 * e1, b2, substituted, inputs)


def lambda_bound_shape(L: float, c4: float = 1.0) -> float:
    """c4 * L * log*(L)/log*log*(L): the largest-support growth shape."""
    if L < 0:
        raise ValueError("L must be >= 0")
    return c4 * L * log_star(L) / log_star(log_star(L))


def zsigmondy_window(lambda_val: float, c6: float = 1.0) -> int:
    """floor(c6 * log(lambda)): how far back a primitive divisor must reach."""
    if lambda_val < 1:
        raise ValueError("lambda must be >= 1")
    return math.floor(c6 * math.log(lambda_val))


# ---------------------------------------------------------------------------
# parameter transfer to an explicitly constructed splitting field
# ---------------------------------------------------------------------------


def splitting_transfer_params(K: FieldSpec, L: FieldSpec, S: SSet) -> dict:
    """Compare S-statistics over K with those of the places of L above S.

    Returns both parameter sets plus the transfer inequalities
    d_L = D*d, t_L <= D*t, s_L <= D*s, P_L <= P^D evaluated on the data.
    """
    D = L.degree // K.degree
    ideals_L = []
    for p in S.rational_primes():
        # every ideal of L above p, also when S holds only some of K's
        ideals_L.extend(factor_rational_prime(L, p))
    T = SSet(L, ideals_L)
    return {
        "D": D,
        "d_L": L.degree,
        "s_K": S.s,
        "t_K": S.t,
        "P_K": S.P,
        "s_L": T.s,
        "t_L": T.t,
        "P_L": T.P,
        "holds_d": L.degree == D * K.degree,
        "holds_t": T.t <= D * S.t,
        "holds_s": T.s <= D * S.s,
        "holds_P": T.P <= S.P**D,
    }
