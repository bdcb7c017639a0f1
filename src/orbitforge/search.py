"""Bounded enumeration campaigns over ring elements and orbit pairs.

Campaigns are deterministic: the scan order is fixed, cap hits and
factorization failures become explicit skip rows (never silent), and
reports serialize with sorted keys so equal configurations give
byte-identical output.  The dependence scan never factors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

from . import __version__
from .cache import FactorCache
from .constants import (
    CParams,
    SplittingData,
    eta1_inverse,
    eta2_inverse,
    lambda_bound_shape,
    log_star,
    northcott_bound,
    resolve_splitting,
)
from .fields import FieldSpec, NFElement
from .heights import height_S_of_inverse, height_value, support_lambda
from .ideals import SSet
from .intfactor import DEFAULT_RHO_BUDGET, IncompleteFactorization
from .orbits import (
    DEFAULT_BIT_CAP,
    OrbitRecord,
    check_power_dependence,
    check_s_integer_ratio,
    is_s_unit,
    is_zero_periodic,
    iterate_orbit,
)
from .polynomials import Polynomial

DEFAULT_ELEMENT_CAP = 10**7
DEFAULT_M_MAX = 8


@dataclass
class SearchConfig:
    """Campaign inputs (one sequential scan, sorted rows)."""

    field: FieldSpec
    f: Polynomial | None
    S: SSet
    height_cap: float
    m_max: int = DEFAULT_M_MAX
    bit_cap: int = DEFAULT_BIT_CAP
    factor_budget: int = DEFAULT_RHO_BUDGET
    element_cap: int = DEFAULT_ELEMENT_CAP
    c_params: CParams = dc_field(default_factory=CParams)
    splitting: SplittingData | None = None

    def provenance(self) -> dict:
        """The result-defining inputs, echoed in every report."""
        return {
            "field": repr(self.field),
            "poly": None if self.f is None else repr(self.f),
            "S": ",".join(self.S.ideal_selectors()),
            "height_cap": self.height_cap,
            "m_max": self.m_max,
            "bit_cap": self.bit_cap,
            "factor_budget": self.factor_budget,
            "element_cap": self.element_cap,
            "c_params": self.c_params.as_dict(),
        }


@dataclass
class CampaignReport:
    kind: str
    provenance: dict
    rows: list[dict]
    version: str = __version__

    @property
    def partial(self) -> bool:
        """True exactly when some row is an explicit skip."""
        return bool(self.skip_rows())

    def to_jsonl(self) -> str:
        head = {
            "type": "provenance",
            "campaign": self.kind,
            "version": self.version,
            "partial": self.partial,
        }
        head.update({f"config_{k}": v for k, v in sorted(self.provenance.items())})
        lines = [json.dumps(head, sort_keys=True)]
        lines.extend(json.dumps(r, sort_keys=True) for r in self.rows)
        return "\n".join(lines) + "\n"

    def witness_rows(self) -> list[dict]:
        return [r for r in self.rows if r.get("type") == "witness"]

    def skip_rows(self) -> list[dict]:
        return [r for r in self.rows if r.get("type") == "skip"]


# ---------------------------------------------------------------------------
# element enumeration
# ---------------------------------------------------------------------------

_H_EPS = 1e-12


def ring_elements_capped(
    field: FieldSpec, H: float, cap: int = DEFAULT_ELEMENT_CAP
) -> tuple[list[NFElement], bool]:
    """(elements, truncated): the ring integers of height <= H, ordered by
    (height, coordinates), cut to at most cap, and whether the cap cut.

    One exact walk over the rows b of x = a + b*w, with w^2 = c + l*w the
    field's (wsq_const, wsq_lin) and b = 0 the only row over Q.  With
    u = 2a + l*b, 4*Nm(x) = u^2 - disc*b^2, and e^{2h(x)} is Nm(x) on an
    imaginary field and max(|Nm x|, |s1 x|, |s2 x|) otherwise, where
    max|s_i x| = (|u| + |b|*sqrt(disc))/2.  So with E = e^{2(H + _H_EPS)} each
    row is a range of |u|, of the parity of l*b, where u^2 is within floor(4E)
    of disc*b^2 (and max|s_i x| <= E if real).
    """
    if H < 0:
        raise ValueError("height cap must be >= 0")
    E = math.exp(2 * (H + _H_EPS))
    M = int(4 * E)
    disc = field.discriminant
    lin = field.wsq_lin
    if field.degree == 1:
        b_max = 0
    elif disc > 0:
        b_max = int(2 * E / math.sqrt(disc))
    else:
        b_max = math.isqrt(M // -disc)
    out = []
    for b in range(-b_max, b_max + 1):
        lo2, hi2 = disc * b * b - M, disc * b * b + M
        u_lo = math.isqrt(lo2 - 1) + 1 if lo2 > 0 else 0
        u_hi = math.isqrt(hi2)
        if disc > 0:
            u_hi = min(u_hi, math.floor(2 * E - abs(b) * math.sqrt(disc)))
        u_lo += (u_lo - lin * b) % 2
        for u in range(u_lo, u_hi + 1, 2):
            for v in {u, -u}:
                out.append(field.element((v - lin * b) // 2, b))
    out.sort(key=_element_order_key)
    return out[:cap], len(out) > cap


def _element_order_key(x: NFElement):
    h = height_value(x) if not x.is_zero() else 0.0
    return (round(h, 9), x.a, x.b)


def _element_sort_key(x: NFElement):
    return (x.a, x.b)


# ---------------------------------------------------------------------------
# dependence search
# ---------------------------------------------------------------------------


_ELEMENT_CAP_SKIP = {"type": "skip", "alpha": None, "m": None, "n": None,
                     "reason": "element-cap truncated the scan"}


def search_dependence(cfg: SearchConfig) -> CampaignReport:
    """Scan all alpha up to the height cap and all iterate pairs for
    ratio and power witnesses, each verified by exact resubstitution."""
    zp = is_zero_periodic(cfg.f, bit_cap=cfg.bit_cap)
    if zp is None:
        raise ValueError(f"0-periodicity unknown within the bit cap of {cfg.bit_cap} bits")
    if zp:
        raise ValueError("campaign requires 0 not periodic for f")
    elements, cut = ring_elements_capped(cfg.field, cfg.height_cap, cfg.element_cap)
    rows = [dict(_ELEMENT_CAP_SKIP)] if cut else []
    # alpha = 0 is always enumerated (height 0) and shares this orbit
    zero_orbit = iterate_orbit(cfg.f, 0, cfg.m_max, cfg.bit_cap)
    c_norms = _transfer_norms(cfg.f, zero_orbit)
    collected: list[tuple[tuple, dict]] = []
    for alpha in elements:
        orbit = (
            zero_orbit if alpha.is_zero()
            else iterate_orbit(cfg.f, alpha, cfg.m_max, cfg.bit_cap)
        )
        for entry in _scan_alpha(orbit, cfg.S, c_norms):
            key = (
                _element_sort_key(alpha),
                entry.get("m") or 0,
                entry.get("n") or 0,
                entry.get("kind") or entry["type"],
            )
            collected.append((key, entry))
    collected.sort(key=lambda kv: kv[0])
    rows.extend(entry for _, entry in collected)
    rows.extend(_bound_annotation(cfg))
    return CampaignReport("search-dependence", cfg.provenance(), rows)


def _transfer_norms(f: Polynomial, zero_orbit: OrbitRecord) -> tuple[int, ...]:
    """|Nm f^(j)(0)| for j up to the length of the orbit of 0; empty, which
    turns the prefilter of _scan_alpha off, unless f is integral."""
    if not f.is_integral():
        return ()
    return tuple(abs(c.norm().numerator) for c in zero_orbit.iterates)


def _strip_common(y: int, c: int) -> int:
    """y without the primes it shares with c."""
    g = math.gcd(y, c)
    while g > 1:
        y //= g
        g = math.gcd(y, g)
    return y


def _scan_alpha(orbit: OrbitRecord, S: SSet, c_norms: tuple[int, ...]):
    """The skip row and the witness rows of the pairs m > n of the orbit record.

    With integral f and alpha, x_m = f^(m-n)(x_n) is c = f^(m-n)(0) modulo
    x_n (the divisibility transfer), so in norms, with N_out the norm of
    the part away from S: a ratio witness needs N_out(x_m) | Nm c, and a
    power witness with N_out(x_m), N_out(x_n) > 1 needs every prime of
    N_out(x_n) to divide Nm c.  Pairs failing that are rejected before the
    exact checks, which decide the rest; c_norms[j] = |Nm f^(j)(0)| (see
    _transfer_norms), and pairs with m - n past it are not filtered.
    """
    out = []
    if orbit.truncated:
        out.append(
            {
                "type": "skip",
                "alpha": orbit.alpha.as_string(),
                "m": None,
                "n": None,
                "reason": f"bit-cap at iterate {orbit.length + 1}",
            }
        )
    if not orbit.alpha.is_integral():
        c_norms = ()
    for m in range(1, orbit.length + 1):
        if orbit.iterates[m].is_zero():
            continue
        X = orbit.norm_outside_S(m, S) if c_norms else None
        for n in range(0, m):
            c = c_norms[m - n] if m - n < len(c_norms) else None
            if c is None or c % X == 0:
                w = check_s_integer_ratio(orbit, m, n, S)
                if w is not None:
                    out.append(w.row())
            if n >= 1 and not orbit.iterates[n].is_zero():
                if c is None or X == 1 or _strip_common(orbit.norm_outside_S(n, S), c) == 1:
                    w = check_power_dependence(orbit, m, n, S)
                    if w is not None:
                        out.append(w.row())
    return out


def _bound_annotation(cfg: SearchConfig) -> list[dict]:
    try:
        sp = cfg.splitting or resolve_splitting(cfg.f, FactorCache(budget=cfg.factor_budget))
        rep = northcott_bound(cfg.f, cfg.S, cfg.c_params, sp, zero_periodic=False)
        return rep.rows()
    except Exception as exc:  # annotation only: report the gap, never die
        return [{"type": "annotation_error", "error": str(exc)}]


# ---------------------------------------------------------------------------
# S-unit orbit values
# ---------------------------------------------------------------------------


def search_sunit_orbit_values(cfg: SearchConfig, n_max: int) -> CampaignReport:
    """All (alpha, n <= n_max) with f^(n)(alpha) an S-unit, by exact orders."""
    elements, cut = ring_elements_capped(cfg.field, cfg.height_cap, cfg.element_cap)
    rows = [dict(_ELEMENT_CAP_SKIP)] if cut else []
    for alpha in elements:
        orbit = iterate_orbit(cfg.f, alpha, n_max, cfg.bit_cap)
        if orbit.truncated:
            rows.append(
                {
                    "type": "skip",
                    "alpha": alpha.as_string(),
                    "m": None,
                    "n": None,
                    "reason": f"bit-cap at iterate {orbit.length + 1}",
                }
            )
        for n in range(1, orbit.length + 1):
            val = orbit.iterates[n]
            if val.is_zero():
                continue
            if is_s_unit(val, cfg.S):
                rows.append(
                    {
                        "type": "sunit",
                        "alpha": alpha.as_string(),
                        "n": n,
                        "value": val.as_string(),
                    }
                )
    return CampaignReport("sunit-scan", cfg.provenance(), rows)


# ---------------------------------------------------------------------------
# empirical eta
# ---------------------------------------------------------------------------


def verify_spart_empirical(cfg: SearchConfig, sample_count: int) -> CampaignReport:
    """Sampled ratios rho = h_S(f(a)^-1) / (h(f(a)) + 1) next to the formula.

    Reports max rho and the implied empirical eta beside the c1 = 1 formula
    values; states which is larger and asserts nothing about which should be.
    """
    if cfg.f.distinct_root_count() < 3:
        raise ValueError("empirical check needs >= 3 distinct roots")
    elements, cut = ring_elements_capped(cfg.field, cfg.height_cap, cfg.element_cap)
    rows = []
    best = None
    count = 0
    for alpha in elements:
        if count >= sample_count:
            break
        val = cfg.f(alpha)
        if val.is_zero():
            continue
        count += 1
        h = height_value(val)
        rho = height_S_of_inverse(val, cfg.S) / (h + 1.0)
        rows.append(
            {
                "type": "rho",
                "alpha": alpha.as_string(),
                "h_f_alpha": h,
                "rho": rho,
            }
        )
        if best is None or rho > best[0]:
            best = (rho, alpha)
    summary: dict = {"type": "empirical_eta", "sample_count": count}
    if best is None:
        summary["eta_empirical"] = None
        summary["note"] = "empty sample: eta undefined"
    else:
        eta_emp = 1.0 - best[0]
        summary["max_rho"] = best[0]
        summary["argmax_alpha"] = best[1].as_string()
        summary["eta_empirical"] = eta_emp
        sp = cfg.splitting or resolve_splitting(cfg.f, FactorCache(budget=cfg.factor_budget))
        e1 = eta1_inverse(cfg.f, cfg.S, CParams(), sp)
        summary["eta1_formula"] = 1.0 / e1
        if cfg.S.t > 0 and sp.class_number_L is not None:
            summary["eta2_formula"] = 1.0 / eta2_inverse(cfg.f, cfg.S, CParams(), sp)
        else:
            summary["eta2_formula"] = None
        summary["larger"] = (
            "empirical" if eta_emp > summary["eta1_formula"] else "formula"
        )
    rows.append(summary)
    if cut and count < sample_count:
        rows.append(dict(_ELEMENT_CAP_SKIP))
    return CampaignReport("verify-spart", cfg.provenance(), rows)


# ---------------------------------------------------------------------------
# lambda growth rows
# ---------------------------------------------------------------------------


def lambda_growth_report(
    f: Polynomial,
    alpha,
    n: int,
    m_max: int,
    c4: float = 1.0,
    bit_cap: int = DEFAULT_BIT_CAP,
    factors: FactorCache | None = None,
) -> list[dict]:
    """Per m > n: the largest support norm of f^(m)/f^(n) against the
    growth shape c4 * L log*L / log*log*L; factorization-failure rows skip."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if m_max <= n:
        raise ValueError(f"the lambda report needs m > n (m = {m_max}, n = {n})")
    field = f.field
    if not isinstance(alpha, NFElement):
        alpha = field.element(alpha)
    orbit = iterate_orbit(f, alpha, m_max, bit_cap)
    rows = []
    if n > orbit.length:
        raise ValueError(f"orbit truncated below n = {n} by the bit cap of {bit_cap} bits")
    xn = orbit.iterates[n]
    if xn.is_zero():
        raise ZeroDivisionError("f^(n)(alpha) is zero")
    h_n = height_value(xn, factors)
    for m in range(n + 1, orbit.length + 1):
        xm = orbit.iterates[m]
        if xm.is_zero():
            rows.append({"type": "skip", "m": m, "reason": "zero iterate"})
            continue
        try:
            lam = support_lambda(xm / xn, factors).lam
            h_m = height_value(xm, factors)
        except IncompleteFactorization:
            rows.append({"type": "skip", "m": m, "reason": "factor-budget"})
            continue
        L = log_star(h_m / (h_n + 1.0))
        shape = lambda_bound_shape(L, c4)
        rows.append(
            {
                "type": "lambda_row",
                "m": m,
                "n": n,
                "lambda": str(lam),
                "L": L,
                "shape": shape,
                "ratio": lam / shape,
            }
        )
    if orbit.truncated:
        rows.append({"type": "skip", "m": orbit.length + 1, "reason": "bit-cap"})
    return rows
