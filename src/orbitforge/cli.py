"""Command-line front end: config-driven runs, JSON-lines + CSV reports.

Exit codes: 0 success, 2 partial results (explicit skip rows present),
1 error.  Reports embed the result-defining configuration so every number
is reproducible from the files alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .cache import FactorCache, default_cache_path, int_str_limit
from .config import ConfigError, RunConfig, load_config
from .constants import (
    A1,
    A2,
    A3,
    gyory_yu_height_bound,
    northcott_bound,
    resolve_splitting,
    voutier_delta,
)
from .fields import FieldError
from .heights import height, height_T, height_S_of_inverse, height_value, support_lambda
from .intfactor import IncompleteFactorization
from .orbits import (
    check_power_dependence,
    check_s_integer_ratio,
    find_primitive_divisor,
    is_zero_periodic,
    iterate_orbit,
    spart_witness,
)
from .search import (
    CampaignReport,
    lambda_growth_report,
    search_dependence,
    search_sunit_orbit_values,
    verify_spart_empirical,
)


def _jsonable(v):
    return v if v is None or isinstance(v, (int, float, str, bool)) else str(v)


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return json.dumps(v)  # same textual form as the JSON twin
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def write_report(report: CampaignReport, out_dir: str, name: str):
    os.makedirs(out_dir, exist_ok=True)
    jpath = os.path.join(out_dir, f"{name}.jsonl")
    with open(jpath, "w", encoding="utf-8") as fh:
        fh.write(report.to_jsonl())
    rows = [r for r in report.rows if r.get("type") != "provenance"]
    cpath = os.path.join(out_dir, f"{name}.csv")
    cols: list[str] = []
    for r in rows:
        for k in r:
            if k not in cols:
                cols.append(k)
    with open(cpath, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for r in rows:
            w.writerow([_csv_cell(r.get(c)) for c in cols])
    return jpath, cpath


def _need(cfg: RunConfig, key: str) -> str:
    if key not in cfg.run_options:
        raise ConfigError(f"[run] {key} is required for this command")
    return cfg.run_options[key]


def _alpha(cfg: RunConfig):
    return cfg.field.from_string(_need(cfg, "alpha"))


def _provenance_report(cfg: RunConfig, kind: str, rows) -> CampaignReport:
    prov = cfg.provenance()
    prov.update({f"run_{k}": _jsonable(v) for k, v in sorted(cfg.run_options.items())})
    return CampaignReport(kind, prov, rows)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_heights(cfg: RunConfig, cache):
    x = _alpha(cfg)
    hb = height(x, cfg.factor_budget, cache)
    rows = [
        {
            "type": "height",
            "alpha": x.as_string(),
            "h": hb.total,
            "h_S": height_T(x, cfg.S.places()),
            "h_S_of_inverse": None if x.is_zero() else height_S_of_inverse(x, cfg.S),
        }
    ]
    for pl, contrib in hb.contributions:
        rows.append({"type": "height_place", "place": repr(pl), "contribution": contrib})
    if not x.is_zero():
        st = support_lambda(x, cfg.factor_budget, cache)
        rows.append(
            {
                "type": "support",
                "sigma": [repr(P) for P in st.sigma],
                "lambda": st.lam,
            }
        )
    return _provenance_report(cfg, "heights", rows)


def _cmd_constants(cfg: RunConfig, cache):
    field, S = cfg.field, cfg.S
    rows = [
        {
            "type": "sset_params",
            "s": S.s,
            "t": S.t,
            "P": S.P,
            "Q": S.Q,
            "T_sum": S.T_sum,
            "delta_field": field.delta,
            "voutier_delta_d": voutier_delta(field.degree),
            "A3": A3(field) if field.unit_rank >= 1 else None,
            "A1_1_1": A1(1, 1),
            "A2_1_1": A2(1, 1),
        }
    ]
    if cfg.f is not None:
        zp = is_zero_periodic(cfg.f, bit_cap=cfg.bit_cap)
        if zp is None:
            raise ValueError(f"0-periodicity unknown within the bit cap of {cfg.bit_cap} bits")
        sp = cfg.splitting or resolve_splitting(cfg.f, budget=cfg.factor_budget)
        rep = northcott_bound(cfg.f, S, cfg.c_params, sp, zero_periodic=zp)
        rows.extend(rep.rows())
        h_beta = float(cfg.run_options.get("h_beta", 0.0))
        rows.append(
            {
                "type": "gyory_yu_shape",
                "variant1": gyory_yu_height_bound(1, field, S, h_beta),
                "variant2": (
                    gyory_yu_height_bound(2, field, S, h_beta) if S.t > 0 else None
                ),
                "h_beta": h_beta,
            }
        )
    return _provenance_report(cfg, "constants", rows)


def _cmd_orbit(cfg: RunConfig, cache):
    x = _alpha(cfg)
    m = int(cfg.run_options.get("m", cfg.m_max))
    orb = iterate_orbit(cfg.f, x, m, cfg.bit_cap)
    rows = []
    for k, it in enumerate(orb.iterates):
        rows.append(
            {
                "type": "orbit_row",
                "k": k,
                "value": it.as_string(),
                "h": height_value(it, cfg.factor_budget, cache),
            }
        )
    if orb.truncated:
        rows.append({"type": "skip", "m": orb.length + 1, "reason": "bit-cap"})
    return _provenance_report(cfg, "orbit", rows)


def _cmd_witness(cfg: RunConfig, cache):
    x = _alpha(cfg)
    m = int(_need(cfg, "m"))
    n = int(_need(cfg, "n"))
    orbit = iterate_orbit(cfg.f, x, m, cfg.bit_cap)
    if orbit.truncated:
        rows = [{"type": "skip", "m": m, "n": n,
                 "reason": f"bit-cap at iterate {orbit.length + 1}"}]
        return _provenance_report(cfg, "witness", rows)
    w = check_s_integer_ratio(orbit, m, n, cfg.S)
    rows = [w.row() if w else {"type": "no_witness", "kind": "s_integer_ratio", "m": m, "n": n}]
    if n >= 1:
        w2 = check_power_dependence(orbit, m, n, cfg.S)
        rows.append(
            w2.row() if w2 else {"type": "no_witness", "kind": "power_relation", "m": m, "n": n}
        )
    return _provenance_report(cfg, "witness", rows)


def _cmd_search_dependence(cfg: RunConfig, cache):
    return search_dependence(cfg)


def _cmd_sunit_scan(cfg: RunConfig, cache):
    n_max = int(cfg.run_options.get("n_max", cfg.m_max))
    return search_sunit_orbit_values(cfg, n_max)


def _cmd_primitive_divisors(cfg: RunConfig, cache):
    x = _alpha(cfg)
    m = int(_need(cfg, "m"))
    k = int(cfg.run_options.get("k", m))
    rows = []
    try:
        res = find_primitive_divisor(
            cfg.f, x, m, k, cfg.factor_budget, cache, cfg.bit_cap
        )
        rows.append(
            {
                "type": "primitive_divisor",
                "m": m,
                "k": k,
                "prime": repr(res.primitive_prime) if res.primitive_prime else None,
                "norm": res.primitive_prime.norm if res.primitive_prime else None,
                "window": res.excluded_indices,
            }
        )
    except IncompleteFactorization:
        rows.append({"type": "skip", "m": m, "reason": "factor-budget"})
    return _provenance_report(cfg, "primitive-divisors", rows)


def _cmd_lambda_report(cfg: RunConfig, cache):
    x = _alpha(cfg)
    n = int(cfg.run_options.get("n", 0))
    m_max = int(cfg.run_options.get("m", cfg.m_max))
    rows = lambda_growth_report(
        cfg.f, x, n, m_max, cfg.c_params.c4, cfg.factor_budget, cfg.bit_cap, cache
    )
    return _provenance_report(cfg, "lambda-report", rows)


def _cmd_verify_spart(cfg: RunConfig, cache):
    rows = []
    if "alpha" in cfg.run_options:
        x = _alpha(cfg)
        rows.append(spart_witness(cfg.f, x, cfg.S).row())
    n_samples = int(cfg.run_options.get("sample_count", 0))
    if n_samples > 0:
        rows.extend(verify_spart_empirical(cfg, n_samples).rows)
    return _provenance_report(cfg, "verify-spart", rows)


_HANDLERS = {
    "heights": _cmd_heights,
    "constants": _cmd_constants,
    "orbit": _cmd_orbit,
    "witness": _cmd_witness,
    "search-dependence": _cmd_search_dependence,
    "sunit-scan": _cmd_sunit_scan,
    "primitive-divisors": _cmd_primitive_divisors,
    "lambda-report": _cmd_lambda_report,
    "verify-spart": _cmd_verify_spart,
}


def run_command(name: str, cfg: RunConfig, out_dir: str, cache=None) -> int:
    if name not in _HANDLERS:
        raise ConfigError(f"unknown command {name!r}")
    if cfg.f is None and name not in ("heights", "constants"):
        raise ConfigError(f"{name} needs [poly]")
    # iterates up to the bit cap must print: let int <-> str take the length of
    # a 2*bit_cap-bit norm (0.30103 > log10 2), kept finite and within a C int
    with int_str_limit(min(2 * cfg.bit_cap * 30103 // 100000 + 1, 2**31 - 1)):
        report = _HANDLERS[name](cfg, cache)
        write_report(report, out_dir, name)
    return 2 if report.partial else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="orbitforge",
        description="heights, effective bound shapes and dependence search in polynomial orbits",
    )
    ap.add_argument("command", choices=_HANDLERS)
    ap.add_argument("--config", required=True, help="INI run configuration")
    ap.add_argument("--out", default=None, help="output directory (default: config [output] dir or .)")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = args.out or cfg.output_dir or "."
        cache_path = default_cache_path()
        cache = FactorCache(cache_path) if cache_path else None
        code = run_command(args.command, cfg, out_dir, cache)
        return code
    except (ConfigError, FieldError, ValueError, ArithmeticError, OSError) as exc:
        print(f"orbitforge: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
