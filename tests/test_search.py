import json
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from orbitforge.constants import SplittingData
from orbitforge.fields import FieldSpec, make_field
from orbitforge.ideals import SSet, factor_rational_prime
from orbitforge.orbits import (
    check_power_dependence,
    check_s_integer_ratio,
    is_zero_periodic,
    iterate_orbit,
)
from orbitforge.polynomials import Polynomial
from orbitforge.search import (
    CampaignReport,
    _scan_alpha,
    _transfer_norms,
    SearchConfig,
    lambda_growth_report,
    ring_elements_capped,
    search_dependence,
    search_sunit_orbit_values,
    verify_spart_empirical,
)

Q = make_field("rational")
F2 = make_field("quadratic", 2)
Fm5 = make_field("quadratic", -5)


def S_of(field, *primes):
    return SSet(field, [P for p in primes for P in factor_rational_prime(field, p)])


def test_enumerate_rational():
    got = [x.a for x in ring_elements_capped(Q, math.log(3))[0]]
    assert sorted(got) == [-3, -2, -1, 0, 1, 2, 3]
    assert len(got) == 7
    got0 = [x.a for x in ring_elements_capped(Q, 0.0)[0]]
    assert sorted(got0) == [-1, 0, 1]
    for n in (50, 200):
        got_n = [x.a for x in ring_elements_capped(Q, math.log(n))[0]]
        assert sorted(got_n) == list(range(-n, n + 1))
    # ordering: height first, then coordinates
    assert got[:3] == [-1, 0, 1]
    assert abs(got[3]) == 2


def test_enumerate_quadratic_height_zero():
    got = list(ring_elements_capped(F2, 0.0)[0])
    assert sorted((x.a, x.b) for x in got) == [(-1, 0), (0, 0), (1, 0)]
    Fm5 = make_field("quadratic", -5)
    got5 = list(ring_elements_capped(Fm5, 0.0)[0])
    assert sorted((x.a, x.b) for x in got5) == [(-1, 0), (0, 0), (1, 0)]


def test_enumerate_quadratic_exact_height_filter():
    from orbitforge.heights import height_value

    H = 0.7
    got = list(ring_elements_capped(F2, H)[0])
    assert F2.element(1, 1) in got  # h = R/2 ~ 0.4407
    for x in got:
        if not x.is_zero():
            assert height_value(x) <= H + 1e-9
    # everything just outside misses
    assert F2.element(3, 1) not in got  # h ~ 0.9730


def test_enumerate_cap_truncates():
    got = list(ring_elements_capped(Q, 10.0, cap=11)[0])
    assert len(got) == 11
    els, truncated = ring_elements_capped(Q, 10.0, cap=11)
    assert truncated and len(els) == 11
    els2, t2 = ring_elements_capped(Q, 1.0, cap=10**6)
    assert not t2


def test_enumerate_half_integral_field_complete():
    # brute-force oracle over a generous coordinate box
    from orbitforge.heights import height_value

    # caps H = log(n)/2 met exactly by an element of norm +-n
    boundary = [(2, 7, (3, 1)), (3, 11, (1, 2)), (5, 11, (3, 1)), (13, 17, (4, 1)),
                (-1, 5, (1, 2)), (-3, 7, (2, 1)), (-5, 6, (1, 1))]
    # the 121 x 121 box below holds every element up to these caps
    caps = {5: [2.0], 13: [1.5], -3: [1.2], 2: [1.8], 3: [1.6], -1: [2.0], -5: [2.2]}
    for D, n, _ in boundary:
        caps[D].append(0.5 * math.log(n))
    for D, Hs in caps.items():
        F = make_field("quadratic", D)
        box = [F.element(a, b) for a in range(-60, 61) for b in range(-60, 61)]
        heights = [0.0 if x.is_zero() else height_value(x) for x in box]
        for H in Hs:
            got = {(x.a, x.b) for x in ring_elements_capped(F, H)[0]}
            expect = {(x.a, x.b) for x, h in zip(box, heights) if h <= H + 1e-12}
            assert got == expect, (D, H)
    for D, n, (a, b) in boundary:
        F = make_field("quadratic", D)
        assert abs(F.element(a, b).norm()) == n
        assert (a, b) in {(x.a, x.b) for x in ring_elements_capped(F, 0.5 * math.log(n))[0]}


def test_enumerate_builds_only_kept_elements(monkeypatch):
    # the walk visits each admissible (a, b) once: no box of candidates
    F = make_field("quadratic", 2)
    calls = [0]
    plain_element = FieldSpec.element

    def counted_element(self, *args):
        calls[0] += 1
        return plain_element(self, *args)

    monkeypatch.setattr(FieldSpec, "element", counted_element)
    got = ring_elements_capped(F, 2.5)[0]
    assert len(got) == 1253
    assert calls[0] <= 2 * len(got)


def _campaign_config(**kw):
    defaults = dict(
        field=Q,
        f=Polynomial(Q, [3, -1, 0, 1]),
        S=S_of(Q, 2, 3, 5),
        height_cap=math.log(50),
        m_max=4,
        splitting=SplittingData(6, 1, None, "config"),
    )
    defaults.update(kw)
    return SearchConfig(**defaults)


def _oracle_campaign(height_cap, m_max, s_primes):
    """Fully independent re-derivation with plain integers and Fractions."""

    def strip(n):
        n = abs(n)
        for p in s_primes:
            while n and n % p == 0:
                n //= p
        return n

    def primitive_root(n):
        # largest-exponent representation n = b**e by direct root extraction
        best = (n, 1)
        for e in range(2, n.bit_length() + 1):
            r = round(n ** (1.0 / e))
            for cand in (r - 1, r, r + 1):
                if cand >= 2 and cand**e == n:
                    best = (cand, e)
        if best[1] > 1:
            b, e = best
            bb, ee = primitive_root(b)
            return bb, ee * e
        return best

    found = set()
    nmax = int(round(math.exp(height_cap)))
    for a in range(-nmax, nmax + 1):
        orbit = [a]
        for _ in range(m_max):
            orbit.append(orbit[-1] ** 3 - orbit[-1] + 3)
        for m in range(1, m_max + 1):
            for n in range(0, m):
                xm, xn = orbit[m], orbit[n]
                if xm == 0:
                    continue
                v = Fraction(xn, xm)
                if strip(v.denominator) == 1:
                    found.add((a, m, n, "s_integer_ratio", str(v), None, None, None))
                if n >= 1 and xn != 0:
                    X, Y = strip(xm), strip(xn)
                    rs = None
                    if X == 1:
                        rs = (1, 0)
                    elif Y == 1:
                        rs = (0, 1)
                    else:
                        bx, ex = primitive_root(X)
                        by, ey = primitive_root(Y)
                        if bx == by:
                            g = math.gcd(ex, ey)
                            rs = (ey // g, ex // g)
                    if rs is not None:
                        u = Fraction(xm) ** rs[0] / Fraction(xn) ** rs[1]
                        if strip(u.numerator) == 1 and strip(u.denominator) == 1:
                            found.add(
                                (a, m, n, "power_relation", None, rs[0], rs[1], str(u))
                            )
    return found


def test_dependence_campaign_matches_independent_oracle():
    rep = search_dependence(_campaign_config())
    got = {
        (
            int(Fraction(r["alpha"])),
            r["m"],
            r["n"],
            r["kind"],
            r["v"],
            r["r"],
            r["s"],
            r["u"],
        )
        for r in rep.witness_rows()
    }
    oracle = _oracle_campaign(math.log(50), 4, (2, 3, 5))
    assert got == oracle
    assert not rep.skip_rows() and not rep.partial
    assert all(r["verified"] for r in rep.witness_rows())


def test_campaign_determinism_and_shard_invariance():
    base = search_dependence(_campaign_config()).to_jsonl()
    again = search_dependence(_campaign_config()).to_jsonl()
    sharded = search_dependence(_campaign_config(shard_count=4)).to_jsonl()
    assert base == again == sharded


def test_campaign_refuses_zero_periodic_or_unknown():
    with pytest.raises(ValueError):
        search_dependence(_campaign_config(f=Polynomial(Q, [-1, 0, 1])))


def test_campaign_h0_only_trivial_alphas():
    rep = search_dependence(_campaign_config(height_cap=0.0))
    alphas = {r["alpha"] for r in rep.witness_rows()}
    assert alphas <= {"-1", "0", "1"}


def test_campaign_contains_known_power_witness():
    cfg = SearchConfig(
        field=Q,
        f=Polynomial(Q, [0, 0, 1]),
        S=SSet(Q, []),
        height_cap=math.log(2),
        m_max=2,
        splitting=SplittingData(1, 1, None, "config"),
    )
    with pytest.raises(ValueError):
        search_dependence(cfg)  # 0 is fixed by x^2: zero-periodic
    # shift to x^2 + 2 which is 3-distinct-rootless... use the campaign op on
    # the plain checker instead for x^2 at alpha=2:
    from orbitforge.orbits import check_power_dependence, iterate_orbit

    w = check_power_dependence(iterate_orbit(Polynomial(Q, [0, 0, 1]), 2, 2), 2, 1, SSet(Q, []))
    assert (w.r, w.s, w.u.a) == (1, 2, 1)


def test_dependence_search_never_factors_and_evaluates_each_iterate_once(monkeypatch):
    fields = [make_field("quadratic", D) for D in (2, 5, -1, -5)]  # built before patching

    def refuse(*args, **kwargs):
        raise AssertionError("the dependence search factored a value")

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "orbitforge" or name.startswith("orbitforge.")):
            for attr in ("factor_element_ideal", "factorize"):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, refuse)
    evals = [0]
    plain_call = Polynomial.__call__

    def counted_call(self, x):
        evals[0] += 1
        return plain_call(self, x)

    monkeypatch.setattr(Polynomial, "__call__", counted_call)
    for F in fields:
        f = Polynomial(F, [3, -1, 0, 1])
        evals[0] = 0
        is_zero_periodic(f)
        zero_scan = evals[0]
        # splitting data supplied: the bound annotation evaluates nothing
        cfg = SearchConfig(field=F, f=f, S=S_of(F, 2, 3, 5), height_cap=1.0, m_max=2,
                           splitting=SplittingData(6, 1, None, "config"))
        alphas = len(ring_elements_capped(F, cfg.height_cap)[0])
        evals[0] = 0
        rep = search_dependence(cfg)
        assert not rep.skip_rows() and rep.witness_rows()
        assert evals[0] <= alphas * cfg.m_max + zero_scan, F


def test_dependence_search_takes_each_norm_away_from_S_once(monkeypatch):
    from orbitforge import orbits

    cfg = SearchConfig(field=Q, f=Polynomial(Q, [3, -1, 0, 1]), S=S_of(Q, 2, 3, 5),
                       height_cap=math.log(50), m_max=4)
    nonzero_iterates = sum(
        1
        for alpha in ring_elements_capped(Q, cfg.height_cap)[0]
        for x in iterate_orbit(cfg.f, alpha, cfg.m_max, cfg.bit_cap).iterates[1:]
        if not x.is_zero()
    )
    calls = [0]
    plain = orbits._norm_outside_S

    def counted(x, S):
        calls[0] += 1
        return plain(x, S)

    monkeypatch.setattr(orbits, "_norm_outside_S", counted)
    rep = search_dependence(cfg)
    assert rep.witness_rows() and not rep.partial
    assert 0 < calls[0] <= nonzero_iterates


def _all_pairs(orbit, S):
    """The rows of both exact checks on every pair, with no prefilter."""
    out = []
    if orbit.truncated:
        out.append({"type": "skip", "alpha": orbit.alpha.as_string(), "m": None, "n": None,
                    "reason": f"bit-cap at iterate {orbit.length + 1}"})
    for m in range(1, orbit.length + 1):
        if orbit.iterates[m].is_zero():
            continue
        for n in range(m):
            w = check_s_integer_ratio(orbit, m, n, S)
            if w is not None:
                out.append(w.row())
            if n >= 1 and not orbit.iterates[n].is_zero():
                w = check_power_dependence(orbit, m, n, S)
                if w is not None:
                    out.append(w.row())
    return out


_SCAN_HEIGHT = {Q: math.log(8), F2: 0.9, Fm5: 1.2}


@st.composite
def _scan_case(draw):
    F = draw(st.sampled_from([Q, F2, Fm5]))

    def element(span):
        b = draw(st.integers(-span, span)) if F.degree == 2 else 0
        return F.element(draw(st.integers(-span, span)), b)

    coeffs = [element(3) for _ in range(draw(st.integers(2, 3)))] + [element(1)]
    if coeffs[-1].is_zero():
        coeffs[-1] = F.one()
    f = Polynomial(F, coeffs)
    assume(is_zero_periodic(f) is False)
    ideals = []
    for p in (2, 3, 5, 7, 11):
        above = factor_rational_prime(F, p)
        pick = draw(st.sampled_from(["none", "full", "lone"]))
        if pick == "full":
            ideals.extend(above)
        elif pick == "lone":
            ideals.append(draw(st.sampled_from(above)))
    m_max = draw(st.integers(2, 4))
    # half the time, a cap just below the bits of c_cut truncates the orbit
    # of 0 by then
    zero = iterate_orbit(f, 0, m_max)
    cut = draw(st.integers(1, 2 * m_max))
    bit_cap = zero.iterates[cut].bit_size() - 1 if cut <= zero.length else 10**6
    return f, SSet(F, ideals), m_max, bit_cap


@settings(max_examples=100)
@given(_scan_case())
def test_scan_prefilter_keeps_every_witness(case):
    # the divisibility-transfer prefilter only rejects: _scan_alpha gives the
    # rows of both exact checks run on every pair of the same orbit record,
    # for orbits under the campaign's cap and, so that pairs with m - n past
    # a cut orbit of 0 occur, under no cap
    f, S, m_max, bit_cap = case
    c_norms = _transfer_norms(f, iterate_orbit(f, 0, m_max, bit_cap))
    for alpha in ring_elements_capped(f.field, _SCAN_HEIGHT[f.field])[0]:
        for cap in {bit_cap, 10**6}:
            orbit = iterate_orbit(f, alpha, m_max, cap)
            assert _scan_alpha(orbit, S, c_norms) == _all_pairs(orbit, S), (alpha, cap)


def test_scan_prefilter_is_off_outside_the_ring_of_integers():
    # the transfer needs integral f and alpha; otherwise every pair goes to
    # the exact checks, which raise for a non-integral iterate as before
    S = S_of(Q, 2)
    f = Polynomial(Q, [Fraction(1, 2), 0, 1])
    c_norms = _transfer_norms(f, iterate_orbit(f, 0, 3))
    assert c_norms == ()
    for scan in (_all_pairs, lambda orbit, S: _scan_alpha(orbit, S, c_norms)):
        with pytest.raises(ValueError, match="integral iterates"):
            scan(iterate_orbit(f, 1, 3), S)
    # integral f, alpha = 1/2: the one pair, x_0 / x_1 = (1/2) / (21/8), is a
    # ratio witness over {2, 3, 7}, found by the exact check
    g = Polynomial(Q, [3, -1, 0, 1])
    c_norms = _transfer_norms(g, iterate_orbit(g, 0, 1))
    assert c_norms == (0, 3)
    orbit = iterate_orbit(g, Fraction(1, 2), 1)
    S = S_of(Q, 2, 3, 7)
    assert _scan_alpha(orbit, S, c_norms) == _all_pairs(orbit, S) != []


def test_dependence_search_runs_exact_checks_only_past_the_prefilter(monkeypatch):
    # the acceptance campaign: 101 alphas, 1,010 ratio and 606 power pairs,
    # of which the prefilter passes 19 and 28 to the exact checks
    from orbitforge import orbits, search

    cfg = SearchConfig(field=Q, f=Polynomial(Q, [3, -1, 0, 1]), S=S_of(Q, 2, 3, 5),
                       height_cap=math.log(50), m_max=4)
    orbit_list = [iterate_orbit(cfg.f, a, cfg.m_max, cfg.bit_cap)
                  for a in ring_elements_capped(Q, cfg.height_cap)[0]]
    assert len(orbit_list) == 101
    ratio_pairs = sum(1 for o in orbit_list for m in range(1, o.length + 1) for n in range(m)
                      if not o.iterates[m].is_zero())
    power_pairs = sum(1 for o in orbit_list for m in range(1, o.length + 1) for n in range(1, m)
                      if not (o.iterates[m].is_zero() or o.iterates[n].is_zero()))
    assert (ratio_pairs, power_pairs) == (1010, 606)
    oracle = sorted(json.dumps(r, sort_keys=True) for o in orbit_list for r in _all_pairs(o, cfg.S))
    calls = {"ratio": 0, "power": 0, "ord_ideal": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(search, "check_s_integer_ratio", counted("ratio", check_s_integer_ratio))
    monkeypatch.setattr(search, "check_power_dependence", counted("power", check_power_dependence))
    monkeypatch.setattr(orbits, "ord_ideal", counted("ord_ideal", orbits.ord_ideal))
    rep = search_dependence(cfg)
    assert calls == {"ratio": 19, "power": 28, "ord_ideal": 0}
    got = sorted(json.dumps(r, sort_keys=True) for r in rep.witness_rows())
    assert got == oracle and len(got) == 42


def test_quadratic_campaign_at_m_max_3_finishes():
    # this configuration once hung for more than 50 s splitting a large
    # prime in ideals._minpoly_root_mod
    cfg = SearchConfig(field=F2, f=Polynomial(F2, [3, -1, 0, 1]), S=S_of(F2, 2, 3, 5),
                       height_cap=1.0, m_max=3)
    t0 = time.perf_counter()
    rep = search_dependence(cfg)
    assert time.perf_counter() - t0 < 5.0
    assert not rep.partial and not rep.skip_rows() and rep.witness_rows()


def test_sunit_scan_matches_hand_enumeration():
    cfg = SearchConfig(
        field=Q,
        f=Polynomial(Q, [1, 0, 1]),
        S=S_of(Q, 2, 5),
        height_cap=math.log(3),
        m_max=4,
    )
    rep = search_sunit_orbit_values(cfg, 3)
    got = sorted((r["alpha"], r["n"]) for r in rep.rows if r["type"] == "sunit")
    expected = sorted(
        [("0", 1), ("0", 2), ("0", 3), ("1", 1), ("1", 2), ("-1", 1), ("-1", 2),
         ("2", 1), ("-2", 1), ("3", 1), ("-3", 1)]
    )
    assert got == expected


def test_sunit_scan_infinite_S_only_units():
    cfg = SearchConfig(
        field=Q, f=Polynomial(Q, [1, 0, 1]), S=SSet(Q, []), height_cap=math.log(3),
    )
    rep = search_sunit_orbit_values(cfg, 3)
    vals = {r["value"] for r in rep.rows if r["type"] == "sunit"}
    assert vals <= {"1", "-1"}


def test_verify_spart_empirical():
    cfg = SearchConfig(
        field=Q,
        f=Polynomial(Q, [-6, 11, -6, 1]),
        S=S_of(Q, 2, 3, 5),
        height_cap=math.log(60),
        m_max=2,
    )
    rep = verify_spart_empirical(cfg, 40)
    rhos = [r["rho"] for r in rep.rows if r["type"] == "rho"]
    assert rhos and all(0.0 <= r <= 1.0 for r in rhos)
    summary = [r for r in rep.rows if r["type"] == "empirical_eta"][0]
    assert summary["eta_empirical"] == pytest.approx(1 - max(rhos))
    assert summary["larger"] in ("formula", "empirical")
    assert summary["eta1_formula"] > 0
    # alpha = 11 gives the S-smooth value 720: rho = h/(h+1)
    h720 = math.log(720)
    assert max(rhos) >= h720 / (h720 + 1) - 1e-12


def test_verify_spart_empty_sample():
    cfg = SearchConfig(
        field=Q, f=Polynomial(Q, [-6, 11, -6, 1]), S=S_of(Q, 2), height_cap=1.0,
    )
    rep = verify_spart_empirical(cfg, 0)
    summary = [r for r in rep.rows if r["type"] == "empirical_eta"][0]
    assert summary["eta_empirical"] is None and "note" in summary


def test_verify_spart_requires_three_roots():
    cfg = SearchConfig(
        field=Q, f=Polynomial(Q, [0, 0, 1]), S=S_of(Q, 2), height_cap=1.0,
    )
    with pytest.raises(ValueError):
        verify_spart_empirical(cfg, 5)


def test_lambda_growth_report_example():
    rows = lambda_growth_report(Polynomial(Q, [1, 0, 1]), 1, 0, 4)
    lam = [r["lambda"] for r in rows if r["type"] == "lambda_row"]
    assert lam == ["2", "5", "13", "677"]
    assert all(r["ratio"] > 0 for r in rows if r["type"] == "lambda_row")
    with pytest.raises(ZeroDivisionError):
        lambda_growth_report(Polynomial(Q, [-1, 0, 1]), 1, 1, 3)  # f^(1)(1) = 0


def test_report_jsonl_shape():
    rep = CampaignReport("demo", {"a": 1}, [{"type": "row", "x": 1.5}])
    text = rep.to_jsonl()
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert '"type": "provenance"' in lines[0]
