"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is either computed by an independent oracle
inside this module (plain integer / Fraction arithmetic, sympy for
factorizations) or verified by hand before being frozen.
"""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy

import orbitforge as of
from orbitforge.constants import A1, A2, A3, CParams, SplittingData, voutier_delta
from orbitforge.fields import make_field
from orbitforge.heights import (
    approximate_by_unit,
    canonical_height,
    height_S_of_inverse,
    height_outside_S_of_inverse,
    height_value,
    one_step_bound,
    unit_approximation_deviation,
)
from orbitforge.ideals import SSet, archimedean_places, factor_rational_prime
from orbitforge.intfactor import IncompleteFactorization
from orbitforge.orbits import find_primitive_divisor, spart_witness
from orbitforge.polynomials import Polynomial
from orbitforge.search import SearchConfig, lambda_growth_report, search_dependence

T0 = time.monotonic()

Q = make_field("rational")
F2 = make_field("quadratic", 2)
FM5 = make_field("quadratic", -5)
FIELDS = (Q, F2, FM5)

PRIME_POOL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def S_of(field, *primes):
    return SSet(field, [P for p in primes for P in factor_rational_prime(field, p)])


def _random_element(rng, field, span):
    while True:
        if field.degree == 1:
            x = field.element(rng.randrange(-span, span + 1))
        else:
            x = field.element(rng.randrange(-span, span + 1), rng.randrange(-span, span + 1))
        if not x.is_zero():
            return x


def _random_S(rng, field, max_finite=5):
    ideals = []
    for p in rng.sample(PRIME_POOL, rng.randrange(0, max_finite + 1)):
        above = factor_rational_prime(field, p)
        ideals.extend(above if rng.random() < 0.7 else above[:1])
    return SSet(field, ideals[:max_finite])


def test_criterion_01_height_decomposition():
    t0 = time.monotonic()
    rng = random.Random(2024)
    for field in FIELDS:
        for _ in range(1000):
            b = _random_element(rng, field, 9999 if field.degree == 1 else 150)
            S = _random_S(rng, field)
            h_b = height_value(b)
            h_binv = height_value(b.inverse())
            split = height_S_of_inverse(b, S) + height_outside_S_of_inverse(b, S)
            scale = max(1.0, abs(h_b))
            assert abs(h_b - h_binv) <= 1e-9 * scale
            assert abs(h_binv - split) <= 1e-9 * scale
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"\n[PASS] criterion 1: height decomposition on 3x1000 random (b, S), {dt:.1f}s")


def test_criterion_02_place_degree_identity():
    fields = list(FIELDS) + [
        make_field("quadratic", d) for d in (3, 5, -1, -3, 13, 10, -23)
    ]
    for field in fields:
        total = sum(
            Fraction(pl.local_degree, field.degree) for pl in archimedean_places(field)
        )
        assert total == 1
    print(f"[PASS] criterion 2: place-degree identity exact on {len(fields)} fields")


def test_criterion_03_canonical_height():
    t0 = time.monotonic()
    suite = [
        Polynomial(Q, [1, 0, 1]),
        Polynomial(Q, [-1, 0, 1]),
        Polynomial(Q, [3, -1, 0, 1]),
    ]
    for f in suite:
        d = f.degree
        B = one_step_bound(f)
        for a in range(-10, 11):
            r_up = canonical_height(f, f(Q.element(a)), tol=1e-4)
            r_lo = canonical_height(f, a, tol=1e-4)
            assert abs(r_up.value - d * r_lo.value) <= 2 * max(
                r_up.error_bound, d * r_lo.error_bound
            ) + 1e-12
            assert abs(r_lo.value - height_value(Q.element(a))) <= B / (d - 1) + 1e-9

    # telescoping oracle with plain integers: the 0.8147 reference value is
    # the limit of h(a_k)/2^k along a_0 = 2 (= the first iterate of 1)
    a, k = 2, 0
    while a < 210066388901:
        a = a * a + 1
        k += 1
    assert a == 210066388901
    oracle = math.log(a) / 2**k
    assert abs(oracle - 0.8147) < 1e-3
    f1 = suite[0]
    hh2 = canonical_height(f1, 2, tol=1e-6).value
    hh1 = canonical_height(f1, 1, tol=1e-6).value
    assert hh2 == pytest.approx(0.8147, abs=1e-3)
    assert hh2 == pytest.approx(oracle, abs=1e-4)
    assert 2 * hh1 == pytest.approx(hh2, abs=1e-5)
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(
        f"[PASS] criterion 3: canonical heights (hhat(f(1)) = {hh2:.4f} = 0.8147, "
        f"hhat(1) = {hh1:.4f}), {dt:.1f}s"
    )


def test_criterion_04_proof_witness_inequalities():
    rng = random.Random(31337)
    worked = spart_witness(
        Polynomial(Q, [-6, 11, -6, 1]), 11, S_of(Q, 2, 3)
    )
    assert worked.b == 720 and worked.c == 90
    assert worked.slack_lower == pytest.approx(0.828, abs=1e-3)
    assert worked.slack_upper == pytest.approx(2.485, abs=1e-3)
    for field in FIELDS:
        f = Polynomial(field, [-6, 11, -6, 1])
        block = 3 * field.class_number
        done = 0
        while done < 100:
            alpha = _random_element(rng, field, 40 if field.degree == 1 else 15)
            b = f(alpha)
            if b.is_zero():
                continue
            S = _random_S(rng, field, max_finite=4)
            wit = spart_witness(f, alpha, S)
            assert all(0 <= r < block for r in wit.remainders)
            assert wit.slack_lower >= -1e-9 and wit.slack_upper >= -1e-9
            # exact recombination of the S-part against the ideal norm
            nm = abs(b.norm())
            for P, e in zip(wit.s_ideals, wit.exponents):
                assert nm % P.norm**e == 0
            done += 1
    print(
        f"[PASS] criterion 4: proof-witness inequalities on 3x100 instances; "
        f"worked instance c = {worked.c}, slacks {worked.slack_lower:.3f}/{worked.slack_upper:.3f}"
    )


def test_criterion_05_unit_approximation():
    rng = random.Random(55)
    x = F2.element(3, 1)
    eps = approximate_by_unit(x, 1)
    dev = unit_approximation_deviation(x, eps, 1)
    assert dev == pytest.approx(0.5118, abs=1e-3)
    assert dev <= F2.regulator + 1e-12
    assert F2.regulator == pytest.approx(0.8814, abs=1e-3)
    a3 = A3(F2)
    assert a3 == 0.5
    done = 0
    while done < 100:
        alpha = _random_element(rng, F2, 500)
        n = rng.choice((1, 2, 3))
        eps = approximate_by_unit(alpha, n)
        dev = unit_approximation_deviation(alpha, eps, n)
        bound = 0.5 * a3 * n * F2.degree**2 * F2.regulator
        assert dev <= bound + 1e-9
        done += 1
    print(
        f"[PASS] criterion 5: unit approximation bound on 100 samples; "
        f"instance deviation {unit_approximation_deviation(x, approximate_by_unit(x, 1), 1):.4f} <= {F2.regulator:.4f}"
    )


def test_criterion_06_constant_evaluators():
    assert A1(1, 1) == pytest.approx(128 * math.log(2), abs=1e-9)
    assert A2(1, 1) == 2048.0
    assert voutier_delta(2) == pytest.approx(math.log(2) / 2, abs=1e-15)
    assert A3(F2) == 0.5
    f_split = Polynomial(Q, [-6, 11, -6, 1])
    e1 = of.eta1_inverse(f_split, SSet(Q, []))
    assert e1 == pytest.approx(128 * math.log(2), rel=1e-12)
    assert A1(2, 1) > A1(1, 1) < A1(1, 2)
    assert A2(2, 2) > A2(1, 2) and A2(2, 3) > A2(2, 2)
    assert of.lambda_bound_shape(10.0) > of.lambda_bound_shape(3.0) > of.lambda_bound_shape(1.0)
    b0 = of.gyory_yu_height_bound(1, Q, S_of(Q, 2, 3), 0.0)
    b1 = of.gyory_yu_height_bound(1, Q, S_of(Q, 2, 3), 1.0)
    assert b1 > b0
    print("[PASS] criterion 6: constant evaluators and monotonicity spot-checks")


CAMPAIGN = dict(height_cap=math.log(50), m_max=4, s_primes=(2, 3, 5))


def _campaign_report():
    cfg = SearchConfig(
        field=Q,
        f=Polynomial(Q, [3, -1, 0, 1]),
        S=S_of(Q, *CAMPAIGN["s_primes"]),
        height_cap=CAMPAIGN["height_cap"],
        m_max=CAMPAIGN["m_max"],
        splitting=SplittingData(6, 1),
    )
    return search_dependence(cfg)


def _oracle_strip(n, primes=CAMPAIGN["s_primes"]):
    n = abs(n)
    for p in primes:
        while n and n % p == 0:
            n //= p
    return n


def _oracle_primitive_root(n):
    for e in range(n.bit_length(), 1, -1):
        r, exact = _iroot_oracle(n, e)
        if exact:
            return r, e
    return n, 1


def _iroot_oracle(n, k):
    if n < 2:
        return n, True
    r = sympy.integer_nthroot(n, k)
    return int(r[0]), bool(r[1])


def _oracle_witness_set():
    found = set()
    nmax = 50
    for a in range(-nmax, nmax + 1):
        orbit = [a]
        for _ in range(CAMPAIGN["m_max"]):
            t = orbit[-1]
            orbit.append(t**3 - t + 3)
        for m in range(1, CAMPAIGN["m_max"] + 1):
            xm = orbit[m]
            if xm == 0:
                continue
            for n in range(0, m):
                xn = orbit[n]
                v = Fraction(xn, xm)
                if _oracle_strip(v.denominator) == 1:
                    found.add((a, m, n, "s_integer_ratio", str(v), None, None, None))
                if n >= 1 and xn != 0:
                    X, Y = _oracle_strip(xm), _oracle_strip(xn)
                    if X == 1:
                        rs = (1, 0)
                    elif Y == 1:
                        rs = (0, 1)
                    else:
                        bx, ex = _oracle_primitive_root(X)
                        by, ey = _oracle_primitive_root(Y)
                        rs = None
                        if bx == by:
                            g = math.gcd(ex, ey)
                            rs = (ey // g, ex // g)
                    if rs is not None:
                        u = Fraction(xm) ** rs[0] / Fraction(xn) ** rs[1]
                        if _oracle_strip(u.numerator) == 1 and _oracle_strip(u.denominator) == 1:
                            found.add((a, m, n, "power_relation", None, rs[0], rs[1], str(u)))
    return found


def test_criterion_07_dependence_search_oracle_and_determinism():
    rep1 = _campaign_report()
    got = {
        (int(Fraction(r["alpha"])), r["m"], r["n"], r["kind"], r["v"], r["r"], r["s"], r["u"])
        for r in rep1.witness_rows()
    }
    oracle = _oracle_witness_set()
    assert got == oracle
    assert all(r["verified"] for r in rep1.witness_rows())
    rep2 = _campaign_report()
    assert rep1.to_jsonl() == rep2.to_jsonl()
    print(
        f"[PASS] criterion 7: campaign matches oracle witness-for-witness "
        f"({len(got)} witnesses); byte-identical across runs"
    )


def test_criterion_08_divisibility_transfer():
    rep = _campaign_report()
    ratio_rows = [r for r in rep.witness_rows() if r["kind"] == "s_integer_ratio"]
    assert ratio_rows
    checked = 0
    for r in ratio_rows:
        a = int(Fraction(r["alpha"]))
        m, n = r["m"], r["n"]
        # independent transfer check with plain integers
        x = a
        for _ in range(m):
            x = x**3 - x + 3
        s_free = _oracle_strip(x)
        fk0 = 0
        for _ in range(m - n):
            fk0 = fk0**3 - fk0 + 3
        assert fk0 % s_free == 0, (a, m, n)
        checked += 1
    print(f"[PASS] criterion 8: divisibility transfer exact on {checked} ratio witnesses")


def test_criterion_09_primitive_divisors():
    t0 = time.monotonic()
    f1 = Polynomial(Q, [1, 0, 1])
    vals = {0: 1}
    x = 1
    for m in range(1, 11):
        x = x * x + 1
        vals[m] = x
    factored, skipped = {}, []
    for m in range(2, 11):
        try:
            res = find_primitive_divisor(f1, 1, m, m, budget=600_000)
        except IncompleteFactorization:
            skipped.append(m)
            continue
        factored[m] = res
    assert all(m >= 6 for m in skipped) or not skipped
    assert set(factored) >= {2, 3, 4, 5, 6}
    for m, res in factored.items():
        target = sympy.factorint(vals[m])
        earlier = set()
        for j in range(0, m):
            if abs(vals[j]) > 1:
                earlier |= set(sympy.factorint(vals[j]))
        fresh = sorted(set(target) - earlier)
        assert fresh, f"m={m}: no primitive divisor exists at all?"
        assert res.primitive_prime is not None
        assert res.primitive_prime.norm == fresh[0], m
    # negative control: x^2 never produces a primitive prime for alpha = 2
    fsq = Polynomial(Q, [0, 0, 1])
    for m in range(2, 11):
        res = find_primitive_divisor(fsq, 2, m, m)
        assert res.primitive_prime is None
    dt = time.monotonic() - t0
    assert dt < 120.0
    print(
        f"[PASS] criterion 9: primitive divisors match oracle for m in {sorted(factored)} "
        f"(skips: {skipped}); x^2 control all none; {dt:.1f}s"
    )


def test_criterion_10_lambda_growth_rows():
    rows = lambda_growth_report(Polynomial(Q, [1, 0, 1]), 1, 0, 4)
    lam = [r["lambda"] for r in rows if r["type"] == "lambda_row"]
    # oracle: factor the hand orbit 2, 5, 26, 677 directly
    orbit_vals = [2, 5, 26, 677]
    expect = [str(max(sympy.factorint(v))) for v in orbit_vals]
    assert expect == ["2", "5", "13", "677"]
    assert lam == expect
    assert all(r["ratio"] > 0 for r in rows if r["type"] == "lambda_row")
    print(f"[PASS] criterion 10: lambda rows {lam} match oracle; ratios positive")


def test_criterion_11_runtime_and_no_network():
    import os

    pkg_dir = os.path.dirname(of.__file__)
    banned = ("import socket", "import urllib", "import requests", "import http")
    for name in os.listdir(pkg_dir):
        if name.endswith(".py"):
            text = open(os.path.join(pkg_dir, name), encoding="utf-8").read()
            for b in banned:
                assert b not in text, (name, b)
    elapsed = time.monotonic() - T0
    assert elapsed < 300.0
    print(f"[PASS] criterion 11: acceptance wall-clock {elapsed:.1f}s < 300s; no network modules")
