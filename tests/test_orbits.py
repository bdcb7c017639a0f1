import importlib
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from orbitforge.constants import A3
from orbitforge.fields import make_field
from orbitforge.heights import (
    canonical_height,
    height_S_of_inverse,
    height_T,
    height_outside_S_of_inverse,
    height_value,
)
from orbitforge.ideals import (
    PrimeIdealRec,
    SSet,
    factor_element_ideal,
    factor_rational_prime,
    ord_ideal,
)
from orbitforge.orbits import (
    CYCLE_STEP_CAP,
    GeneratorSearchError,
    OrbitRecord,
    ZsigmondyResult,
    _norm_outside_S,
    build_Sk,
    check_power_dependence,
    check_s_integer_ratio,
    divisibility_transfer_holds,
    find_primitive_divisor,
    is_preperiodic,
    is_s_integer,
    is_s_unit,
    is_zero_periodic,
    iterate_orbit,
    principal_generator,
    spart_witness,
    spart_witness_from_value,
)
from orbitforge.polynomials import Polynomial

Q = make_field("rational")
F2 = make_field("quadratic", 2)
F5 = make_field("quadratic", 5)
Fm1 = make_field("quadratic", -1)
Fm5 = make_field("quadratic", -5)

F_SQ1 = Polynomial(Q, [1, 0, 1])     # x^2 + 1
F_SQ = Polynomial(Q, [0, 0, 1])      # x^2
F_SQM1 = Polynomial(Q, [-1, 0, 1])   # x^2 - 1
F_CUBE = Polynomial(Q, [3, -1, 0, 1])  # x^3 - x + 3
F_SPLIT = Polynomial(Q, [-6, 11, -6, 1])  # (x-1)(x-2)(x-3)


def S_of(field, *primes):
    return SSet(field, [P for p in primes for P in factor_rational_prime(field, p)])


def test_iterate_orbit_examples():
    orb = iterate_orbit(F_SQ1, 1, 4)
    assert [x.a for x in orb.iterates] == [1, 2, 5, 26, 677]
    orb_id = iterate_orbit(Polynomial(Q, [0, 1]), 7, 3)
    assert [x.a for x in orb_id.iterates] == [7, 7, 7, 7]
    orb_cycle = iterate_orbit(F_SQM1, 0, 4)
    assert [x.a for x in orb_cycle.iterates] == [0, -1, 0, -1, 0]
    assert not orb.truncated


def test_iterate_orbit_bit_cap():
    orb = iterate_orbit(F_SQ1, 2, 50, bit_cap=100)
    assert orb.truncated and orb.length < 50


def test_is_zero_periodic():
    assert is_zero_periodic(F_SQM1) is True
    assert is_zero_periodic(F_SQ1) is False
    assert is_zero_periodic(Polynomial(Q, [0, 0, 1])) is True  # fixed point 0
    assert is_zero_periodic(F_CUBE) is False
    with pytest.raises(ValueError):
        is_zero_periodic(Polynomial(Q, [0, 1]))


def test_is_preperiodic():
    assert is_preperiodic(F_SQM1, 1) is True
    assert is_preperiodic(F_SQ1, 1) is False
    assert is_preperiodic(F_SQ, 0) is True
    assert is_preperiodic(F_SQ, 1) is True
    assert is_preperiodic(F_SQ, 2) is False


def _two_pass_periodicity(f, start, bit_cap):
    """The former two-pass routine: a cycle scan, then canonical_height at
    tol 1e-6 from the start again.  (preperiodic, 0 in the cycle), tri-state."""
    seen = {start: 0}
    vals = [start]
    x = start
    for k in range(1, CYCLE_STEP_CAP + 1):
        x = f(x)
        if x.bit_size() > bit_cap:
            break
        if x in seen:
            return True, any(v.is_zero() for v in vals[seen[x]:])
        seen[x] = k
        vals.append(x)
    ch = canonical_height(f, start, tol=1e-6, bit_cap=bit_cap)
    if ch.value > 2 * ch.error_bound:
        return False, False
    return None, None


_SMALL = st.integers(-3, 3)


@st.composite
def _poly_and_start(draw):
    F = draw(st.sampled_from([Q, F2, Fm5]))

    def element():
        return F.element(draw(_SMALL), draw(_SMALL) if F.degree == 2 else 0)

    n = draw(st.integers(2, 3))
    coeffs = [element() for _ in range(n + 1)]
    if coeffs[-1].is_zero():
        coeffs[-1] = F.one()
    # some non-integral f: the oracle then answers only where it sees a cycle
    coeffs[-1] = coeffs[-1] * F.element(draw(st.sampled_from([1, 1, 1, Fraction(1, 2)])))
    return Polynomial(F, coeffs), element()


def _outcome(fn, *args):
    """fn(*args), or "ValueError" when it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return "ValueError"


@settings(max_examples=150)
@given(_poly_and_start())
def test_periodicity_walk_matches_two_pass_oracle(case):
    f, alpha = case
    bit_cap = 4096
    pre = _outcome(lambda: _two_pass_periodicity(f, alpha, bit_cap)[0])
    zp = _outcome(lambda: _two_pass_periodicity(f, f.field.zero(), bit_cap))
    if zp != "ValueError":
        zp = None if zp[0] is None else zp[0] and zp[1]
    if pre is not None:
        assert _outcome(is_preperiodic, f, alpha, bit_cap) == pre
    if zp is not None:
        assert _outcome(is_zero_periodic, f, bit_cap) == zp


def test_zero_periodic_non_integral_fixed_point():
    # one_step_bound refuses x^2/2, but the fixed point 0 answers first
    assert is_zero_periodic(Polynomial(Q, [0, 0, Fraction(1, 2)])) is True


def test_zero_strictly_preperiodic_is_not_periodic():
    # 0 -> -2 -> 2 -> 2: the cycle is re-entered at index 2, not at 0
    f = Polynomial(Q, [-2, 0, 1])
    assert is_preperiodic(f, 0) is True
    assert is_zero_periodic(f) is False


def test_non_integral_cycles_of_positive_height_answer_exactly():
    half = Fraction(1, 2)
    # 2 is fixed by x^2/2 and h(2) = log 2 > 0
    assert is_preperiodic(Polynomial(Q, [0, 0, half]), 2) is True
    # 0 -> 2 -> 0 under x^2/2 - 2x + 2
    assert is_zero_periodic(Polynomial(Q, [2, -2, half])) is True
    # no cycle and no certificate for a non-integral f
    with pytest.raises(ValueError):
        is_zero_periodic(Polynomial(Q, [1, 0, half]), bit_cap=4096)


def test_zero_periodic_decides_in_few_small_steps(monkeypatch):
    calls, peak = [0], [0]
    plain_call = Polynomial.__call__

    def counted_call(self, x):
        y = plain_call(self, x)
        calls[0] += 1
        peak[0] = max(peak[0], y.bit_size())
        return y

    monkeypatch.setattr(Polynomial, "__call__", counted_call)
    assert is_zero_periodic(F_CUBE) is False
    assert calls[0] <= 3 and peak[0] <= 64


def test_s_integer_and_s_unit_predicates():
    S25 = S_of(Q, 2, 5)
    assert is_s_integer(Q.element(Fraction(3, 20)), S25)
    assert not is_s_integer(Q.element(Fraction(1, 3)), S25)
    assert is_s_unit(Q.element(Fraction(4, 5)), S25)
    assert not is_s_unit(Q.element(3), S25)
    assert is_s_unit(Q.element(-1), S25)
    # mixed split selection: only one ideal above 7 in S
    p7a, p7b = factor_rational_prime(F2, 7)
    S_half = SSet(F2, [p7a])
    x = F2.element(3, 1)  # lies in the b-side ideal
    assert not is_s_unit(x, S_half)
    assert is_s_unit(x, SSet(F2, [p7b]))
    assert is_s_unit(F2.element(1, 1), SSet(F2, []))  # unit


def test_ratio_witness_examples():
    S2 = S_of(Q, 2)
    w = check_s_integer_ratio(iterate_orbit(F_SQ, 2, 2), 2, 1, S2)
    assert w is not None and w.v == Fraction(1, 4) and w.verified
    assert check_s_integer_ratio(iterate_orbit(F_SQ, 2, 2), 2, 1, SSet(Q, [])) is None
    # zero numerator: v = 0 is an S-integer
    w0 = check_s_integer_ratio(iterate_orbit(F_SQM1, 1, 2), 2, 1, SSet(Q, []))
    assert w0 is not None and w0.v == 0 and w0.verified
    with pytest.raises(ValueError):
        check_s_integer_ratio(iterate_orbit(F_SQ, 2, 1), 1, 1, S2)


def test_ratio_witness_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        check_s_integer_ratio(iterate_orbit(F_SQM1, 1, 3), 3, 1, SSet(Q, []))  # f^(3)(1) = 0


def test_power_witness_examples():
    S_inf = SSet(Q, [])
    w = check_power_dependence(iterate_orbit(F_SQ, 2, 2), 2, 1, S_inf)
    assert w is not None and (w.r, w.s) == (1, 2) and w.u == 1 and w.verified
    assert check_power_dependence(iterate_orbit(F_SQ1, 1, 2), 2, 1, S_inf) is None
    # both values S-units: (1, 0) convention with u the later iterate
    S25 = S_of(Q, 2, 5)
    w2 = check_power_dependence(iterate_orbit(F_SQ1, 1, 2), 2, 1, S25)
    assert w2 is not None and (w2.r, w2.s) == (1, 0) and w2.u == 5
    # only the m-side is an S-unit
    w3 = check_power_dependence(iterate_orbit(F_SQ1, 1, 2), 2, 1, S_of(Q, 5))
    assert w3 is not None and (w3.r, w3.s) == (1, 0)
    # only the n-side is an S-unit: (0, 1), u = 1/f^(n)(alpha)
    w4 = check_power_dependence(iterate_orbit(F_SQ1, 1, 2), 2, 1, S_of(Q, 2))
    assert w4 is not None and (w4.r, w4.s) == (0, 1) and w4.u == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        check_power_dependence(iterate_orbit(F_SQM1, 1, 3), 3, 1, S_inf)


def _oracle_power_scan(xm, xn, s_primes):
    # independent: try all (r, s) in a box, testing S-unit-ness by stripping
    def stripped(fr):
        num, den = abs(fr.numerator), fr.denominator
        for p in s_primes:
            while num % p == 0:
                num //= p
            while den % p == 0:
                den //= p
        return num, den

    for r in range(0, 7):
        for s in range(-6, 7):
            if (r, s) == (0, 0) or (r == 0 and s != 1):
                continue
            u = Fraction(xm) ** r / Fraction(xn) ** s
            if stripped(u) == (1, 1):
                return True
    return False


def test_power_witness_against_bruteforce_oracle():
    suites = [
        (F_SQ, [2, 3, 5, 6]),
        (F_SQ1, [1, 2, 3]),
        (F_CUBE, [1, 2, -2]),
        (Polynomial(Q, [0, 0, 2]), [1, 2, 3]),  # 2x^2
    ]
    s_sets = [(), (2,), (2, 3), (2, 3, 5)]
    for f, alphas in suites:
        for primes in s_sets:
            S = S_of(Q, *primes) if primes else SSet(Q, [])
            for a in alphas:
                for m in range(2, 5):
                    for n in range(1, m):
                        xm = f.iterate_value(Q.element(a), m)
                        xn = f.iterate_value(Q.element(a), n)
                        if xm.is_zero() or xn.is_zero():
                            continue
                        w = check_power_dependence(iterate_orbit(f, a, m), m, n, S)
                        oracle = _oracle_power_scan(int(xm.a), int(xn.a), primes)
                        if w is not None:
                            # library witness must re-substitute exactly
                            assert (xm ** w.r) == (w.u * xn ** w.s)
                            assert is_s_unit(w.u, S)
                        if oracle:
                            assert w is not None, (f, a, m, n, primes)


def test_power_witness_quadratic_route():
    # (3+sqrt2)^k values: supports are proportional
    S_inf = SSet(F2, [])
    x = F2.element(3, 1)
    f = Polynomial(F2, [F2.element(0), F2.element(0), F2.element(1)])  # x^2
    w = check_power_dependence(iterate_orbit(f, x, 2), 2, 1, S_inf)
    assert w is not None and (w.r, w.s) == (1, 2)
    assert (f.iterate_value(x, 2) ** w.r) == w.u * f.iterate_value(x, 1) ** w.s
    assert is_s_unit(w.u, S_inf)


# ---------------------------------------------------------------------------
# the factoring reference for the factor-free dependence route: order
# vectors away from S from sympy's factorization of the norm
# ---------------------------------------------------------------------------


def _oracle_ideals_above(field, p):
    """Prime ideals above p in the library's conventions, split by sqrt_mod."""
    if field.degree == 1:
        return [PrimeIdealRec(field, p, 1, 1, "rational", None)]
    # w^2 + t1*w + t0 = 0
    t0, t1 = (-(field.D - 1) // 4, -1) if field.D % 4 == 1 else (-field.D, 0)
    if p == 2:
        roots = [c for c in (0, 1) if (c * c + t1 * c + t0) % 2 == 0]
    else:
        half = pow(2, -1, p)
        roots = sorted(
            {(r - t1) * half % p for r in sympy.sqrt_mod(t1 * t1 - 4 * t0, p, all_roots=True)}
        )
    if not roots:
        return [PrimeIdealRec(field, p, 1, 2, "inert", None)]
    if len(roots) == 1:
        return [PrimeIdealRec(field, p, 2, 1, "ramified", roots[0])]
    return [
        PrimeIdealRec(field, p, 1, 1, "split-a", roots[0]),
        PrimeIdealRec(field, p, 1, 1, "split-b", roots[1]),
    ]


def _oracle_ord_vector(x, S):
    """{P: ord_P(x)} over the ideals P outside S where x has nonzero order."""
    vec = {}
    for p in sympy.factorint(abs(int(x.norm()))):
        for P in _oracle_ideals_above(x.field, p):
            if not S.contains_ideal(P) and ord_ideal(x, P):
                vec[P] = ord_ideal(x, P)
    return vec


def _oracle_power_rs(xm, xn, S):
    """(r, s) when the order vectors away from S are proportional, else None."""
    va, vb = _oracle_ord_vector(xm, S), _oracle_ord_vector(xn, S)
    if not va:
        return (1, 0)
    if not vb:
        return (0, 1)
    if set(va) != set(vb):
        return None
    ratios = {Fraction(va[P], vb[P]) for P in va}
    if len(ratios) != 1:
        return None
    ratio = ratios.pop()  # = s/r
    return (ratio.denominator, ratio.numerator)


def _oracle_transfer(f, w, S):
    fk0 = f.iterate_value(f.field.zero(), w.m - w.n)
    if fk0.is_zero():
        return True
    xm = f.iterate_value(w.alpha, w.m)
    return all(ord_ideal(fk0, P) >= e for P, e in _oracle_ord_vector(xm, S).items())


def _one_split_ideal(field):
    return next(
        P for p in sympy.primerange(3, 30) for P in factor_rational_prime(field, p)
        if P.kind == "split-a"
    )


def test_power_dependence_matches_factoring_oracle():
    found = missed = 0
    for field in (F2, F5, Fm1, Fm5):
        s_sets = (S_of(field, 2, 3), SSet(field, [_one_split_ideal(field)]))
        for coeffs in ([3, -1, 0, 1], [1, 0, 1]):
            f = Polynomial(field, coeffs)
            for a in (-1, 0, 1):
                for b in (-1, 0, 1):
                    orbit = iterate_orbit(f, field.element(a, b), 3)
                    for m in (2, 3):
                        for n in range(1, m):
                            xm, xn = orbit.iterates[m], orbit.iterates[n]
                            if xm.is_zero() or xn.is_zero():
                                continue
                            for S in s_sets:
                                w = check_power_dependence(orbit, m, n, S)
                                got = None if w is None else (w.r, w.s)
                                assert got == _oracle_power_rs(xm, xn, S), (
                                    field, coeffs, a, b, m, n, S
                                )
                                if w is None:
                                    missed += 1
                                    continue
                                found += 1
                                assert w.verified and is_s_unit(w.u, S)
    assert found and missed


def test_power_dependence_equal_norms_not_proportional():
    # 2+i and 2-i both have norm 5, but lie in the two different ideals
    # above 5: the norms agree while the order vectors are not proportional
    x, y = Fm1.element(2, 1), Fm1.element(2, -1)
    orbit = OrbitRecord(Fm1.one(), [Fm1.one(), x, y], False)
    S_inf = SSet(Fm1, [])
    assert _oracle_power_rs(y, x, S_inf) is None
    assert check_power_dependence(orbit, 2, 1, S_inf) is None


def test_orbit_norm_memo_is_kept_per_S():
    # one record asked under several S sets answers as fresh records do; a
    # memo that ignored S would answer Q(sqrt 2), alpha = -1, (m, n) = (2, 1)
    # under the split ideal from the norms taken at S = {2, 3}: x_2 = 27 and
    # x_1 = 3 are units away from {2, 3}, so it would try (r, s) = (1, 0)
    # and miss the true (1, 3)
    f = Polynomial(F2, [3, -1, 0, 1])
    s_sets = (S_of(F2, 2, 3), SSet(F2, [_one_split_ideal(F2)]), SSet(F2, []))
    pairs = [(m, n) for m in (2, 3) for n in range(1, m)]
    differ = False
    for alpha in (F2.element(-1), F2.element(0), F2.element(1), F2.element(0, 1)):
        shared = iterate_orbit(f, alpha, 3)
        answers = []
        for S in s_sets:
            got = []
            for m, n in pairs:
                w = check_power_dependence(shared, m, n, S)
                fresh = check_power_dependence(iterate_orbit(f, alpha, 3), m, n, S)
                row = None if w is None else w.row()
                assert row == (None if fresh is None else fresh.row()), (alpha, m, n, S)
                got.append(row)
            answers.append(got)
        differ |= any(g != answers[0] for g in answers[1:])
    assert differ
    minus_one = iterate_orbit(f, F2.element(-1), 3)
    assert check_power_dependence(minus_one, 2, 1, s_sets[0]) is not None
    w = check_power_dependence(minus_one, 2, 1, s_sets[1])
    assert w is not None and (w.r, w.s) == (1, 3)


def _norm_outside_S_per_ideal(x, S):
    """|Nm x| // prod_{P in S} Nm(P)^ord_P(x), one exact order per ideal."""
    out = abs(x.norm().numerator)
    for P in S.ideals:
        out //= P.norm ** ord_ideal(x, P)
    return out


def test_norm_outside_S_matches_per_ideal_oracle():
    # S draws each ideal above 2..13 independently, so it mixes full primes
    # (split, inert and ramified) with lone split ideals; x carries powers of
    # small primes and of small elements, whose orders at the two ideals of
    # a split prime differ
    from orbitforge.orbits import _norm_outside_S

    rng = random.Random(20201)
    primes = (2, 3, 5, 7, 11, 13)
    full_kinds, lone = set(), 0
    for F in (Q, F2, Fm5, Fm1):
        above = {p: factor_rational_prime(F, p) for p in primes}

        def small(span):
            return F.element(rng.randint(-span, span), rng.randint(-span, span) if F.degree == 2 else 0)

        for _ in range(150):
            S = SSet(F, [P for p in primes for P in above[p] if rng.random() < 0.6])
            full, lone_ideals = S.fullness()
            full_kinds.update(P.kind for P in S.ideals if P.p in full)
            lone += len(lone_ideals)
            x = small(10**4)
            for _ in range(rng.randint(0, 4)):
                x = x * F.element(rng.choice(primes)) * small(4) ** rng.randint(1, 3)
            if x.is_zero():
                continue
            assert _norm_outside_S(x, S) == _norm_outside_S_per_ideal(x, S), (F, x, S)
    assert {"rational", "split-a", "split-b", "inert", "ramified"} <= full_kinds
    assert lone > 0


def test_find_primitive_divisor_examples():
    res = find_primitive_divisor(F_SQ1, 1, 3, 3)
    assert res.primitive_prime is not None and res.primitive_prime.norm == 13
    res2 = find_primitive_divisor(F_SQ1, 1, 2, 2)
    assert res2.primitive_prime.norm == 5
    res3 = find_primitive_divisor(F_SQ, 2, 3, 2)
    assert res3.primitive_prime is None
    with pytest.raises(ValueError):
        find_primitive_divisor(F_SQ, 1, 3, 2)  # iterates are units


def test_find_primitive_divisor_matches_sympy_oracle():
    for m in range(2, 7):
        res = find_primitive_divisor(F_SQ1, 1, m, m)
        vals = [int(F_SQ1.iterate_value(Q.element(1), j).a) for j in range(0, m + 1)]
        target = set(sympy.factorint(vals[m]))
        earlier = set()
        for v in vals[:-1]:
            if abs(v) > 1:
                earlier |= set(sympy.factorint(v))
        fresh = sorted(target - earlier)
        if fresh:
            assert res.primitive_prime is not None
            assert res.primitive_prime.norm == fresh[0]
        else:
            assert res.primitive_prime is None


def _primitive_divisor_by_window_factoring(f, alpha, m, k):
    """The earlier find_primitive_divisor: it factors every iterate of the
    window and takes the smallest-norm prime of f^(m)(alpha) that has
    positive order at none of them."""
    orbit = iterate_orbit(f, alpha, m)
    xm = orbit.iterates[m]
    if xm.is_zero() or (xm.is_integral() and abs(xm.norm()) == 1):
        raise ValueError("f^(m)(alpha) is a unit or zero: no divisor to find")
    window = list(range(max(0, m - k), m))
    fac_m = factor_element_ideal(xm)
    window_primes, zero_in_window = set(), False
    for j in window:
        xj = orbit.iterates[j]
        if xj.is_zero():
            zero_in_window = True
            continue
        window_primes.update(P.key() for P in factor_element_ideal(xj).positive_part())
    primitive = None
    if not zero_in_window:
        for P in sorted(fac_m.positive_part(), key=lambda P: (P.norm, P.p, P.kind)):
            if P.key() not in window_primes:
                primitive = P
                break
    return ZsigmondyResult(m, k, primitive, window)


@st.composite
def _primitive_divisor_case(draw):
    F = draw(st.sampled_from([Q, F2, Fm1, Fm5]))

    def element():
        return F.element(draw(_SMALL), draw(_SMALL) if F.degree == 2 else 0)

    n = draw(st.integers(2, 3))
    coeffs = [element() for _ in range(n + 1)]
    if coeffs[-1].is_zero():
        coeffs[-1] = F.one()
    alpha = element()
    shape = draw(st.sampled_from(["integral", "root", "non-integral", "past-floor"]))
    m = draw(st.integers(1, 3 if n == 2 else 2))
    if shape == "root":  # f(alpha) = 0 puts a zero in the window
        coeffs[0] = coeffs[0] - Polynomial(F, coeffs)(alpha)
    elif shape == "non-integral":  # iterates with negative orders
        alpha = alpha + F.element(Fraction(1, draw(st.sampled_from([2, 3, 6]))))
    elif shape == "past-floor":
        # f(alpha) = small * large, large a product of primes past the trial
        # bound: the floor answers with a prime of small, or the full
        # factorization answers, when the primes of small divide alpha or
        # have norm past the bound
        small = draw(st.sampled_from([1, 2, 3, 6, 103]))
        large = draw(st.sampled_from([10007, 10009, 10037, 10007 * 10009]))
        coeffs[0] = coeffs[0] - Polynomial(F, coeffs)(alpha) + small * large
        m = 1
    k = draw(st.integers(0, m + 2))
    return Polynomial(F, coeffs), alpha, m, k


def _result_key(res):
    P = res.primitive_prime
    return res.m, res.window_k, None if P is None else P.key(), res.excluded_indices


@settings(max_examples=200)
@given(_primitive_divisor_case())
# 4x^2 + 1 at 1/2: x_1 = 2, and 2 has order -1 at x_0, not 0
@example((Polynomial(Q, [1, 0, 4]), Q.element(Fraction(1, 2)), 1, 1))
def test_find_primitive_divisor_matches_window_factoring(case):
    f, alpha, m, k = case
    want = _outcome(lambda: _result_key(_primitive_divisor_by_window_factoring(f, alpha, m, k)))
    assert _outcome(lambda: _result_key(find_primitive_divisor(f, alpha, m, k))) == want


def test_find_primitive_divisor_trial_stage_stops_at_its_norm_bound():
    # over Q(i), 103 is inert, so (103) has norm 10,609, past the trial bound
    # of 9,973; 10,009 splits, and an ideal above it has the smaller norm
    f = Polynomial(Fm1, [103 * 10009 - 1, 0, 1])
    xm = Fm1.element(103 * 10009)
    assert 10609 in {P.norm for P in factor_element_ideal(xm).positive_part()}
    res = find_primitive_divisor(f, 1, 1, 1)
    assert (res.primitive_prime.p, res.primitive_prime.norm) == (10009, 10009)
    assert _result_key(res) == _result_key(_primitive_divisor_by_window_factoring(f, 1, 1, 1))


def _count_calls(monkeypatch, target):
    """Wrap the function at the dotted path target; returns its argument list."""
    module, name = target.rsplit(".", 1)
    real = getattr(importlib.import_module(module), name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(target, spy)
    return calls


def test_find_primitive_divisor_factors_only_f_m(monkeypatch):
    calls = _count_calls(monkeypatch, "orbitforge.orbits.factor_element_ideal")
    # f^(10)(1) = 293 * 328901 * 460829 * 58246829 * (a 531-bit prime):
    # 293 is primitive, so trial division answers and nothing is factored
    res = find_primitive_divisor(F_SQ1, 1, 10, 10)
    assert calls == []
    assert res.primitive_prime.norm == 293 and res.excluded_indices == list(range(10))
    # x^2 at 2: the only small prime, 2, divides the window, so f^(3)(2) is factored
    assert find_primitive_divisor(F_SQ, 2, 3, 2).primitive_prime is None
    assert calls == [Q.element(256)]
    # a zero in the window: f^(1)(0) is factored first, as before
    calls.clear()
    assert find_primitive_divisor(Polynomial(Q, [6, 0, 1]), 0, 1, 1).primitive_prime is None
    assert calls == [Q.element(6)]


def test_build_Sk_examples():
    sk2 = build_Sk(F_SQ1, 2)
    assert sk2.rational_primes() == [2]
    sk3 = build_Sk(F_SQ1, 3)
    assert sk3.rational_primes() == [2, 5]
    sk1 = build_Sk(F_SQ1, 1)
    assert sk1.rational_primes() == []  # f(0) = 1 is a unit
    sk_cube = build_Sk(F_CUBE, 1)
    assert sk_cube.rational_primes() == [3]
    with pytest.raises(ValueError):
        build_Sk(F_SQM1, 2)  # 0 periodic


def test_build_Sk_honours_bit_cap():
    # 0-periodicity of x^3 - x + 3 is undecided below 8 bits: refuse, never
    # treat the undecided answer as "not periodic"
    with pytest.raises(ValueError, match="bit cap of 8 bits"):
        build_Sk(F_CUBE, 2, bit_cap=8)
    # decided within 64 bits, but f^5(0) has 129 bits
    with pytest.raises(ValueError, match="bit cap of 64 bits"):
        build_Sk(F_CUBE, 6, bit_cap=64)
    capped = build_Sk(F_CUBE, 4, bit_cap=64)
    assert capped.rational_primes() == build_Sk(F_CUBE, 4).rational_primes()


def test_divisibility_transfer_on_witnesses():
    S235 = S_of(Q, 2, 3, 5)
    for a in range(-10, 11):
        for m in range(1, 5):
            for n in range(0, m):
                try:
                    w = check_s_integer_ratio(iterate_orbit(F_CUBE, a, m), m, n, S235)
                except ZeroDivisionError:
                    continue
                if w is not None:
                    assert divisibility_transfer_holds(F_CUBE, w, S235)
    checked = 0
    for field in (F2, Fm5):
        S = S_of(field, 2, 3, 5)
        f = Polynomial(field, [3, -1, 0, 1])
        for a in range(-2, 3):
            for b in range(-2, 3):
                orbit = iterate_orbit(f, field.element(a, b), 3)
                for m in range(1, 4):
                    if orbit.iterates[m].is_zero():
                        continue
                    for n in range(0, m):
                        w = check_s_integer_ratio(orbit, m, n, S)
                        if w is not None:
                            assert divisibility_transfer_holds(f, w, S)
                            assert _oracle_transfer(f, w, S)
                            checked += 1
    assert checked


def test_divisibility_transfer_honours_bit_cap():
    S235 = S_of(Q, 2, 3, 5)
    # alpha = 1, (m, n) = (2, 0): f^2(0) = 27 has 5 bits
    w = check_s_integer_ratio(iterate_orbit(F_CUBE, 1, 2), 2, 0, S235)
    with pytest.raises(ValueError, match="orbit of 0 .*bit cap of 4 bits"):
        divisibility_transfer_holds(F_CUBE, w, S235, bit_cap=4)
    assert divisibility_transfer_holds(F_CUBE, w, S235, bit_cap=5)
    # alpha = -1, (m, n) = (2, 1): f(0) = 3 fits in 4 bits, f^2(-1) = 27 does not
    w = check_s_integer_ratio(iterate_orbit(F_CUBE, -1, 2), 2, 1, S235)
    with pytest.raises(ValueError, match="below m = 2 by the bit cap of 4 bits"):
        divisibility_transfer_holds(F_CUBE, w, S235, bit_cap=4)
    assert divisibility_transfer_holds(F_CUBE, w, S235, bit_cap=5)


def test_principal_generator_examples():
    p7a, p7b = factor_rational_prime(F2, 7)
    g = principal_generator(p7a, 1)
    assert abs(g.norm()) == 7 and ord_ideal(g, p7a) == 1
    ram = factor_rational_prime(F2, 2)[0]
    g2 = principal_generator(ram, 1)
    assert abs(g2.norm()) == 2
    # class number 2: squares of the split ideals above 3 are principal
    p3a, p3b = factor_rational_prime(Fm5, 3)
    g3 = principal_generator(p3a, 2)
    assert abs(g3.norm()) == 9 and ord_ideal(g3, p3a) == 2 and ord_ideal(g3, p3b) == 0
    # but the ideal itself is not principal
    with pytest.raises(GeneratorSearchError):
        principal_generator(p3a, 1)
    # determinism
    assert principal_generator(p3a, 2) == g3


def test_spart_witness_worked_instance():
    S23 = S_of(Q, 2, 3)
    wit = spart_witness(F_SPLIT, 11, S23)
    assert wit.b == 720
    assert wit.exponents == [4, 2]
    assert wit.quotients == [1, 0] and wit.remainders == [1, 2]
    assert wit.c == 90 and wit.eps == 1
    assert wit.slack_lower == pytest.approx(0.828, abs=1e-3)
    assert wit.slack_upper == pytest.approx(2.485, abs=1e-3)


def test_spart_witness_t0_reduction():
    S_inf = SSet(Q, [])
    wit = spart_witness(F_SPLIT, 11, S_inf)
    assert wit.c == wit.b and wit.quotients == [] and wit.generators == []
    assert wit.slack_upper == pytest.approx(
        height_outside_S_of_inverse(wit.b, S_inf) - height_value(wit.b), abs=1e-9
    )


def test_spart_witness_preconditions():
    S23 = S_of(Q, 2, 3)
    with pytest.raises(ValueError):
        spart_witness(F_CUBE, 1, S23)  # does not split over Q
    with pytest.raises(ZeroDivisionError):
        spart_witness(F_SPLIT, 2, S23)  # f(2) = 0
    with pytest.raises(ValueError):
        spart_witness(F_SPLIT, Q.element(Fraction(1, 2)), S23)


def test_spart_witness_quadratic_instance():
    p7 = factor_rational_prime(F2, 7)
    S7 = SSet(F2, p7)
    b = F2.element(3, 1) ** 2
    wit = spart_witness_from_value(b, 3, S7)
    assert sorted(wit.exponents) == [0, 2]
    assert wit.slack_lower >= 0 and wit.slack_upper >= 0
    # recombination of the S-decomposition against the full norm
    norms = 1
    for P, e in zip(wit.s_ideals, wit.exponents):
        norms *= P.norm**e
    assert abs(int(b.norm())) % norms == 0


def test_spart_witness_random_instances_all_fields():
    rng = random.Random(77)
    prime_pool = [2, 3, 5, 7, 11, 13]
    for field in (Q, F2, Fm5):
        f = Polynomial(field, [-6, 11, -6, 1])
        block = 3 * field.class_number
        for _ in range(100):
            if field.degree == 1:
                alpha = field.element(rng.randrange(-40, 41))
            else:
                alpha = field.element(rng.randrange(-15, 16), rng.randrange(-15, 16))
            b = f(alpha)
            if b.is_zero():
                continue
            chosen = rng.sample(prime_pool, rng.randrange(0, 4))
            ideals = []
            for p in chosen:
                ideals.extend(factor_rational_prime(field, p))
            S = SSet(field, ideals)
            wit = spart_witness(f, alpha, S)
            assert all(0 <= r < block for r in wit.remainders)
            assert wit.slack_lower >= -1e-9 and wit.slack_upper >= -1e-9
            for P, e, q, r in zip(wit.s_ideals, wit.exponents, wit.quotients, wit.remainders):
                assert e == block * q + r
                assert ord_ideal(wit.c, P) == r


@settings(max_examples=300)
@given(st.data())
def test_log_norm_outside_S_matches_factored_height(data):
    F = data.draw(st.sampled_from([Q, F2, Fm1, F5, Fm5]))
    coord = st.integers(-10**12, 10**12)
    b = F.element(data.draw(coord), data.draw(coord) if F.degree == 2 else 0)
    for p in data.draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=6)):
        b = b * F.element(p)
    if b.is_zero():
        return
    ideals = []  # some primes of S keep one ideal only
    for p in data.draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19]), max_size=4, unique=True)):
        above = factor_rational_prime(F, p)
        ideals.extend(above[:1] if data.draw(st.booleans()) else above)
    S = SSet(F, ideals)
    assert math.log(_norm_outside_S(b, S)) / F.degree == pytest.approx(
        height_outside_S_of_inverse(b, S), rel=1e-12
    )


def test_spart_witness_factors_nothing(monkeypatch):
    rng = random.Random(4242)
    p, q = 1000000000039, 2000000000003  # 1/(p*q) needs rho to factor
    cases = [(Q, S_of(Q, p, q), Q.element((p * q) ** 3 + 1))]  # alpha - 1 = (p*q)^3
    for field in (Q, F2, Fm5):
        for _ in range(30):
            a = rng.randrange(-40, 41)
            alpha = field.element(a, rng.randrange(-9, 10) if field.degree == 2 else 0)
            cases.append((field, S_of(field, *rng.sample([2, 3, 5, 7], 2)), alpha))
    calls = [
        _count_calls(monkeypatch, target)
        for target in ("orbitforge.orbits.factor_element_ideal",
                       "orbitforge.heights.factor_element_ideal",
                       "orbitforge.heights.factorize")
    ]
    witnesses = []
    for field, S, alpha in cases:
        f = Polynomial(field, [-6, 11, -6, 1])
        if not f(alpha).is_zero():
            witnesses.append((S, spart_witness(f, alpha, S)))
    assert calls == [[], [], []]
    monkeypatch.undo()
    assert witnesses[0][1].quotients == [1, 1]
    # eps / qdenom has negative orders only at S: its T-height is its height
    lowered = 0
    for S, wit in witnesses[1:]:
        qdenom = wit.b.field.one()
        for g, k in zip(wit.generators, wit.quotients):
            qdenom = qdenom * g**k
        lowered += qdenom != 1
        y = wit.eps / qdenom
        assert height_T(y, S.places()) == pytest.approx(height_value(y), rel=1e-12)
    assert lowered > 10
