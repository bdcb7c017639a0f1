import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from orbitforge.constants import (
    A1,
    A2,
    A3,
    CParams,
    SplittingData,
    SplittingDataError,
    eta1_inverse,
    eta2_inverse,
    gyory_yu_height_bound,
    lambda_bound_shape,
    log_star,
    northcott_bound,
    resolve_splitting,
    splitting_transfer_params,
    voutier_delta,
    zsigmondy_window,
)
from orbitforge.fields import make_field
from orbitforge.ideals import SSet, factor_rational_prime
from orbitforge.polynomials import Polynomial

Q = make_field("rational")
F2 = make_field("quadratic", 2)
F_SPLIT = Polynomial(Q, [-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
S_INF = SSet(Q, [])


def S_of(field, *primes):
    return SSet(field, [P for p in primes for P in factor_rational_prime(field, p)])


def test_log_star():
    assert log_star(0) == 1.0
    assert log_star(1) == 1.0
    assert log_star(math.e) == 1.0
    assert log_star(math.e**2) == pytest.approx(2.0)


def test_A1_values():
    assert A1(1, 1) == pytest.approx(128 * math.log(2), abs=1e-9)
    expected = 3.0**9.5 * 2.0**21 * math.log(6) * 2.0**6
    assert A1(2, 3) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(8.199e12, rel=1e-3)
    assert A1(1, 1) / A1(1, 1) == 1.0
    with pytest.raises(ValueError):
        A1(0.5, 1)


def test_A2_values():
    assert A2(1, 1) == 2048.0
    assert A2(2, 3) == pytest.approx(4096.0**3 * 3.0**3.5, rel=1e-12)
    assert A2(2, 3) == pytest.approx(3.2138e12, rel=1e-3)
    for u in (1, 2, 4):
        assert A2(u, 1) / u == pytest.approx(2048.0)
    with pytest.raises(ValueError):
        A2(1, 0)


def test_monotonicity_spot_checks():
    assert A1(2, 1) > A1(1, 1) and A1(1, 2) > A1(1, 1)
    assert A2(3, 2) > A2(2, 2) and A2(2, 3) > A2(2, 2)
    for lo, hi in ((1.0, 2.0), (2.0, math.e), (3.0, 10.0), (10.0, 100.0)):
        assert lambda_bound_shape(hi) > lambda_bound_shape(lo)


def test_voutier_delta():
    assert voutier_delta(1) == pytest.approx(math.log(2))
    assert voutier_delta(2) == pytest.approx(math.log(2) / 2)
    assert voutier_delta(4) == pytest.approx(
        0.25 * (math.log(math.log(4)) / math.log(4)) ** 3
    )
    assert voutier_delta(4) == pytest.approx(0.0032687, rel=1e-3)
    with pytest.raises(ValueError):
        voutier_delta(0)


def test_A3():
    assert A3(F2) == pytest.approx(0.5)
    assert A3(make_field("quadratic", 3)) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        A3(Q)
    with pytest.raises(ValueError):
        A3(make_field("quadratic", -5))


def test_sset_params_examples():
    assert (S_INF.s, S_INF.t, S_INF.P, S_INF.Q, S_INF.T_sum) == (1, 0, 1, 1, 0.0)
    S23 = S_of(Q, 2, 3)
    assert (S23.s, S23.t, S23.P, S23.Q) == (3, 2, 3, 6)
    assert S23.T_sum == pytest.approx(2.0)  # log log 2 and log log 3 both below 1
    ram = S_of(F2, 2)
    assert (ram.t, ram.P, ram.Q) == (1, 2, 2)


def test_eta1_examples():
    e = eta1_inverse(F_SPLIT, S_INF)
    assert e == pytest.approx(128 * math.log(2), rel=1e-12)
    S23 = S_of(Q, 2, 3)
    expected = (
        A1(1, 3) * 2 * 3 * (math.log(3) + 2.0) * (1.0 * math.log(3))
    )
    assert eta1_inverse(F_SPLIT, S23) == pytest.approx(expected, rel=1e-12)


def test_eta_preconditions():
    with pytest.raises(ValueError):
        eta1_inverse(Polynomial(Q, [0, 0, 1]), S_INF)  # x^2: one distinct root
    with pytest.raises(ValueError):
        eta2_inverse(F_SPLIT, S_INF)  # t = 0


def test_eta2_example():
    S23 = S_of(Q, 2, 3)
    expected = A2(1, 2) * 2 * 3 * (1.0 * math.log(3))
    assert eta2_inverse(F_SPLIT, S23) == pytest.approx(expected, rel=1e-12)


def test_eta_in_unit_interval():
    for S in (S_INF, S_of(Q, 2), S_of(Q, 2, 3, 5)):
        v = 1 / eta1_inverse(F_SPLIT, S)
        assert 0 < v < 1
        if S.t:
            assert 0 < 1 / eta2_inverse(F_SPLIT, S) < 1


def test_gyory_yu_examples():
    assert gyory_yu_height_bound(1, Q, S_INF, 0.0) == pytest.approx(
        A1(1, 1), rel=1e-12
    )
    b0 = gyory_yu_height_bound(1, Q, S_of(Q, 2, 3), 0.0)
    b1 = gyory_yu_height_bound(1, Q, S_of(Q, 2, 3), 1.0)
    assert b1 > b0
    assert b1 / b0 == pytest.approx((math.log(6) + 1) / math.log(6), rel=1e-12)
    S23 = S_of(Q, 2, 3)
    expected = A2(1, 2) * math.log(6) * (3.0 / math.log(3)) * (1.0 * math.log(3))
    assert gyory_yu_height_bound(2, Q, S23, 0.0) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        gyory_yu_height_bound(2, Q, S_INF, 0.0)


def test_resolve_splitting():
    sp = resolve_splitting(F_SPLIT)
    assert sp.degree_D == 1 and sp.class_number_L == 1
    sp2 = resolve_splitting(Polynomial(Q, [1, 0, 1]))
    assert sp2.degree_D == 2 and sp2.class_number_L == 1  # Q(i)
    spm5 = resolve_splitting(Polynomial(Q, [5, 0, 1]))
    assert spm5.degree_D == 2 and spm5.class_number_L == 2  # Q(sqrt(-5))
    sp6 = resolve_splitting(Polynomial(Q, [3, -1, 0, 1]))
    assert sp6.degree_D == 6 and sp6.class_number_L is None
    sp_cfg = SplittingData(6, 4)
    assert sp_cfg.class_number_L == 4
    with pytest.raises(SplittingDataError):
        resolve_splitting(Polynomial(Q, [2, 0, 0, 0, 1]))
    with pytest.raises(SplittingDataError):
        eta2_inverse(Polynomial(Q, [3, -1, 0, 1]), S_of(Q, 2))


def test_northcott_bound_examples():
    rep = northcott_bound(F_SPLIT, S_INF, zero_periodic=False)
    assert rep.northcott_bound_h == pytest.approx(128 * math.log(2), rel=1e-12)
    assert rep.eta2_inv is None and rep.northcott_bound_h2 is None
    rep2 = northcott_bound(F_SPLIT, S_INF, CParams(c2=2.0), zero_periodic=False)
    assert rep2.northcott_bound_h == pytest.approx(2 * rep.northcott_bound_h)
    with pytest.raises(ValueError):
        northcott_bound(Polynomial(Q, [-1, 0, 1]), S_INF, zero_periodic=True)
    with pytest.raises(ValueError):
        northcott_bound(F_SPLIT, S_INF, zero_periodic=None)
    repS = northcott_bound(F_SPLIT, S_of(Q, 2, 3), zero_periodic=False)
    assert repS.eta2_inv is not None and repS.northcott_bound_h2 is not None
    assert repS.log_star_substituted  # norm-2 ideal present


def test_report_reproducibility():
    a = northcott_bound(F_SPLIT, S_of(Q, 2, 5), zero_periodic=False)
    b = northcott_bound(F_SPLIT, S_of(Q, 2, 5), zero_periodic=False)
    assert a.rows() == b.rows()


def test_lambda_shape_and_window():
    assert lambda_bound_shape(math.e) == pytest.approx(math.e)
    assert lambda_bound_shape(0.0) == 0.0
    assert zsigmondy_window(1.0) == 0
    assert zsigmondy_window(math.exp(10), 0.3) == 3
    with pytest.raises(ValueError):
        lambda_bound_shape(-1.0)
    with pytest.raises(ValueError):
        zsigmondy_window(0.5)


def test_splitting_transfer_inequalities():
    for m, primes in ((-1, (2, 3)), (2, (2, 3, 5)), (-5, (3, 7))):
        L = make_field("quadratic", m)
        S = S_of(Q, *primes)
        rep = splitting_transfer_params(Q, L, S)
        assert rep["D"] == 2
        assert rep["holds_d"] and rep["holds_t"] and rep["holds_s"] and rep["holds_P"]


@given(st.lists(st.floats(), min_size=7, max_size=7))
def test_c_params_as_dict_is_a_fresh_asdict(values):
    c = CParams(*values)
    d = c.as_dict()
    assert repr(d) == repr(dataclasses.asdict(c))  # same keys, order and values, nan included
    d["c1"] = "changed"
    assert c.c1 is values[0] and c.as_dict()["c1"] is values[0]
