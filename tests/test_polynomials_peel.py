"""The p-adic root peel against the rational-root-theorem enumeration it replaced.

The oracle is the old peel: every +-p/q with p dividing the constant term
and q dividing the leading coefficient of the scaled integer coefficients
is tried in turn, each root found is divided out and the search restarts,
and a leftover quadratic gets the square test in the field.  Its work grows
with the divisor counts of the coefficients, so the draws keep them small.
The distinct-root oracle is the old gcd over the base field.

Each polynomial peels itself and takes its squarefree part once; the count
tests hold the bound checks and the splitting data to one of each.
"""

import contextlib
import math
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitforge.cache import FactorCache
from orbitforge.cli import run_command
from orbitforge.config import load_config_text
from orbitforge.constants import resolve_splitting
from orbitforge.fields import make_field
from orbitforge.intfactor import IncompleteFactorization, factorize
from orbitforge.polynomials import (
    Polynomial,
    _divmod_poly,
    poly_gcd,
    splitting_degree,
    splitting_field_disc,
    square_root_in_field,
)

Q = make_field("rational")
FIELDS = (Q,) + tuple(make_field("quadratic", D) for D in (2, -1, 5, -5))


# ---------------------------------------------------------------------------
# the oracle: candidate enumeration by the rational root theorem
# ---------------------------------------------------------------------------


def _divisors(n):
    return sorted({d for i in range(1, math.isqrt(n) + 1) if n % i == 0 for d in (i, n // i)})


def _candidates(g):
    scale = 1
    for c in g.coeffs:
        if c.b != 0:
            return
        scale = scale * c.a.denominator // math.gcd(scale, c.a.denominator)
    ints = [int(c.a * scale) for c in g.coeffs]
    if ints[0] == 0:
        yield Fraction(0)
        return
    for dp in _divisors(abs(ints[0])):
        for dq in _divisors(abs(ints[-1])):
            yield Fraction(dp, dq)
            yield Fraction(-dp, dq)


def _oracle_roots(f):
    field = f.field
    roots = []
    g = f
    changed = True
    while changed and g.degree >= 1:
        changed = False
        for r in _candidates(g):
            if g(field.element(r)).is_zero():
                roots.append(field.element(r))
                g, _ = _divmod_poly(g, Polynomial(field, [-r, 1]))
                changed = True
                break
    if g.degree == 2:
        c0, c1, c2 = g.coeffs
        y = square_root_in_field(field, c1 * c1 - 4 * c0 * c2)
        if y is not None:
            roots += [(-c1 + y) / (2 * c2), (-c1 - y) / (2 * c2)]
    return roots


def _oracle_cofactor(f):
    g = f
    for r in _oracle_roots(f):
        while True:
            q, rem = _divmod_poly(g, Polynomial(f.field, [-r, 1]))
            if rem.degree <= 0 and rem.coeffs[0].is_zero():
                g = q
            else:
                break
    return g


def _oracle_splitting_degree(f):
    g = _oracle_cofactor(f)
    if g.degree <= 0:
        return 1
    if g.degree == 2:
        c0, c1, c2 = g.coeffs
        return 1 if square_root_in_field(f.field, c1 * c1 - 4 * c0 * c2) is not None else 2
    if g.degree == 3:
        c0, c1, c2, c3 = g.coeffs
        disc = (
            18 * c3 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2
            - 4 * c3 * c1**3 - 27 * c3**2 * c0**2
        )
        return 3 if square_root_in_field(f.field, disc) is not None else 6
    return None


def _oracle_splitting_field_disc(f):
    if f.field.degree != 1 or _oracle_splitting_degree(f) != 2:
        return None
    c0, c1, c2 = _oracle_cofactor(f).coeffs
    delta = (c1 * c1 - 4 * c0 * c2).a
    m = delta.numerator * delta.denominator
    sf = math.prod(p for p, e in factorize(abs(m)).items() if e % 2)
    return sf if m > 0 else -sf


def _oracle_distinct_root_count(f):
    if f.degree < 1:
        return 0
    return f.degree - poly_gcd(f, f.derivative()).degree


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------


def _mul(f, g):
    out = [f.field.zero()] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return Polynomial(f.field, out)


@st.composite
def polynomials(draw):
    """lead * prod (x - r_i) * tail: repeated and zero rational roots, rational
    non-integral coefficients, leads other than +-1, and some w-parts."""
    field = draw(st.sampled_from(FIELDS))
    small = st.integers(-5, 5)
    roots = draw(st.lists(
        st.builds(Fraction, small, st.integers(1, 6)), max_size=4,
    ))
    roots += roots[: draw(st.integers(0, 2))]  # repeated roots
    tail_coeffs = draw(st.lists(small, min_size=1, max_size=4))
    if tail_coeffs[-1] == 0:
        tail_coeffs[-1] = 1
    tail = [field.element(c) for c in tail_coeffs]
    if field.degree == 2 and draw(st.booleans()):
        i = draw(st.integers(0, len(tail) - 1))
        tail[i] = tail[i] + field.element(0, draw(st.sampled_from((-2, -1, 1, 3))))
    lead = draw(st.sampled_from((1, -1, 2, -3, 4, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6))))
    f = Polynomial(field, [field.element(lead)])
    for r in roots:
        f = _mul(f, Polynomial(field, [-r, 1]))
    return _mul(f, Polynomial(field, tail))


def _roots(f):
    return f.peeled[0]


READERS = (_roots, splitting_degree, splitting_field_disc, Polynomial.distinct_root_count)


@settings(max_examples=300)
@given(polynomials())
def test_peel_matches_candidate_enumeration(f):
    oracle = [
        tuple(_oracle_roots(f)),
        _oracle_splitting_degree(f),
        _oracle_splitting_field_disc(f),
        _oracle_distinct_root_count(Polynomial(f.field, f.coeffs)),
    ]
    first = [read(f) for read in READERS]
    assert first == oracle
    second = [read(f) for read in reversed(READERS)][::-1]
    assert second == oracle


# ---------------------------------------------------------------------------
# regressions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "coeffs",
    [[10**20 + 39, -1, 0, 1], [1, 0, 0, 2**80 + 13]],
    ids=["x3-x+(10^20+39)", "(2^80+13)x3+1"],
)
def test_large_coefficient_cubics_resolve_fast(coeffs):
    f = Polynomial(Q, coeffs)
    t0 = time.perf_counter()
    with _alarm(5):  # fail, not hang, if a divisor loop comes back
        assert splitting_degree(f) == 6
    assert time.perf_counter() - t0 < 0.1


@contextlib.contextmanager
def _alarm(seconds):
    def _expired(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_large_rational_root_is_found():
    a, b = 2**80 + 13, 10**20 + 39
    f = _mul(Polynomial(Q, [-b, a]), Polynomial(Q, [1, 0, 1]))  # (a x - b)(x^2 + 1)
    with _alarm(5):
        assert f.peeled[0] == (Fraction(b, a),)
    assert splitting_degree(f) == 2
    assert splitting_field_disc(f) == -1


def test_zero_and_constant_polynomials():
    for f in (Polynomial(Q, [0]), Polynomial(Q, [7])):
        assert f.peeled[0] == ()
        assert splitting_degree(f) == 1
        assert splitting_field_disc(f) is None


def test_splitting_field_disc_honours_the_factor_budget():
    f = Polynomial(Q, [-(2**61 - 1) * (2**89 - 1), 0, 1])
    with pytest.raises(IncompleteFactorization):
        splitting_field_disc(f, FactorCache(budget=1000))
    with pytest.raises(IncompleteFactorization):
        resolve_splitting(f, FactorCache(budget=1000))


# ---------------------------------------------------------------------------
# one squarefree gcd and one peel per polynomial
# ---------------------------------------------------------------------------


def _ini(field, coeffs, S, caps=""):
    return (
        f"[field]\n{field}\n\n[poly]\ncoeffs = {coeffs}\n\n[sset]\nideals = {S}\n"
        f"\n[caps]\n{caps}\n"
    )


@pytest.fixture
def counts(monkeypatch):
    calls = {"gcd": 0, "peel": 0}
    gcd, peel = poly_gcd, Polynomial.peeled.func

    def counted_gcd(a, b):
        calls["gcd"] += 1
        return gcd(a, b)

    def counted_peel(f):
        calls["peel"] += 1
        return peel(f)

    monkeypatch.setattr("orbitforge.polynomials.poly_gcd", counted_gcd)
    monkeypatch.setattr(Polynomial.peeled, "func", counted_peel)
    return calls


@pytest.mark.parametrize(
    "command,ini",
    [
        ("constants", _ini("kind = quadratic\nd = 5", "-6,11,-6,1", "2,5,7")),
        (
            "search-dependence",
            _ini("kind = rational", "3,-1,0,1", "2,3,5",
                 f"height_cap = {math.log(200)!r}\nm_max = 4"),
        ),
    ],
    ids=["constants-(x-1)(x-2)(x-3)-Q(sqrt5)", "search-dependence-x3-x+3-Q"],
)
def test_command_takes_one_gcd_and_one_peel(command, ini, counts, tmp_path):
    cfg = load_config_text(ini)
    assert run_command(command, cfg, str(tmp_path), FactorCache(budget=cfg.factor_budget)) == 0
    assert counts == {"gcd": 1, "peel": 1}


def test_resolve_splitting_peels_once(counts):
    sp = resolve_splitting(Polynomial(Q, [1, 0, 1]))
    assert (sp.degree_D, sp.class_number_L) == (2, 1)
    assert counts == {"gcd": 1, "peel": 1}
