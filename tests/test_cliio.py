import csv
import json
import math
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from orbitforge.cache import CacheError, FactorCache, int_str_limit
from orbitforge.cli import main, run_command, write_report
from orbitforge.config import ConfigError, load_config, load_config_text, parse_s_selectors
from orbitforge.constants import SplittingData
from orbitforge.fields import make_field
from orbitforge.intfactor import DEFAULT_RHO_BUDGET, factorize, is_prime
from orbitforge.search import CampaignReport

MINIMAL = """
[field]
kind = rational

[poly]
coeffs = 3,-1,0,1

[sset]
ideals = 2,3,5
"""


def test_load_minimal_config_defaults():
    cfg = load_config_text(MINIMAL)
    assert cfg.field.kind == "rational"
    assert [int(c.a) for c in cfg.f.coeffs] == [3, -1, 0, 1]
    assert cfg.S.rational_primes() == [2, 3, 5]
    assert cfg.c_params.c1 == 1.0 and cfg.c_params.c7 == 1.0
    assert cfg.m_max == 8 and cfg.bit_cap == 10**6


def test_config_c_param_passthrough():
    cfg = load_config_text(MINIMAL + "\n[c_params]\nc4 = 0.5\n")
    assert cfg.c_params.c4 == 0.5 and cfg.c_params.c1 == 1.0


def test_config_round_trip():
    rest = "\n[c_params]\nc4 = 0.5\n\n[caps]\nheight_cap = 3.912023005428146\nm_max = 4\n"
    with_splitting = MINIMAL.replace(
        "coeffs = 3,-1,0,1\n",
        "coeffs = 3,-1,0,1\nsplitting_degree = 6\nclass_number_l = 1\n",
    )
    for text in (MINIMAL + rest, with_splitting + rest):
        cfg = load_config_text(text)
        cfg2 = load_config_text(cfg.to_ini())
        assert cfg2.to_ini() == cfg.to_ini()
        assert cfg2.height_cap == cfg.height_cap
        assert cfg2.c_params == cfg.c_params
        assert cfg2.S.ideal_selectors() == cfg.S.ideal_selectors()
        assert cfg2.splitting == cfg.splitting
    assert cfg.splitting == SplittingData(6, 1)


def test_config_rejections():
    with pytest.raises(ConfigError):
        load_config_text(MINIMAL + "\n[caps]\nbogus_key = 1\n")
    with pytest.raises(ConfigError):
        load_config_text(MINIMAL + "\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config_text("[field]\nkind = quadratic\nd = 12\n")  # not squarefree
    with pytest.raises(ConfigError):
        load_config_text("[field]\nkind = septic\n")
    with pytest.raises(ConfigError):
        load_config_text("[field]\nkind = rational\n\n[poly]\ncoeffs = 1/2,1\n")
    with pytest.raises(ConfigError):
        load_config_text("not ini at all [ ]][")
    for key, value in (("m_max", -1), ("bit_cap", -5), ("factor_budget", -1), ("element_cap", -1)):
        with pytest.raises(ConfigError, match=f"caps.{key}"):
            load_config_text(MINIMAL + f"\n[caps]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match="splitting_degree.*class_number_l"):
        load_config_text(MINIMAL.replace("coeffs = 3,-1,0,1\n", "coeffs = 3,-1,0,1\nclass_number_l = 1\n"))
    with pytest.raises(ConfigError, match=r"unknown keys in \[poly\]: \['regulator_l'\]"):
        load_config_text(MINIMAL.replace(
            "coeffs = 3,-1,0,1\n", "coeffs = 3,-1,0,1\nsplitting_degree = 6\nregulator_l = 0.5\n"))
    # a value that does not parse, or is out of range, is refused naming its key
    poly = "coeffs = 3,-1,0,1\n"
    for bad, message in (
        (("[field]\nkind = rational\n", "[field]\nkind = quadratic\nd = two\n"), "field.d must be an integer"),
        (("[sset]", "[caps]\nheight_cap = abc\n\n[sset]"), "caps.height_cap must be a number"),
        ((poly, poly + "splitting_degree = six\n"), "poly.splitting_degree must be an integer"),
        ((poly, poly + "splitting_degree = 0\n"), "poly.splitting_degree must be >= 1"),
        ((poly, poly + "splitting_degree = 6\nclass_number_l = 0\n"), "poly.class_number_l must be >= 1"),
        (("[sset]", "[c_params]\nc1 = x\n\n[sset]"), "c_params.c1 must be a number"),
        ((poly, "coeffs = 3,-1,,1\n"), "poly.coeffs must be a number, got ''"),
        ((poly, "coeffs = 3,1/0,1\n"), "poly.coeffs must be a number"),
        (("[sset]", "[run]\nh_beta = abc\n\n[sset]"), "run.h_beta must be a number"),
    ):
        text = MINIMAL.replace(*bad)
        assert text != MINIMAL
        with pytest.raises(ConfigError, match=message):
            load_config_text(text)
    for key in ("x_bound", "variant"):
        with pytest.raises(ConfigError, match=key):
            load_config_text(MINIMAL + f"\n[run]\n{key} = 1\n")
    for key, value in (("sample_count", -3), ("n_max", -1)):
        with pytest.raises(ConfigError, match=f"run.{key} must be >= 0"):
            load_config_text(MINIMAL + f"\n[run]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match="run.m must be an integer"):
        load_config_text(MINIMAL + "\n[run]\nm = three\n")


def test_s_selector_grammar():
    F2 = make_field("quadratic", 2)
    S = parse_s_selectors(F2, "7a, 2")
    assert {(P.p, P.kind) for P in S.ideals} == {(7, "split-a"), (2, "ramified")}
    with pytest.raises(ConfigError):
        parse_s_selectors(F2, "5a")  # 5 is inert: no tagged ideal
    with pytest.raises(ConfigError):
        parse_s_selectors(F2, "x")


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "cache.txt")
    c = FactorCache(path)
    fac = c.lookup_or_factor(720)
    assert fac == {2: 4, 3: 2, 5: 1}
    assert c.lookup_or_factor(2) == {2: 1}
    c2 = FactorCache(path)
    assert len(c2) == 2
    assert c2.lookup_or_factor(720) == fac


def test_cache_large_value_hit(tmp_path):
    path = str(tmp_path / "cache.txt")
    c = FactorCache(path)
    fac = c.lookup_or_factor(210066388901)
    prod = 1
    for p, e in fac.items():
        prod *= p**e
    assert prod == 210066388901
    before = len(c)
    assert c.lookup_or_factor(210066388901) == fac
    assert len(c) == before


def test_cache_corruption_detected(tmp_path):
    path = str(tmp_path / "cache.txt")
    with open(path, "w") as fh:
        fh.write("# orbitforge-factor-cache v1\n720 = 2^4 * 3^2\n")
    with pytest.raises(CacheError) as ei:
        FactorCache(path)
    assert "line 2" in str(ei.value)


def test_cache_false_prime_detected(tmp_path):
    # 399165290221 * 798330580441, a strong pseudoprime to the prime bases <= 37
    psi12 = 318665857834031151167461
    path = str(tmp_path / "cache.txt")
    with open(path, "w") as fh:
        fh.write(f"# orbitforge-factor-cache v1\n{psi12} = {psi12}\n")
    cache = FactorCache(path)
    for _ in range(2):  # a record that fails its proof is never returned
        with pytest.raises(CacheError) as ei:
            cache.lookup_or_factor(psi12)
        assert "line 2" in str(ei.value)


def test_cache_duplicate_detected(tmp_path):
    path = str(tmp_path / "cache.txt")
    with open(path, "w") as fh:
        fh.write("# orbitforge-factor-cache v1\n6 = 2 * 3\n6 = 2 * 3\n")
    with pytest.raises(CacheError):
        FactorCache(path)


def test_cache_header_required(tmp_path):
    path = str(tmp_path / "cache.txt")
    with open(path, "w") as fh:
        fh.write("6 = 2 * 3\n")
    with pytest.raises(CacheError):
        FactorCache(path)


def test_cache_error_names_the_line_and_its_length_not_the_record(tmp_path):
    # 2^16384 has 4,933 digits: an error must not print the record
    path = str(tmp_path / "cache.txt")
    with int_str_limit(0):
        n = str(2**16384)
        n_plus_1 = str(2**16384 + 1)
    loads = {
        "syntax": f"{n[:2000]}x{n[2001:]} = 2^16384",
        "product": f"{n_plus_1} = 2^16384",
        "factor": f"{n} = 2^16384 * 1^7",
        "repeated": f"{n} = 2^16383 * 2",
        "duplicate": f"{n} = 2^16384\n{n} = 2^16384",
    }
    for why, records in loads.items():
        with open(path, "w") as fh:
            fh.write(f"# orbitforge-factor-cache v1\n{records}\n")
        with pytest.raises(CacheError) as ei:
            FactorCache(path)
        message = str(ei.value)
        assert len(message) < 200, why
        assert ("line 3" if why == "duplicate" else "line 2") in message, why
    with open(path, "w") as fh:
        fh.write(f"# orbitforge-factor-cache v1\n{n} = 4^8192\n")
    with pytest.raises(CacheError) as ei:
        FactorCache(path).lookup_or_factor(2**16384)
    assert len(str(ei.value)) < 200 and "line 2" in str(ei.value)


def test_cache_proves_a_record_on_its_first_hit_only(tmp_path, monkeypatch):
    path = str(tmp_path / "cache.txt")
    values = [720, 210066388901, 2**61 - 1, 6 * (2**31 - 1), 1000003 * 1000033]
    writer = FactorCache(path)
    facs = {n: writer.lookup_or_factor(n) for n in values}
    proved = []

    def counting_is_prime(p):
        proved.append(p)
        return is_prime(p)

    monkeypatch.setattr("orbitforge.cache.is_prime", counting_is_prime)
    reader = FactorCache(path)
    assert len(reader) == len(values) and proved == []
    for n in values:
        assert reader.lookup_or_factor(n) == facs[n]
        assert sorted(proved) == sorted(facs[n])
        proved.clear()
        assert reader.lookup_or_factor(n) == facs[n]
        assert proved == []
    # records factorize adds in this run are proved by factorize itself
    assert reader.lookup_or_factor(2**89 - 1) == factorize(2**89 - 1)
    assert reader.lookup_or_factor(2**89 - 1) == factorize(2**89 - 1)
    assert proved == []


@given(st.lists(st.integers(2, 10**15), max_size=12))
@settings(max_examples=40)
def test_cache_reloaded_from_its_file_returns_factorize(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.txt")
        writer = FactorCache(path)
        for n in values:
            writer.lookup_or_factor(n)
        reader = FactorCache(path)
        assert len(reader) == len(set(values))
        for n in values:
            assert reader.lookup_or_factor(n) == factorize(n)


def _write_cfg(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return str(p)


def test_cli_end_to_end_constants(tmp_path):
    cfgp = _write_cfg(
        tmp_path,
        "[field]\nkind = rational\n\n[poly]\ncoeffs = -6,11,-6,1\n\n[sset]\nideals =\n",
    )
    out = str(tmp_path / "out")
    code = main(["constants", "--config", cfgp, "--out", out])
    assert code == 0
    rows = [json.loads(l) for l in open(os.path.join(out, "constants.jsonl"))]
    bounds = [r for r in rows if r["type"] == "effective_bounds"]
    assert bounds and bounds[0]["eta1_inv"] == pytest.approx(128 * math.log(2))


def test_cli_primitive_divisor_example(tmp_path):
    cfgp = _write_cfg(
        tmp_path,
        "[field]\nkind = rational\n\n[poly]\ncoeffs = 1,0,1\n\n[sset]\nideals =\n"
        "\n[run]\nalpha = 1\nm = 3\nk = 3\n",
    )
    out = str(tmp_path / "out")
    assert main(["primitive-divisors", "--config", cfgp, "--out", out]) == 0
    rows = [json.loads(l) for l in open(os.path.join(out, "primitive-divisors.jsonl"))]
    hit = [r for r in rows if r["type"] == "primitive_divisor"][0]
    assert hit["norm"] == 13


def test_cli_orbit_single_row(tmp_path):
    cfgp = _write_cfg(
        tmp_path,
        "[field]\nkind = rational\n\n[poly]\ncoeffs = 1,0,1\n\n[sset]\nideals =\n"
        "\n[run]\nalpha = 7\nm = 0\n",
    )
    out = str(tmp_path / "out")
    assert main(["orbit", "--config", cfgp, "--out", out]) == 0
    rows = [json.loads(l) for l in open(os.path.join(out, "orbit.jsonl"))]
    orbit_rows = [r for r in rows if r["type"] == "orbit_row"]
    assert len(orbit_rows) == 1 and orbit_rows[0]["value"] == "7"


def test_cli_error_exit_code(tmp_path):
    cfgp = _write_cfg(tmp_path, "[field]\nkind = quadratic\nd = 12\n")
    assert main(["constants", "--config", cfgp, "--out", str(tmp_path)]) == 1


def test_cli_repeated_roots_rejected_before_work(tmp_path):
    cfgp = _write_cfg(
        tmp_path,
        "[field]\nkind = rational\n\n[poly]\ncoeffs = 0,0,1\n\n[sset]\nideals = 2\n"
        "\n[run]\nsample_count = 3\n\n[caps]\nheight_cap = 1.0\n",
    )
    assert main(["verify-spart", "--config", cfgp, "--out", str(tmp_path)]) == 1


def test_csv_and_jsonl_numeric_twins(tmp_path):
    rep = CampaignReport(
        "demo", {"k": 1}, [{"type": "row", "m": 3, "x": 0.1 + 0.2, "s": "t"}]
    )
    jpath, cpath = write_report(rep, str(tmp_path), "demo")
    jrow = [json.loads(l) for l in open(jpath)][1]
    with open(cpath, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1]
    got = dict(zip(header, data))
    assert got["x"] == json.dumps(jrow["x"])  # identical textual float
    assert got["m"] == "3"


def test_cli_search_dependence_partial_flag_and_shards(tmp_path):
    cfgp = _write_cfg(
        tmp_path,
        "[field]\nkind = rational\n\n[poly]\ncoeffs = 3,-1,0,1\n"
        "splitting_degree = 6\nclass_number_l = 1\n\n[sset]\nideals = 2,3,5\n"
        "\n[caps]\nheight_cap = 2.0\nm_max = 3\n",
    )
    out1 = str(tmp_path / "o1")
    out4 = str(tmp_path / "o4")
    assert main(["search-dependence", "--config", cfgp, "--out", out1]) == 0
    assert main(["search-dependence", "--config", cfgp, "--out", out4]) == 0
    a = open(os.path.join(out1, "search-dependence.jsonl")).read()
    b = open(os.path.join(out4, "search-dependence.jsonl")).read()
    assert a == b


def _rows(out, command):
    return [json.loads(l) for l in open(os.path.join(out, f"{command}.jsonl"))]


def test_cli_witness_past_bit_cap_is_a_skip(tmp_path):
    cfgp = _write_cfg(
        tmp_path,
        "[field]\nkind = rational\n\n[poly]\ncoeffs = 3,-1,0,1\n\n[sset]\nideals = 2,3,5\n"
        "\n[caps]\nbit_cap = 64\n\n[run]\nalpha = 2\nm = 6\nn = 1\n",
    )
    out = str(tmp_path / "out")
    assert main(["witness", "--config", cfgp, "--out", out]) == 2
    rows = _rows(out, "witness")
    skips = [r for r in rows if r["type"] == "skip"]
    assert len(skips) == 1 and skips[0]["reason"].startswith("bit-cap")
    assert skips[0]["m"] == 6 and skips[0]["n"] == 1
    assert not [r for r in rows if r["type"] in ("witness", "no_witness")]


def test_cli_primitive_divisors_honours_bit_cap(tmp_path, capsys):
    cfgp = _write_cfg(
        tmp_path,
        "[field]\nkind = rational\n\n[poly]\ncoeffs = 1,0,1\n\n[sset]\nideals =\n"
        "\n[caps]\nbit_cap = 64\n\n[run]\nalpha = 1\nm = 8\n",
    )
    assert main(["primitive-divisors", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert "bit cap of 64" in capsys.readouterr().err


def test_cli_witness_rejects_non_integral_alpha(tmp_path, capsys):
    cfgp = _write_cfg(
        tmp_path,
        "[field]\nkind = rational\n\n[poly]\ncoeffs = 1,0,1\n\n[sset]\nideals = 2\n"
        "\n[run]\nalpha = 1/2\nm = 2\nn = 1\n",
    )
    assert main(["witness", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert "integral" in capsys.readouterr().err


def test_cli_zero_periodicity_honours_bit_cap(tmp_path, capsys):
    # the certificate for x^3 - x + 3 needs f^3(0) = 19659, a 15-bit value
    cfgp = _write_cfg(
        tmp_path,
        "[field]\nkind = rational\n\n[poly]\ncoeffs = 3,-1,0,1\n"
        "splitting_degree = 6\nclass_number_l = 1\n\n[sset]\nideals = 2,3,5\n"
        "\n[caps]\nheight_cap = 2.0\nm_max = 2\nbit_cap = 8\n",
    )
    for command in ("search-dependence", "constants"):
        assert main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "0-periodicity unknown" in err and "bit cap of 8" in err, command


def _ini(coeffs, S, caps="", run=""):
    return (
        f"[field]\nkind = rational\n\n[poly]\ncoeffs = {coeffs}\n\n[sset]\nideals = {S}\n"
        + (f"\n[caps]\n{caps}\n" if caps else "")
        + (f"\n[run]\n{run}\n" if run else "")
    )


# two 40-bit primes: rho needs more steps than a factor budget of 10
PQ = 1000000000039 * 2000000000003

# (command, tag, config, exit code); every command once to completion and
# once per cap that cuts it into skip rows
CONTRACT = [
    ("heights", "done", _ini("3,-1,0,1", "2,3,5", run="alpha = 12"), 0),
    ("constants", "done", _ini("3,-1,0,1", "2,3,5"), 0),
    ("orbit", "done", _ini("1,0,1", "", run="alpha = 1\nm = 3"), 0),
    ("orbit", "bit-cap", _ini("1,0,1", "", "bit_cap = 64", "alpha = 1\nm = 10"), 2),
    ("witness", "done", _ini("3,-1,0,1", "2,3,5", run="alpha = 2\nm = 3\nn = 1"), 0),
    ("witness", "bit-cap", _ini("3,-1,0,1", "2,3,5", "bit_cap = 64", "alpha = 2\nm = 6\nn = 1"), 2),
    ("search-dependence", "done", _ini("3,-1,0,1", "2,3,5", "height_cap = 2\nm_max = 3"), 0),
    ("search-dependence", "element-cap",
     _ini("3,-1,0,1", "2,3,5", "height_cap = 2\nm_max = 3\nelement_cap = 2"), 2),
    ("search-dependence", "bit-cap",
     _ini("3,-1,0,1", "2,3,5", "height_cap = 2\nm_max = 6\nbit_cap = 64"), 2),
    ("sunit-scan", "done", _ini("1,0,1", "2,5", "height_cap = 2", "n_max = 3"), 0),
    ("sunit-scan", "element-cap", _ini("1,0,1", "2,5", "height_cap = 2\nelement_cap = 2", "n_max = 3"), 2),
    ("sunit-scan", "bit-cap", _ini("1,0,1", "2,5", "height_cap = 2\nbit_cap = 16", "n_max = 6"), 2),
    ("primitive-divisors", "done", _ini("1,0,1", "", run="alpha = 1\nm = 3"), 0),
    ("primitive-divisors", "factor-budget",
     _ini(f"{-PQ},0,1", "", "factor_budget = 10", "alpha = 0\nm = 1"), 2),
    ("lambda-report", "done", _ini("3,-1,0,1", "2,3,5", run="alpha = 2\nm = 3"), 0),
    ("lambda-report", "factor-budget", _ini("3,-1,0,1", "2,3,5", "factor_budget = 1", "alpha = 2\nm = 4"), 2),
    ("lambda-report", "bit-cap", _ini("3,-1,0,1", "2,3,5", "bit_cap = 64", "alpha = 2\nm = 6"), 2),
    ("verify-spart", "done", _ini("0,2,-3,1", "2,3", "height_cap = 3", "alpha = 7\nsample_count = 3"), 0),
    ("verify-spart", "element-cap",
     _ini("0,2,-3,1", "2,3", "height_cap = 3\nelement_cap = 3", "sample_count = 10"), 2),
]


@pytest.mark.parametrize(
    "command,ini,want", [(c, i, w) for c, _, i, w in CONTRACT], ids=[f"{c}-{t}" for c, t, _, _ in CONTRACT]
)
def test_exit_2_iff_skip_row_iff_partial(command, ini, want, tmp_path, monkeypatch):
    monkeypatch.delenv("ORBITFORGE_CACHE", raising=False)
    out = str(tmp_path / "out")
    code = main([command, "--config", _write_cfg(tmp_path, ini), "--out", out])
    rows = _rows(out, command)
    assert code == want
    has_skip = any(r["type"] == "skip" for r in rows)
    assert (code == 2) == has_skip == rows[0]["partial"]


def _spy_factorize(monkeypatch):
    """Record (n, budget) of every factorize call made through any module."""
    calls = []

    def spy(n, budget=DEFAULT_RHO_BUDGET):
        calls.append((n, budget))
        return factorize(n, budget)

    for module in ("cache", "fields", "heights", "ideals", "polynomials"):
        monkeypatch.setattr(f"orbitforge.{module}.factorize", spy)
    return calls


def test_cli_verify_spart_witness_factors_nothing(tmp_path, monkeypatch):
    # the config that once cut the witness with a factor-budget skip row
    monkeypatch.delenv("ORBITFORGE_CACHE", raising=False)
    calls = _spy_factorize(monkeypatch)
    cfgp = _write_cfg(tmp_path, _ini("0,2,-3,1", "2,3", "factor_budget = 10", f"alpha = {PQ}"))
    out = str(tmp_path / "out")
    assert main(["verify-spart", "--config", cfgp, "--out", out]) == 0
    assert [r["type"] for r in _rows(out, "verify-spart")] == ["provenance", "spart_witness"]
    assert calls == []


@pytest.mark.parametrize("command", ["orbit", "lambda-report"])
def test_cli_heights_of_iterates_honour_the_factor_budget(command, tmp_path, monkeypatch):
    # x^2 + 1 at 1/6: every iterate has a denominator, so its height factors
    monkeypatch.delenv("ORBITFORGE_CACHE", raising=False)
    calls = _spy_factorize(monkeypatch)
    cfgp = _write_cfg(
        tmp_path, _ini("1,0,1", "2", "factor_budget = 12345", "alpha = 1/6\nn = 1\nm = 3")
    )
    assert main([command, "--config", cfgp, "--out", str(tmp_path / "out")]) == 0
    assert {n for n, _ in calls} >= {6**2, 6**4} and {b for _, b in calls} == {12345}


def test_cli_orbit_prints_iterates_past_the_default_int_str_limit(tmp_path):
    # f^(15)(1) for x^2 + 1 has 19,258 bits (5,798 digits): past Python's
    # default limit of 4,300 digits, far below the default bit cap
    cfgp = _write_cfg(tmp_path, _ini("1,0,1", "", run="alpha = 1\nm = 15"))
    out = str(tmp_path / "out")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert main(["orbit", "--config", cfgp, "--out", out]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    x = 1
    for _ in range(15):
        x = x * x + 1
    value = _rows(out, "orbit")[-1]["value"]
    assert len(value) == 5798 and value.isdigit()
    assert value[-30:] == "%030d" % (x % 10**30)


def test_cli_cache_records_past_the_default_int_str_limit_reload(tmp_path, monkeypatch):
    # f^(14)(2) for x^2 is 2^16384 (4,933 digits): trial division factors it,
    # and its record must load again at Python's default limit of 4,300 digits
    cache_path = str(tmp_path / "factors.txt")
    monkeypatch.setenv("ORBITFORGE_CACHE", cache_path)
    cfgp = _write_cfg(tmp_path, _ini("0,0,1", "", run="alpha = 2\nm = 14"))
    for i in range(2):
        assert main(["primitive-divisors", "--config", cfgp, "--out", str(tmp_path / f"o{i}")]) == 0
    assert FactorCache(cache_path).lookup_or_factor(2**16384) == {2: 16384}


def test_cli_cache_record_is_proved_when_a_command_reads_it(tmp_path, monkeypatch, capsys):
    # "26 = 26" passes every load check; only its primality proof fails
    bad = tmp_path / "bad.txt"
    bad.write_text("# orbitforge-factor-cache v1\n26 = 26\n")
    reads_26 = _write_cfg(tmp_path, _ini("1,0,1", "", run="alpha = 26"))
    monkeypatch.setenv("ORBITFORGE_CACHE", str(bad))
    assert main(["heights", "--config", reads_26, "--out", str(tmp_path / "o")]) == 1
    assert "line 2" in capsys.readouterr().err
    misses_26 = str(tmp_path / "misses_26.ini")
    with open(misses_26, "w") as fh:
        fh.write(_ini("1,0,1", "", run="alpha = 1\nm = 2"))
    outs = {}
    for name, cache in (("bad", bad), ("clean", tmp_path / "clean.txt")):
        monkeypatch.setenv("ORBITFORGE_CACHE", str(cache))
        out = tmp_path / f"out-{name}"
        assert main(["primitive-divisors", "--config", misses_26, "--out", str(out)]) == 0
        outs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert outs["bad"] == outs["clean"] and outs["bad"]


def test_cli_primitive_divisor_below_the_trial_bound_needs_no_factor_budget(tmp_path, monkeypatch):
    # f(1) = 293 * PQ: 293 answers by trial division, so the budget of 10
    # that cuts PQ is never spent, and the cache gains no record
    cache_path = tmp_path / "factors.txt"
    monkeypatch.setenv("ORBITFORGE_CACHE", str(cache_path))
    cfgp = _write_cfg(tmp_path, _ini(f"{293 * PQ - 1},0,1", "", "factor_budget = 10", "alpha = 1\nm = 1"))
    out = str(tmp_path / "out")
    assert main(["primitive-divisors", "--config", cfgp, "--out", out]) == 0
    assert [r["norm"] for r in _rows(out, "primitive-divisors")[1:]] == [293]
    assert cache_path.read_text().splitlines()[1:] == []


def test_cli_alpha_longer_than_the_bit_cap_allows_is_refused(tmp_path, capsys):
    # bit_cap = 10^4 lets str <-> int take 6,021 digits; alpha has 7,000
    cfgp = _write_cfg(tmp_path, _ini("1,0,1", "", "bit_cap = 10000", f"alpha = {'1' * 7000}\nm = 1"))
    assert main(["orbit", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert "limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,ini,message",
    [
        ("lambda-report", _ini("3,-1,0,1", "2,3,5", run="alpha = 2\nm = 3\nn = -1"), "n must be >= 0"),
        ("primitive-divisors", _ini("1,0,1", "", run="alpha = 1\nm = 3\nk = -2"), "k must be >= 0"),
    ],
    ids=["lambda-report-n", "primitive-divisors-k"],
)
def test_cli_negative_index_is_refused(command, ini, message, tmp_path, capsys):
    cfgp = _write_cfg(tmp_path, ini)
    assert main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err


def test_cli_verify_spart_element_cap_cut_is_a_skip(tmp_path):
    cfgp = _write_cfg(
        tmp_path, _ini("0,2,-3,1", "2,3", "height_cap = 3\nelement_cap = 3", "sample_count = 10")
    )
    out = str(tmp_path / "out")
    assert main(["verify-spart", "--config", cfgp, "--out", out]) == 2
    rows = _rows(out, "verify-spart")
    assert [r["sample_count"] for r in rows if r["type"] == "empirical_eta"] == [1]
    assert [r["reason"] for r in rows if r["type"] == "skip"] == ["element-cap truncated the scan"]


def test_cli_class_number_needs_the_splitting_degree(tmp_path, capsys):
    alone = MINIMAL.replace("coeffs = 3,-1,0,1\n", "coeffs = 3,-1,0,1\nclass_number_l = 1\n")
    out = str(tmp_path / "o")
    assert main(["constants", "--config", _write_cfg(tmp_path, alone), "--out", out]) == 1
    assert "splitting_degree" in capsys.readouterr().err
    both = alone.replace("class_number_l", "splitting_degree = 6\nclass_number_l")
    assert main(["constants", "--config", _write_cfg(tmp_path, both), "--out", out]) == 0
    bounds = [r for r in _rows(out, "constants") if r["type"] == "effective_bounds"]
    assert bounds[0]["input_class_number_L"] == 1 and bounds[0]["eta2_inv"] > 1e84
