import csv
import json
import math
import os

import pytest

from orbitforge.cache import CacheError, FactorCache
from orbitforge.cli import main, run_command, write_report
from orbitforge.config import ConfigError, load_config, load_config_text, parse_s_selectors
from orbitforge.fields import make_field
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
    assert [int(c.a) for c in cfg.poly.coeffs] == [3, -1, 0, 1]
    assert cfg.S.rational_primes() == [2, 3, 5]
    assert cfg.c_params.c1 == 1.0 and cfg.c_params.c7 == 1.0
    assert cfg.m_max == 8 and cfg.bit_cap == 10**6


def test_config_c_param_passthrough():
    cfg = load_config_text(MINIMAL + "\n[c_params]\nc4 = 0.5\n")
    assert cfg.c_params.c4 == 0.5 and cfg.c_params.c1 == 1.0


def test_config_round_trip():
    text = MINIMAL + "\n[c_params]\nc4 = 0.5\n\n[caps]\nheight_cap = 3.912023005428146\nm_max = 4\n"
    cfg = load_config_text(text)
    cfg2 = load_config_text(cfg.to_ini())
    assert cfg2.to_ini() == cfg.to_ini()
    assert cfg2.height_cap == cfg.height_cap
    assert cfg2.c_params == cfg.c_params
    assert cfg2.S.ideal_selectors() == cfg.S.ideal_selectors()


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
    with pytest.raises(CacheError) as ei:
        FactorCache(path)
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
        "demo", {"k": 1}, [{"type": "row", "m": 3, "x": 0.1 + 0.2, "s": "t"}], False
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
