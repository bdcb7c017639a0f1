"""The strict INI reader and writer of orbitforge.config.

configparser (``interpolation=None``) is the test-only oracle: on every text
in the accepted grammar, ``_read_ini`` gives its section dicts, and
``_write_ini`` gives the text its ``write`` produces from the same dict.
"""

import configparser
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from orbitforge.config import ConfigError, _read_ini, _write_ini, load_config_text

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "perfbench"))

import pools  # noqa: E402


def _configparser_sections(text: str) -> dict:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    return {name: dict(cp.items(name)) for name in cp.sections()}


def _configparser_text(ini: dict) -> str:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(ini)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def test_pool_configs_read_and_write_as_configparser_does():
    for inst in pools.all_instances():
        text = inst.ini()
        assert _read_ini(text) == _configparser_sections(text), inst.id
        written = load_config_text(text).to_ini()
        assert written == _configparser_text(_read_ini(written)), inst.id
        assert load_config_text(written).to_ini() == written, inst.id


_VALUE_CHARS = "abcXYZ019 =%;#:,./()[]-_"
_values = st.text(alphabet=_VALUE_CHARS, max_size=12)
_pads = st.sampled_from(["", " ", "  ", "\t"])
_comments = st.tuples(st.sampled_from(["", " "]), st.sampled_from(["#", ";"]), _values).map("".join)
_filler = st.lists(st.one_of(st.just(""), st.just("   "), _comments), max_size=2)


@st.composite
def _config_texts(draw):
    """A loadable config in the accepted grammar: keys in mixed case, blank
    and comment lines between any two lines, and values that hold =, %, ;,
    # or surrounding spaces."""
    kind, D = draw(st.sampled_from([("rational", None), ("quadratic", 2), ("quadratic", -1), ("quadratic", 5)]))
    field = {"kind": kind} if D is None else {"kind": kind, "d": str(D)}
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3)) + [1]
    ideals = draw(st.lists(st.sampled_from(["2", "3", "5", "7"]), unique=True, max_size=3))
    caps = {"height_cap": repr(draw(st.floats(0, 10))), "m_max": str(draw(st.integers(0, 9)))}
    run = {"alpha": draw(_values), "m": str(draw(st.integers(0, 9)))}
    sections = {
        "field": field,
        "poly": {"coeffs": ",".join(map(str, coeffs))},
        "sset": {"ideals": ",".join(ideals)},
        "caps": caps,
        "run": run,
        "output": {"dir": draw(_values)},
    }
    lines = []
    for name in draw(st.permutations(list(sections))):
        lines += draw(_filler) + [f"[{name}]"]
        for key, value in sections[name].items():
            key = "".join(c.upper() if draw(st.booleans()) else c for c in key)
            lines += draw(_filler)
            lines.append(f"{key}{draw(_pads)}={draw(_pads)}{value}{draw(_pads)}")
    return "\n".join(lines + draw(_filler)) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=150, deadline=None)
@given(_config_texts())
def test_reader_and_writer_match_configparser(text):
    ini = _read_ini(text)
    assert ini == _configparser_sections(text)
    assert _write_ini(ini) == _configparser_text(ini)
    written = load_config_text(text).to_ini()
    assert written == _configparser_text(_read_ini(written))
    assert load_config_text(written).to_ini() == written


def test_values_are_literal_and_keys_case_insensitive():
    ini = _read_ini("# c\n[run]\nALPHA = 1 ; not a comment\n; c\nh_beta=2%(x)s = 3 \n")
    assert ini == {"run": {"alpha": "1 ; not a comment", "h_beta": "2%(x)s = 3"}}


@pytest.mark.parametrize("text, lineno, what", [
    ("[field]\nkind = rational\n[run]\nalpha : 12\n", 4, "expected"),
    ("[field]\nkind = rational\n[run]\nalpha = 12\n  34\n", 5, "indented"),
    ("[DEFAULT]\nalpha = 12\n[field]\nkind = rational\n", 1, "unknown section 'DEFAULT'"),
    ("kind = rational\n[field]\n", 1, "before any"),
    ("[field]\nkind = rational\n\n[field]\n", 4, "repeated section"),
    ("[field]\nkind = rational\nKIND = rational\n", 3, "repeated key 'kind'"),
    ("[field]\nkind = rational\n= 3\n", 3, "expected"),
    ("[field] ; comment\nkind = rational\n", 1, "expected"),
])
def test_reader_refusals_name_the_line(text, lineno, what):
    with pytest.raises(ConfigError, match=f"^config line {lineno}: .*{what}"):
        load_config_text(text)


def test_error_text_is_bounded():
    long = "x" * 7000
    for text in (
        f"[field]\nkind = rational\n[run]\n{long}\n",
        f"[field]\nkind = rational\n[{long}]\n",
        f"[field]\nkind = rational\n[run]\n{long} = 1\n",
    ):
        with pytest.raises(ConfigError) as exc:
            load_config_text(text)
        message = str(exc.value)
        assert len(message) < 200, message
        assert "7000 characters" in message, message


def test_cli_import_does_not_load_configparser():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", "import sys, orbitforge.cli; print('configparser' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
