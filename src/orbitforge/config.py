"""INI run configurations: parsing, validation, lossless round-trips.

The grammar is strict.  A line is blank, a full-line comment (first
non-blank character ``#`` or ``;``), a ``[section]`` header, or a
``key = value`` line split at its first ``=``: the key is lower-cased and
the value stripped and read literally, so a ``;``, ``#`` or ``%`` in it is
part of the value.  There are no inline comments, no ``:`` delimiter, no
indented continuation lines and no ``[DEFAULT]`` section; every such line
is an error that names its line number, as are a key before any section
and a repeated section or key.  Sections and keys are a closed set;
unknown ones are rejected so that a typo cannot silently change a run.
The S selector grammar is either a bare rational prime ("7": every ideal
above 7) or a prime with an ideal tag ("7a"/"7b": one of the two split
ideals in canonical order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .constants import CParams, SplittingData
from .fields import FieldSpec, make_field
from .ideals import SSet, factor_rational_prime
from .intfactor import DEFAULT_RHO_BUDGET
from .orbits import DEFAULT_BIT_CAP
from .polynomials import Polynomial
from .search import DEFAULT_ELEMENT_CAP, DEFAULT_M_MAX, SearchConfig


class ConfigError(ValueError):
    pass


_ALLOWED = {
    "field": {"kind", "d"},
    "poly": {"coeffs", "splitting_degree", "class_number_l"},
    "sset": {"ideals"},
    "c_params": {"c1", "c2", "c3", "c4", "c5", "c6", "c7"},
    "caps": {"height_cap", "m_max", "bit_cap", "factor_budget", "element_cap"},
    "run": {"alpha", "m", "n", "k", "n_max", "sample_count", "h_beta"},
    "output": {"dir"},
}
_RUN_INTS = {"m", "n", "k", "n_max", "sample_count"}
ECHO_LIMIT = 80
_NAMED_KEYS = 10  # an unknown-keys error names at most this many, then counts the rest


def shown(text) -> str:
    """An error message's view of a value: repr(text), or only its length
    when it is longer than ECHO_LIMIT characters."""
    text = str(text)
    return repr(text) if len(text) <= ECHO_LIMIT else f"a value of {len(text)} characters"


@dataclass
class RunConfig(SearchConfig):
    """A SearchConfig plus the per-command [run] keys and the output directory."""

    run_options: dict = dc_field(default_factory=dict)
    output_dir: str | None = None

    def provenance(self) -> dict:
        """SearchConfig.provenance plus each [run] key, as run_<key>."""
        prov = super().provenance()
        prov.update({f"run_{k}": str(v) for k, v in sorted(self.run_options.items())})
        return prov

    def to_ini(self) -> str:
        ini = {"field": {"kind": self.field.kind}}
        if self.field.kind == "quadratic":
            ini["field"]["d"] = str(self.field.D)
        if self.f is not None:
            ini["poly"] = {"coeffs": ",".join(str(c.a) for c in self.f.coeffs)}
            sp = self.splitting
            if sp is not None:
                ini["poly"]["splitting_degree"] = str(sp.degree_D)
                if sp.class_number_L is not None:
                    ini["poly"]["class_number_l"] = str(sp.class_number_L)
        ini["sset"] = {"ideals": ",".join(self.S.ideal_selectors())}
        ini["c_params"] = {k: repr(v) for k, v in self.c_params.as_dict().items()}
        ini["caps"] = {
            "height_cap": repr(self.height_cap),
            "m_max": str(self.m_max),
            "bit_cap": str(self.bit_cap),
            "factor_budget": str(self.factor_budget),
            "element_cap": str(self.element_cap),
        }
        if self.run_options:
            ini["run"] = {k: str(v) for k, v in self.run_options.items()}
        if self.output_dir:
            ini["output"] = {"dir": self.output_dir}
        return _write_ini(ini)


def _read_ini(text: str) -> dict:
    """{section: {key: value}} from config text in the module's grammar."""
    ini = {}
    body = None
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if raw[0].isspace():
            raise ConfigError(f"config line {lineno}: indented line (no continuation lines)")
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1]
            if name not in _ALLOWED:
                raise ConfigError(f"config line {lineno}: unknown section {shown(name)}")
            if name in ini:
                raise ConfigError(f"config line {lineno}: repeated section [{name}]")
            body = ini[name] = {}
            continue
        key, eq, value = line.partition("=")
        key = key.rstrip().lower()
        if not (eq and key):
            raise ConfigError(
                f"config line {lineno}: expected [section] or key = value, got {shown(line)}"
            )
        if body is None:
            raise ConfigError(f"config line {lineno}: key {shown(key)} before any [section]")
        if key in body:
            raise ConfigError(f"config line {lineno}: repeated key {shown(key)}")
        body[key] = value.strip()
    return ini


def _write_ini(ini: dict) -> str:
    """The text _read_ini reads back as ini: each section, then a blank line."""
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()) + "\n"
        for name, body in ini.items()
    )


def parse_s_selectors(field: FieldSpec, text: str) -> SSet:
    ideals = []
    for raw in text.split(","):
        tok = raw.strip()
        if not tok:
            continue
        tag = None
        if tok[-1] in ("a", "b"):
            tag = tok[-1]
            tok = tok[:-1]
        try:
            p = int(tok)
        except ValueError as exc:
            raise ConfigError(f"bad S selector {shown(raw)}") from exc
        above = factor_rational_prime(field, p)
        if tag is None:
            ideals.extend(above)
        else:
            want = f"split-{tag}"
            matches = [P for P in above if P.kind == want]
            if not matches:
                raise ConfigError(
                    f"selector {raw!r}: prime {p} has no ideal tagged {tag!r}"
                )
            ideals.extend(matches)
    return SSet(field, ideals)


def _parse_section(ini: dict, name: str) -> dict:
    got = ini.get(name, {})
    unknown = sorted(set(got) - _ALLOWED[name])
    if unknown:
        names = ", ".join(shown(k) for k in unknown[:_NAMED_KEYS])
        more = len(unknown) - _NAMED_KEYS
        raise ConfigError(
            f"unknown keys in [{name}]: [{names}]" + (f" and {more} more" if more > 0 else "")
        )
    return got


def _parsed(section: str, key: str, text, kind=int):
    """kind(text), or a ConfigError that names the key."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{section}.{key} must be {what}, got {shown(text)}") from None


def _int_at_least(section: str, key: str, text, low: int = 0) -> int:
    value = _parsed(section, key, text)
    if value < low:
        raise ConfigError(f"{section}.{key} must be >= {low}")
    return value


def load_config_text(text: str) -> RunConfig:
    ini = _read_ini(text)
    fs = _parse_section(ini, "field")
    kind = fs.get("kind", "rational")
    if kind not in ("rational", "quadratic"):
        raise ConfigError(f"field.kind must be rational|quadratic, got {shown(kind)}")
    D = None
    if kind == "quadratic":
        if "d" not in fs:
            raise ConfigError("field.D required for quadratic fields")
        D = _parsed("field", "d", fs["d"])
    try:
        field = make_field(kind, D)
    except Exception as exc:
        raise ConfigError(f"field: {exc}") from exc

    poly = None
    ps = _parse_section(ini, "poly")
    if "coeffs" in ps:
        coeffs = [_parsed("poly", "coeffs", c.strip(), Fraction) for c in ps["coeffs"].split(",")]
        poly = Polynomial(field, coeffs)
        if not poly.is_integral():
            raise ConfigError("poly.coeffs must be integral")
    splitting = None
    if "splitting_degree" in ps:
        splitting = SplittingData(
            _int_at_least("poly", "splitting_degree", ps["splitting_degree"], 1),
            _int_at_least("poly", "class_number_l", ps["class_number_l"], 1)
            if "class_number_l" in ps else None,
        )
    elif "class_number_l" in ps:
        raise ConfigError("poly.splitting_degree is required with poly.class_number_l")

    ss = _parse_section(ini, "sset")
    S = parse_s_selectors(field, ss.get("ideals", ""))

    cs = _parse_section(ini, "c_params")
    c_params = CParams(**{k: _parsed("c_params", k, v, float) for k, v in cs.items()})

    caps = _parse_section(ini, "caps")
    height_cap = _parsed("caps", "height_cap", caps.get("height_cap", 0.0), float)
    if not math.isfinite(height_cap) or height_cap < 0:
        raise ConfigError("caps.height_cap must be a finite nonnegative number")
    int_caps = {}
    for key, default in (
        ("m_max", DEFAULT_M_MAX),
        ("bit_cap", DEFAULT_BIT_CAP),
        ("factor_budget", DEFAULT_RHO_BUDGET),
        ("element_cap", DEFAULT_ELEMENT_CAP),
    ):
        int_caps[key] = _int_at_least("caps", key, caps.get(key, default))

    run = _parse_section(ini, "run")
    for key in sorted(_RUN_INTS & set(run)):
        _int_at_least("run", key, run[key])
    if "h_beta" in run:
        _parsed("run", "h_beta", run["h_beta"], float)
    out = _parse_section(ini, "output")

    return RunConfig(
        field=field,
        f=poly,
        S=S,
        c_params=c_params,
        height_cap=height_cap,
        **int_caps,
        splitting=splitting,
        run_options=dict(run),
        output_dir=out.get("dir"),
    )


def load_config(path: str) -> RunConfig:
    """Parse and validate a config file; errors carry the line or the field."""
    with open(path, encoding="utf-8") as fh:
        return load_config_text(fh.read())
