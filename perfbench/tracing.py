"""Span tracing of orbitforge layers from outside the library.

The tracer wraps public functions of each layer.  A function is replaced in
every ``orbitforge.*`` module namespace that binds it, because the modules
import each other's functions by name (``from .ideals import ord_ideal``)
and patching only the defining module would miss those calls.  Methods are
wrapped on their class.  ``NFElement`` arithmetic is deliberately not
wrapped: it runs 1e5-1e6 times per campaign and its cost shows up as the
self time of ``Polynomial.__call__`` (``polynomials.eval.self_s``).

Each call records a span ``[name, op, parent, start_ns, end_ns]``.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children; since calls nest, the self
times of all spans of one op add up to the duration of the op's root span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (span name, module, attribute); "Class.method" attributes are wrapped on
# the class
TRACED = (
    ("search.search_dependence", "search", "search_dependence"),
    ("search.ring_elements_capped", "search", "ring_elements_capped"),
    ("search.search_sunit_orbit_values", "search", "search_sunit_orbit_values"),
    ("orbits.is_zero_periodic", "orbits", "is_zero_periodic"),
    ("orbits.iterate_orbit", "orbits", "iterate_orbit"),
    ("orbits.check_s_integer_ratio", "orbits", "check_s_integer_ratio"),
    ("orbits.check_power_dependence", "orbits", "check_power_dependence"),
    ("orbits.is_s_unit", "orbits", "is_s_unit"),
    ("orbits.find_primitive_divisor", "orbits", "find_primitive_divisor"),
    ("polynomials.eval", "polynomials", "Polynomial.__call__"),
    ("polynomials.iterate_value", "polynomials", "Polynomial.iterate_value"),
    ("heights.canonical_height", "heights", "canonical_height"),
    ("heights.height_value", "heights", "height_value"),
    ("ideals.factor_rational_prime", "ideals", "factor_rational_prime"),
    ("ideals.factor_element_ideal", "ideals", "factor_element_ideal"),
    ("ideals.ord_ideal", "ideals", "ord_ideal"),
    ("intfactor.factorize", "intfactor", "factorize"),
    ("intfactor.is_prime", "intfactor", "is_prime"),
    ("intfactor.perfect_power_base", "intfactor", "perfect_power_base"),
    ("intfactor.strip_primes", "intfactor", "strip_primes"),
    ("cache.lookup_or_factor", "cache", "FactorCache.lookup_or_factor"),
    ("constants.northcott_bound", "constants", "northcott_bound"),
    ("constants.resolve_splitting", "constants", "resolve_splitting"),
    ("fields.make_field", "fields", "make_field"),
    ("config.load_config", "config", "load_config"),
    ("cli.write_report", "cli", "write_report"),
)

# per-layer metrics: name -> unit; filled per traced pass by pass_metrics()
PER_LAYER_UNITS = {
    "search.search_dependence.self_s": "s",
    "search.ring_elements_capped.s": "s",
    "search.enum.tested": "count",
    "search.enum.kept": "count",
    "search.enum.yield": "ratio",
    "search.search_sunit_orbit_values.s": "s",
    "orbits.is_zero_periodic.calls": "count",
    "orbits.is_zero_periodic.s": "s",
    "orbits.iterate_orbit.calls": "count",
    "orbits.iterate_orbit.s": "s",
    "orbits.check_s_integer_ratio.calls": "count",
    "orbits.check_s_integer_ratio.s": "s",
    "orbits.check_power_dependence.calls": "count",
    "orbits.check_power_dependence.s": "s",
    "orbits.witness_yield": "ratio",
    "orbits.is_s_unit.calls": "count",
    "orbits.is_s_unit.s": "s",
    "orbits.find_primitive_divisor.calls": "count",
    "orbits.find_primitive_divisor.s": "s",
    "polynomials.eval.calls": "count",
    "polynomials.eval.self_s": "s",
    "polynomials.eval.peak_bits": "bits",
    "polynomials.iterate_value.calls": "count",
    "heights.canonical_height.calls": "count",
    "heights.canonical_height.s": "s",
    "heights.canonical_height.iterations": "count",
    "heights.height_value.calls": "count",
    "heights.height_value.self_s": "s",
    "ideals.factor_rational_prime.calls": "count",
    "ideals.factor_rational_prime.self_s": "s",
    "ideals.factor_rational_prime.distinct_p": "count",
    "ideals.factor_rational_prime.max_p_bits": "bits",
    "ideals.factor_element_ideal.calls": "count",
    "ideals.factor_element_ideal.self_s": "s",
    "ideals.ord_ideal.calls": "count",
    "ideals.ord_ideal.self_s": "s",
    "intfactor.factorize.calls": "count",
    "intfactor.factorize.self_s": "s",
    "intfactor.factorize.incomplete": "count",
    "intfactor.is_prime.calls": "count",
    "intfactor.is_prime.self_s": "s",
    "intfactor.perfect_power_base.calls": "count",
    "intfactor.perfect_power_base.self_s": "s",
    "intfactor.strip_primes.calls": "count",
    "cache.lookup_or_factor.calls": "count",
    "cache.hits": "count",
    "constants.northcott_bound.s": "s",
    "constants.resolve_splitting.s": "s",
    "fields.make_field.calls": "count",
    "fields.make_field.s": "s",
    "config.load_config.s": "s",
    "cli.write_report.s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead": "ratio",
}

_NS = 1e-9


def _bits(x) -> int:
    """Largest coordinate bit size of an NFElement."""
    return max(x.a.numerator.bit_length(), x.a.denominator.bit_length(),
               x.b.numerator.bit_length(), x.b.denominator.bit_length())


class Tracer:
    """Records spans and boundary counters for the calls it wraps."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent, start_ns, end_ns]
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[tuple[int, str], int] = defaultdict(int)  # (op, key)
        self.p_seen: dict[int, set] = defaultdict(set)  # op -> primes split
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op: int, name: str) -> int:
        """Open the root span of op; returns its index."""
        self.op = op
        idx = len(self.spans)
        self.spans.append([name, op, -1, time.perf_counter_ns(), 0])
        self.stack.append(idx)
        return idx

    def end_op(self, idx: int):
        # a deadline that fires between a span's start and its try block
        # leaves that span open; close whatever is still open
        now = time.perf_counter_ns()
        for rec in self.spans[idx:]:
            if rec[4] == 0:
                rec[4] = now
        del self.stack[self.stack.index(idx):]

    def _wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, self.op, stack[-1] if stack else -1, clock(), 0]
            spans.append(rec)
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                rec[4] = clock()
                stack.pop()
                if observe is not None:
                    observe(idx, args, result, exc)

        return traced

    # -- boundary counters -------------------------------------------------

    def _count(self, key: str, n: int = 1):
        self.counters[(self.op, key)] += n

    def _peak(self, key: str, v: int):
        k = (self.op, key)
        if v > self.counters[k]:
            self.counters[k] = v

    def _observers(self, orbitforge_modules) -> dict:
        IncompleteFactorization = orbitforge_modules["intfactor"].IncompleteFactorization

        def on_eval(idx, args, result, exc):
            if result is not None:
                self._peak("eval.peak_bits", _bits(result))

        def on_enum(idx, args, result, exc):
            if result is not None:
                self._count("enum.kept", len(result[0]))

        def on_pair(idx, args, result, exc):
            self._count("pair_checks")
            if result is not None:
                self._count("witnesses")

        def on_canonical(idx, args, result, exc):
            if result is not None:
                self._count("canonical.iterations", result.iterations_used)

        def on_split(idx, args, result, exc):
            p = args[1]
            self.p_seen[self.op].add(p)
            self._peak("split.max_p_bits", p.bit_length())

        def on_factorize(idx, args, result, exc):
            if isinstance(exc, IncompleteFactorization):
                self._count("factorize.incomplete")

        def on_lookup(idx, args, result, exc):
            # a hit answers n >= 2 without calling factorize underneath
            n = args[1]
            if exc is None and abs(n) >= 2 and not any(
                self.spans[j][0] == "intfactor.factorize"
                for j in range(idx + 1, len(self.spans))
            ):
                self._count("cache.hits")

        def on_write(idx, args, result, exc):
            if result is not None:
                self._count("report_bytes", sum(os.path.getsize(p) for p in result))

        return {
            "polynomials.eval": on_eval,
            "search.ring_elements_capped": on_enum,
            "orbits.check_s_integer_ratio": on_pair,
            "orbits.check_power_dependence": on_pair,
            "heights.canonical_height": on_canonical,
            "ideals.factor_rational_prime": on_split,
            "intfactor.factorize": on_factorize,
            "cache.lookup_or_factor": on_lookup,
            "cli.write_report": on_write,
        }

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap every traced function in every orbitforge namespace binding it."""
        mods = {
            name.split(".", 1)[1]: m
            for name, m in list(sys.modules.items())
            if name.startswith("orbitforge.") and m is not None
        }
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "orbitforge" or name.startswith("orbitforge."))]
        observers = self._observers(mods)
        for span_name, mod_name, attr in TRACED:
            observe = observers.get(span_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod_name], cls_name)
                self._set(cls, meth, self._wrap(span_name, cls.__dict__[meth], observe))
                continue
            fn = getattr(mods[mod_name], attr)
            wrapper = self._wrap(span_name, fn, observe)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        self._set(ns, key, wrapper)
        # tested points of the ring-element enumeration: elements built
        # directly inside ring_elements_capped
        field_cls = mods["fields"].FieldSpec
        element = field_cls.__dict__["element"]
        spans, stack = self.spans, self.stack

        def counted_element(fs, a, b=0):
            if stack and spans[stack[-1]][0] == "search.ring_elements_capped":
                self.counters[(self.op, "enum.tested")] += 1
            return element(fs, a, b)

        self._set(field_cls, "element", counted_element)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def remove(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time in ns of every span, by span index."""
        out = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                out[s[2]] -= s[4] - s[3]
        return out

    def pass_metrics(self, ops: list[int]) -> dict[str, float]:
        """Per-layer metric values summed over the given op ids (one pass)."""
        opset = set(ops)
        selfs = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            if op not in opset:
                continue
            calls[name] += 1
            self_ns[name] += selfs[i]
            # inclusive time counts the outermost span of a name only
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][2]
            if p < 0:
                incl[name] += end - start

        def cnt(key):
            return sum(v for (op, k), v in self.counters.items() if op in opset and k == key)

        def peak(key):
            return max((v for (op, k), v in self.counters.items() if op in opset and k == key),
                       default=0)

        out: dict[str, float] = {}
        for metric in PER_LAYER_UNITS:
            layer_fn, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[layer_fn]
            elif kind == "s":
                out[metric] = incl[layer_fn] * _NS
            elif kind == "self_s":
                out[metric] = self_ns[layer_fn] * _NS
        tested, kept = cnt("enum.tested"), cnt("enum.kept")
        pairs, wits = cnt("pair_checks"), cnt("witnesses")
        primes = set().union(*(self.p_seen[o] for o in opset if o in self.p_seen))
        out.update({
            "search.enum.tested": tested,
            "search.enum.kept": kept,
            "search.enum.yield": kept / tested if tested else 0.0,
            "orbits.witness_yield": wits / pairs if pairs else 0.0,
            "polynomials.eval.peak_bits": peak("eval.peak_bits"),
            "heights.canonical_height.iterations": cnt("canonical.iterations"),
            "ideals.factor_rational_prime.distinct_p": len(primes),
            "ideals.factor_rational_prime.max_p_bits": peak("split.max_p_bits"),
            "intfactor.factorize.incomplete": cnt("factorize.incomplete"),
            "cache.hits": cnt("cache.hits"),
            "cli.report_bytes": cnt("report_bytes"),
        })
        return out

    def dump(self, path: str, op_names: list[str]):
        """Write the spans (times relative to the first span) as JSON."""
        t0 = self.spans[0][3] if self.spans else 0
        names: dict[str, int] = {}
        rows = []
        for name, op, parent, start, end in self.spans:
            rows.append([names.setdefault(name, len(names)), op, parent, start - t0, end - t0])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "ops": op_names,
                       "columns": ["name", "op", "parent", "start_ns", "end_ns"],
                       "spans": rows}, fh, separators=(",", ":"))
