"""Append-only factorization cache for rational integers.

Plain text, one record per line: "n = p1^e1 * p2^e2 * ...", with a
versioned header.  The file is read when a command first reads the cache
(its first lookup, or len()), or created with its header if it is missing;
a command that factors nothing never opens it, so a corrupt file or a
missing directory stops only commands that factor.  That read checks the
structure, duplicates and products: every record is re-multiplied, and a
corrupt line or a repeated key aborts the read.  A record's factors are
proved prime (Baillie-PSW) the first time a lookup reads it; a factor that
fails raises on that lookup and on every later one.  Errors name the line
and its length, never its text.  The file has a single-writer contract;
records are content-determined, so last-writer-wins merges of private
caches are safe.
"""

from __future__ import annotations

import contextlib
import os
import sys

from .intfactor import DEFAULT_RHO_BUDGET, factorize, is_prime

CACHE_HEADER = "# orbitforge-factor-cache v1"
ENV_CACHE_PATH = "ORBITFORGE_CACHE"


class CacheError(ValueError):
    pass


@contextlib.contextmanager
def int_str_limit(digits: int):
    """Let int <-> str conversions take at least `digits` digits (0: any).

    Python's guard (absent before 3.11) is restored on exit.
    """
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if old and (digits == 0 or digits > old):
        sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        if old:
            sys.set_int_max_str_digits(old)


def _format_record(n: int, fac: dict[int, int]) -> str:
    parts = []
    for p in sorted(fac):
        e = fac[p]
        parts.append(f"{p}^{e}" if e > 1 else f"{p}")
    return f"{n} = " + " * ".join(parts)


def _corrupt(lineno: int, length: int, why: str) -> CacheError:
    return CacheError(f"corrupt cache line {lineno} ({length} characters): {why}")


def _parse_record(line: str, lineno: int) -> tuple[int, dict[int, int]]:
    """(n, factorization) of one record, re-multiplied; primality is not tested."""
    try:
        left, right = line.split("=", 1)
        n = int(left)
        pairs = []
        for chunk in right.split("*"):
            p_s, hat, e_s = chunk.partition("^")
            pairs.append((int(p_s), int(e_s) if hat else 1))
    except ValueError:
        raise _corrupt(lineno, len(line), "expected 'n = p1^e1 * p2^e2 * ...'") from None
    fac = dict(pairs)
    if len(fac) < len(pairs):
        raise _corrupt(lineno, len(line), "repeated prime")
    prod = 1
    for p, e in fac.items():
        if p < 2 or e < 1:
            raise _corrupt(lineno, len(line), "factor below 2 or exponent below 1")
        prod *= p**e
    if prod != n:
        raise _corrupt(lineno, len(line), "product mismatch")
    return n, fac


class FactorCache:
    """The one route by which a command factors: it carries the factor budget
    (rho steps per integer) and keeps the factorizations in memory, and with a
    path also in that file.  Empty, it is falsy: test arguments `is not None`."""

    def __init__(self, path: str | None = None, budget: int = DEFAULT_RHO_BUDGET):
        self.path = path
        self.budget = budget
        self._map: dict[int, dict[int, int]] = {}
        # loaded records whose factors no lookup has proved prime yet:
        # n -> (line number, line length)
        self._unproved: dict[int, tuple[int, int]] = {}
        # the file is read, or created, by the first lookup or len()
        self._loaded = not path

    def _load(self):
        """Read the file, or create it with its header if it is missing.  A
        read that fails changes nothing, so the next lookup reads again."""
        path = self.path
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(CACHE_HEADER + "\n")
            lines = [CACHE_HEADER]
        if not lines or lines[0] != CACHE_HEADER:
            raise CacheError(f"missing or wrong cache header in {path}")
        records: dict[int, dict[int, int]] = {}
        unproved: dict[int, tuple[int, int]] = {}
        # records are re-multiplied, so their length needs no guard: a
        # record any run wrote loads in every run, whatever its bit cap
        with int_str_limit(0):
            for i, line in enumerate(lines[1:], start=2):
                if not line.strip():
                    continue
                n, fac = _parse_record(line, i)
                if n in records:
                    raise _corrupt(i, len(line), "duplicate key")
                records[n] = fac
                unproved[n] = (i, len(line))
        self._map, self._unproved = records, unproved
        self._loaded = True

    def lookup_or_factor(self, n: int) -> dict[int, int]:
        """Stored factorization of n >= 2 (a loaded record's primes are proved
        on its first hit), computing and appending on a miss."""
        if n < 2:
            if n in (0, 1):
                return {}
            raise ValueError("cache keys are integers >= 2")
        if not self._loaded:
            self._load()
        hit = self._map.get(n)
        if hit is not None:
            where = self._unproved.get(n)
            if where is not None:
                if not all(is_prime(p) for p in hit):
                    raise _corrupt(*where, "a factor is not prime")
                del self._unproved[n]
            return dict(hit)
        fac = factorize(n, self.budget)
        self._map[n] = fac
        if self.path:
            with int_str_limit(0), open(self.path, "a", encoding="utf-8") as fh:
                fh.write(_format_record(n, fac) + "\n")
        return dict(fac)

    def __len__(self):
        if not self._loaded:
            self._load()
        return len(self._map)

