"""Append-only factorization cache for rational integers.

Plain text, one record per line: "n = p1^e1 * p2^e2 * ...", with a
versioned header.  Every record is re-multiplied on load; duplicates and
corrupt lines abort the load naming the offending line.  The file has a
single-writer contract; records are content-determined, so last-writer-
wins merges of private caches are safe.
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


def _parse_record(line: str, lineno: int) -> tuple[int, dict[int, int]]:
    try:
        left, right = line.split("=", 1)
        n = int(left.strip())
        fac: dict[int, int] = {}
        for chunk in right.strip().split("*"):
            chunk = chunk.strip()
            if "^" in chunk:
                p_s, e_s = chunk.split("^", 1)
                p, e = int(p_s), int(e_s)
            else:
                p, e = int(chunk), 1
            if p in fac:
                raise ValueError("repeated prime")
            fac[p] = e
    except ValueError as exc:
        raise CacheError(f"corrupt cache line {lineno}: {line!r} ({exc})") from exc
    prod = 1
    for p, e in fac.items():
        if e < 1 or not is_prime(p):
            raise CacheError(f"corrupt cache line {lineno}: bad factor in {line!r}")
        prod *= p**e
    if prod != n:
        raise CacheError(f"corrupt cache line {lineno}: product mismatch for n={n}")
    return n, fac


class FactorCache:
    """In-memory factor map, optionally persisted to an append-only file."""

    def __init__(self, path: str | None = None):
        self.path = path
        self._map: dict[int, dict[int, int]] = {}
        if path and os.path.exists(path):
            self._load(path)
        elif path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(CACHE_HEADER + "\n")

    def _load(self, path: str):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != CACHE_HEADER:
            raise CacheError(f"missing or wrong cache header in {path}")
        # records are re-multiplied, so their length needs no guard: a
        # record any run wrote loads in every run, whatever its bit cap
        with int_str_limit(0):
            for i, line in enumerate(lines[1:], start=2):
                if not line.strip():
                    continue
                n, fac = _parse_record(line, i)
                if n in self._map:
                    raise CacheError(f"duplicate cache key {n} at line {i}")
                self._map[n] = fac

    def lookup_or_factor(self, n: int, budget: int = DEFAULT_RHO_BUDGET) -> dict[int, int]:
        """Stored factorization of n >= 2, computing and appending on a miss."""
        if n < 2:
            if n in (0, 1):
                return {}
            raise ValueError("cache keys are integers >= 2")
        hit = self._map.get(n)
        if hit is not None:
            return dict(hit)
        fac = factorize(n, budget)
        self._map[n] = fac
        if self.path:
            with int_str_limit(0), open(self.path, "a", encoding="utf-8") as fh:
                fh.write(_format_record(n, fac) + "\n")
        return dict(fac)

    def __len__(self):
        return len(self._map)


def default_cache_path() -> str | None:
    return os.environ.get(ENV_CACHE_PATH)
