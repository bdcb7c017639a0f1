"""Regenerate expected.json: the expected output of every pool instance.

    python3 perfbench/make_expected.py       # from the repository root

Each instance that finishes is run once through the CLI and recorded as
its exit code, the digest of its result rows, its time at this commit
(seed_s) and the number of alphas it examines.  Instances that do not
finish (pools.KNOWN_HANG) are cut at 1.5x their workload's deadline; their
answer is computed independently with sympy (a test-only dependency).  The
sympy route is checked against the CLI on every Q(sqrt D) primitive-divisors
instance that does finish.  Writes nothing if any instance fails.  Takes
about five minutes on a 2-core x86-64 box.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import pools  # noqa: E402


def _iterates(D: int, alpha: str, m: int) -> list[tuple[int, int]]:
    """x_j = f^(j)(alpha) for f = x^2 + 1 in w-coordinates, j = 0..m."""
    c0, c1 = _w_square(D)
    a, b = (int(t) for t in alpha.split(","))
    out = [(a, b)]
    for _ in range(m):
        # (a + b w)^2 + 1 with w^2 = c0 + c1 w
        a, b = a * a + b * b * c0 + 1, 2 * a * b + b * b * c1
        out.append((a, b))
    return out


def _w_square(D: int) -> tuple[int, int]:
    """(c0, c1) with w^2 = c0 + c1 w for the ring generator w of Q(sqrt D)."""
    return ((D - 1) // 4, 1) if D % 4 == 1 else (D, 0)


def _roots_mod(D: int, p: int) -> list[int]:
    """Roots c of the minimal polynomial of w modulo p, ascending."""
    from sympy.ntheory import sqrt_mod

    c0, c1 = _w_square(D)
    if p == 2:
        return [c for c in range(2) if (c * c - c1 * c - c0) % 2 == 0]
    inv2 = pow(2, -1, p)
    return sorted({(c1 + r) * inv2 % p
                   for r in sqrt_mod((c1 * c1 + 4 * c0) % p, p, all_roots=True) or []})


def _ideals_dividing(D: int, x: tuple[int, int]) -> list[tuple]:
    """Prime ideals containing x = a + b w, as (norm, p, kind, repr) tuples."""
    import sympy

    c0, c1 = _w_square(D)
    a, b = x
    disc = D if D % 4 == 1 else 4 * D
    norm = a * a + a * b * c1 - c0 * b * b
    out = []
    for p in sympy.factorint(abs(norm)):
        roots = _roots_mod(D, p)
        if disc % p == 0:
            kinds = [("ramified", roots[0])]
        elif len(roots) == 2:
            kinds = [("split-a", roots[0]), ("split-b", roots[1])]
        else:
            kinds = [("inert", None)]
        for kind, c in kinds:
            if kind == "inert":
                if a % p == 0 and b % p == 0:
                    out.append((p * p, p, kind, f"({p})"))
            elif (a + b * c) % p == 0:
                out.append((p, p, kind, f"({p}, w-{c})"))
    return out


def sympy_primitive_divisor_row(inst) -> dict:
    """The primitive-divisors result row, computed without orbitforge."""
    D = inst.field[1]
    run = dict(inst.run)
    m = int(run["m"])
    k = int(run.get("k", m))
    xs = _iterates(D, str(run["alpha"]), m)
    window = list(range(max(0, m - k), m))
    seen = set()
    zero_in_window = False
    for j in window:
        if xs[j] == (0, 0):
            zero_in_window = True
            continue
        seen.update((p, kind) for _, p, kind, _ in _ideals_dividing(D, xs[j]))
    prime = norm = None
    if not zero_in_window:
        for nm, p, kind, rep in sorted(_ideals_dividing(D, xs[m])):
            if (p, kind) not in seen:
                prime, norm = rep, nm
                break
    return {"type": "primitive_divisor", "m": m, "k": k, "prime": prime, "norm": norm,
            "window": window}


def _sympy_entry(inst) -> dict:
    line = json.dumps(sympy_primitive_divisor_row(inst), sort_keys=True)
    return {"exit": 0, "digest": harness.rows_digest([line])}


def _alphas(of, inst) -> int:
    if inst.command in ("search-dependence", "sunit-scan"):
        field = of.make_field(*inst.field)
        return len(of.ring_elements_capped(field, inst.height_cap)[0])
    return 1 if inst.has_alpha else 0


def main() -> int:
    of = harness.import_orbitforge(fresh=False)
    cli = of.cli
    expected = {}
    failures = []
    with tempfile.TemporaryDirectory(dir=harness.ROOT, prefix=".perfbench-gen-") as work:
        for n, inst in enumerate(pools.all_instances()):
            workload = pools.workload_of(inst)
            deadline = pools.DEADLINE_S[workload]
            if workload == "single-shot":
                os.environ["ORBITFORGE_CACHE"] = os.path.join(work, f"cache{n}.txt")
            else:
                os.environ.pop("ORBITFORGE_CACHE", None)
            if inst.hang:
                res = harness.run_op(cli, inst, work, 1.5 * deadline, op_index=n)
                if not res.deadline_hit:
                    failures.append(f"{inst.id}: expected a hang, got {res}")
                    continue
                entry = _sympy_entry(inst)
                entry.update(hang_s=round(res.seconds, 3), alphas=_alphas(of, inst))
            else:
                res = harness.run_op(cli, inst, work, 10 * deadline, op_index=n)
                if res.error is not None or res.exit_code not in (0, 2):
                    failures.append(f"{inst.id}: failed at generation: {res}")
                    continue
                entry = {"exit": res.exit_code, "digest": res.digest,
                         "seed_s": round(res.seconds, 3), "alphas": _alphas(of, inst)}
                if inst.command == "primitive-divisors" and inst.field[1] is not None:
                    if _sympy_entry(inst)["digest"] != res.digest:
                        failures.append(f"{inst.id}: the sympy oracle disagrees with the CLI")
                        continue
            expected[inst.id] = entry
            print(f"{inst.id}: {entry}", flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with open(harness.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
