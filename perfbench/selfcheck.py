"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py       # from the repository root, ~1 minute

1. The same seed gives the same op list; neighbouring seeds give different
   lists drawn from the same pool.
2. Every pool instance has an expected output, and expected.json holds no
   entry for an instance that no longer exists.
3. Each workload's deadline is at least 1.5x the seed time of every
   instance it can draw, and each known-hang instance ran past 1.5x the
   deadline when expected.json was made.
4. Traced ops still match their expected outputs, and the self times of
   one op's spans add up to the op's traced duration.
5. The profile (reported, not asserted, since later changes are meant
   to move it): polynomial evaluations per alpha on the x^3-x+3 campaign
   over Q, and the share of factor_rational_prime self time in the
   Q(sqrt 2) campaign.
6. The known-hang instances, run once under 1.5x the single-shot deadline:
   where they are cut, or, once they finish, whether they match.

Exit status 0 when checks 1-4 pass; 5 and 6 only report.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import pools  # noqa: E402
import tracing  # noqa: E402

PROFILE_Q = "q-x3-x+3-S235"
PROFILE_QUAD = "quad-d2"


def check_draws(problems):
    for w in pools.WORKLOADS:
        pool_ids = {inst.id for inst in pools.workload_pool(w)}
        for seed in range(10):
            a, b = pools.draw(w, seed), pools.draw(w, seed)
            if a != b:
                problems.append(f"{w}: seed {seed} gave two different op lists")
            if a == pools.draw(w, seed + 1):
                problems.append(f"{w}: seeds {seed} and {seed + 1} gave the same op list")
            if not {inst.id for inst in a} <= pool_ids:
                problems.append(f"{w}: seed {seed} drew outside the workload's pool")
            if any(inst.hang for inst in a):
                problems.append(f"{w}: seed {seed} drew a known-hang instance")


def check_expected(expected, problems):
    ids = {inst.id for inst in pools.all_instances()}
    for i in sorted(ids - set(expected)):
        problems.append(f"{i}: no expected output")
    for i in sorted(set(expected) - ids):
        problems.append(f"{i}: expected output for an instance not in any pool")
    for w in pools.WORKLOADS:
        deadline = pools.DEADLINE_S[w]
        for inst in pools.workload_pool(w):
            seed_s = expected.get(inst.id, {}).get("seed_s", 0.0)
            if 1.5 * seed_s > deadline:
                problems.append(f"{inst.id}: seed time {seed_s} s is within 1.5x of the "
                                f"{deadline:g} s deadline of {w}")
    for inst in pools.KNOWN_HANG:
        hang_s = expected.get(inst.id, {}).get("hang_s", 0.0)
        if hang_s < 1.5 * pools.DEADLINE_S["single-shot"]:
            problems.append(f"{inst.id}: recorded as a hang but cut after only {hang_s} s")


def _traced(cli, insts, expected, work, problems):
    """Run instances traced; returns (tracer, results), checking outputs."""
    tracer = tracing.Tracer()
    tracer.install()
    results = []
    try:
        for i, inst in enumerate(insts):
            deadline = pools.DEADLINE_S[pools.workload_of(inst)]
            res = harness.run_op(cli, inst, work, deadline, tracer, i)
            why = harness.check(res, expected)
            if why:
                problems.append(f"{inst.id} traced: {why}")
            results.append(res)
    finally:
        tracer.remove()
    return tracer, results


def check_self_times(cli, expected, work, problems):
    insts = pools.draw("single-shot", 0)[:30] + [pools.ACCEPTANCE]
    os.environ["ORBITFORGE_CACHE"] = os.path.join(work, "cache.txt")
    tracer, _ = _traced(cli, insts, expected, work, problems)
    os.environ.pop("ORBITFORGE_CACHE")
    selfs = tracer.self_times()
    for op in range(len(insts)):
        idx = [i for i, s in enumerate(tracer.spans) if s[1] == op]
        root = tracer.spans[idx[0]]
        if root[2] != -1 or sum(selfs[i] for i in idx) != root[4] - root[3]:
            problems.append(f"{insts[op].id}: span self times do not add up to the op")
    print(f"self times add up on {len(insts)} traced ops ({len(tracer.spans)} spans)")


def profile(cli, expected, work, problems):
    """Report the layer profile of two campaigns; outputs are still checked."""
    by_id = {inst.id: inst for inst in pools.all_instances()}
    tracer, res = _traced(cli, [by_id[PROFILE_Q], by_id[PROFILE_QUAD]], expected, work,
                          problems)
    q = tracer.pass_metrics([0])
    d2 = tracer.pass_metrics([1])
    alphas = expected[PROFILE_Q]["alphas"]
    print(f"{PROFILE_Q}: {q['polynomials.eval.calls']} polynomial evaluations over {alphas} "
          f"alphas; is_zero_periodic {q['orbits.is_zero_periodic.s']:.3f} s of "
          f"{res[0].seconds:.3f} s; factor_rational_prime {q['ideals.factor_rational_prime.calls']}"
          f" calls")
    share = d2["ideals.factor_rational_prime.self_s"] / res[1].seconds
    print(f"{PROFILE_QUAD}: factor_rational_prime self time "
          f"{d2['ideals.factor_rational_prime.self_s']:.3f} s of {res[1].seconds:.3f} s "
          f"({share:.0%}); largest split prime {d2['ideals.factor_rational_prime.max_p_bits']} bits")


def probe_known_hangs(cli, expected, work):
    cut = 1.5 * pools.DEADLINE_S["single-shot"]
    for i, inst in enumerate(pools.KNOWN_HANG):
        res = harness.run_op(cli, inst, work, cut, None, 1000 + i)
        if res.deadline_hit:
            print(f"known hang {inst.id}: cut after {res.seconds:.1f} s: {res.error}")
        else:
            why = harness.check(res, expected)
            print(f"known hang {inst.id} now finishes in {res.seconds:.3f} s: "
                  f"{'matches the sympy answer' if why is None else why}")


def main() -> int:
    problems: list[str] = []
    check_draws(problems)
    expected = harness.load_expected()
    check_expected(expected, problems)
    harness.import_orbitforge(fresh=False)
    cli = sys.modules["orbitforge.cli"]
    work = tempfile.mkdtemp(dir=harness.ROOT, prefix=".perfbench-check-")
    try:
        check_self_times(cli, expected, work, problems)
        profile(cli, expected, work, problems)
        probe_known_hangs(cli, expected, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"PROBLEM {p}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
