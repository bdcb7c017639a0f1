"""Every benchmark pool instance keeps its exit code and result digest.

Runs each instance of perfbench/pools.py, the known-hang ones included,
through the same in-process CLI call the benchmark makes
(perfbench/harness.py), without a factor cache, and compares it with
perfbench/expected.json.  A second test runs the witness and orbit
instances against a corrupt factor cache, which only commands that factor
read.  The benchmark files are only imported, never changed.  About 6 s on
a 2-core CPython 3.11 host.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import harness  # noqa: E402
import pools  # noqa: E402


def test_every_pool_instance_keeps_its_exit_code_and_digest(tmp_path, monkeypatch):
    monkeypatch.delenv("ORBITFORGE_CACHE", raising=False)
    cli = harness.import_orbitforge(fresh=False).cli
    expected = harness.load_expected()
    failures = []
    for i, inst in enumerate(pools.all_instances()):
        deadline = 3 * pools.DEADLINE_S[pools.workload_of(inst)]
        problem = harness.check(harness.run_op(cli, inst, str(tmp_path), deadline, op_index=i),
                                expected)
        if problem is not None:
            failures.append(f"{inst.id}: {problem}")
    assert not failures, "\n".join(failures)


def test_commands_that_factor_nothing_never_read_the_factor_cache(tmp_path, monkeypatch, capsys):
    # 720 = 2^4 * 3^2 fails the product check: a command that reads this cache exits 1
    corrupt = b"# orbitforge-factor-cache v1\n720 = 2^4 * 3^2\n"
    cache = tmp_path / "factors.txt"
    cache.write_bytes(corrupt)
    monkeypatch.setenv("ORBITFORGE_CACHE", str(cache))
    cli = harness.import_orbitforge(fresh=False).cli
    expected = harness.load_expected()
    codes = {}
    for i, inst in enumerate(pools.all_instances()):
        if inst.command in ("witness", "orbit"):
            deadline = 3 * pools.DEADLINE_S[pools.workload_of(inst)]
            res = harness.run_op(cli, inst, str(tmp_path), deadline, op_index=i)
            codes[inst.id] = res.exit_code
            if res.exit_code == 0:
                assert harness.check(res, expected) is None, inst.id
    # alpha = 1/2: the height of each iterate factors its denominator
    assert codes.pop("orbit-Q-x2+1-a1o2-m5") == 1
    assert len(codes) == 19 and set(codes.values()) == {0}
    assert cache.read_bytes() == corrupt
    capsys.readouterr()
    ini = tmp_path / "heights.ini"
    ini.write_text("[field]\nkind = rational\n\n[poly]\ncoeffs = 3,-1,0,1\n\n[sset]\nideals = 2,3,5\n\n"
                   "[run]\nalpha = 1/6\n")
    assert cli.main(["heights", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
    assert "corrupt cache line 2" in capsys.readouterr().err
    assert cache.read_bytes() == corrupt
