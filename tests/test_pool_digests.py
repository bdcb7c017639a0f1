"""Every benchmark pool instance keeps its exit code and result digest.

Runs each instance of perfbench/pools.py, the known-hang ones included,
through the same in-process CLI call the benchmark makes
(perfbench/harness.py), without a factor cache, and compares it with
perfbench/expected.json.  The benchmark files are only imported, never
changed.  About 6 s on a 2-core CPython 3.11 host.
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
