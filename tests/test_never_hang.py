"""Never-hang audit: adversarial configs through the CLI, each under an alarm.

Every command must answer within ALARM_S seconds: exit 0, exit 2 with skip
rows, or exit 1 with a message that names a cap or a refusal.  A run that
is still going when the alarm fires fails the test with the stack it was
stuck in, as faulthandler prints it.  The alarm acts on this process only.

The catalogue holds configs that once ran without bound: rational-root
searches on large coefficients, a splitting-field discriminant that cannot
be factored within the configured budget, principal-generator boxes too
large to scan, and S-part witnesses at 200-bit values that were factored
completely.
"""

import faulthandler
import json
import os
import re
import signal
import tempfile

import pytest

from orbitforge.cli import main

ALARM_S = 10
CAP_OR_REFUSAL = re.compile(r"cap|budget|too large|undecidable|needs|requires", re.IGNORECASE)


def _ini(field, coeffs, S, caps="", run=""):
    return (
        f"[field]\n{field}\n\n[poly]\ncoeffs = {coeffs}\n\n[sset]\nideals = {S}\n"
        + (f"\n[caps]\n{caps}\n" if caps else "")
        + (f"\n[run]\n{run}\n" if run else "")
    )


BIG_C = 10**20 + 39
BIG_A = 2**200 + 7
CATALOGUE = [
    ("constants", _ini("kind = rational", f"{BIG_C},-1,0,1", "2,3,5"), "x3-x+(10^20+39)"),
    ("search-dependence", _ini("kind = rational", f"{BIG_C},-1,0,1", "2,3,5"), "x3-x+(10^20+39)"),
    ("constants", _ini("kind = rational", f"1,0,0,{2**80 + 13}", "2,3,5"), "(2^80+13)x3+1"),
    (
        "constants",
        _ini("kind = rational", f"{-(2**61 - 1) * (2**89 - 1)},0,1", "2,3,5", "factor_budget = 1000"),
        "x2-(2^61-1)(2^89-1)-budget-1000",
    ),
    (
        "verify-spart",
        _ini("kind = quadratic\nd = 199999", "0,2,-3,1", "3", run="alpha = 7"),
        "Q(sqrt199999)-regulator-856",
    ),
    (
        "verify-spart",
        _ini("kind = quadratic\nd = -9991", "0,2,-3,1", "5", run="alpha = 7"),
        "Q(sqrt-9991)-h32",
    ),
    (
        "verify-spart",
        _ini("kind = quadratic\nd = 2", "0,2,-3,1", "2,3,5", run=f"alpha = {BIG_A},1"),
        "Q(sqrt2)-alpha-(2^200+7)+w",
    ),
    (
        "verify-spart",
        _ini("kind = rational", "0,2,-3,1", "2,3,5", run=f"alpha = {BIG_A}"),
        "Q-alpha-2^200+7",
    ),
]


class _Hang(BaseException):
    """Raised by the alarm; a BaseException so no library handler can swallow it."""


def _on_alarm(signum, frame):
    with tempfile.TemporaryFile("w+") as fh:
        faulthandler.dump_traceback(fh, all_threads=False)
        fh.seek(0)
        raise _Hang(fh.read())


def _run_bounded(argv):
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(ALARM_S)
    try:
        return main(argv)
    except _Hang as hang:
        pytest.fail(f"no answer within {ALARM_S} s:\n{hang.args[0]}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize(
    "command,ini", [c[:2] for c in CATALOGUE], ids=[f"{c[0]}-{c[2]}" for c in CATALOGUE]
)
def test_command_answers_within_the_alarm(command, ini, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ORBITFORGE_CACHE", raising=False)
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    out = tmp_path / "out"
    code = _run_bounded([command, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 1:
        assert CAP_OR_REFUSAL.search(err), err
        assert "OverflowError" not in err and "math range error" not in err
    if code == 2:
        with open(os.path.join(out, f"{command}.jsonl")) as fh:
            assert any(json.loads(line).get("type") == "skip" for line in fh)
