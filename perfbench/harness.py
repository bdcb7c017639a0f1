"""Loading orbitforge from the checkout and running one CLI op in-process.

An op runs ``orbitforge.cli.main([command, "--config", ini, "--out", dir])``
under a per-op deadline enforced by an interval timer (SIGALRM), so a hang
costs exactly the deadline and the process starts no thread or subprocess.
With a host-speed meter running (speed.py), each op's time is also scaled
to the reference host speed.
The op's result is its exit code plus a digest of its result rows: every
JSON line of ``<command>.jsonl`` except the provenance row and any row of
type ``stats``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
SKIPPED_ROW_TYPES = ("provenance", "stats")


class SetupError(RuntimeError):
    pass


class OpDeadline(BaseException):
    """Raised by the timer; a BaseException so library handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def import_orbitforge(fresh: bool):
    """Import orbitforge from <checkout>/src; fresh drops earlier imports first."""
    if not os.path.isfile(os.path.join(SRC, "orbitforge", "cli.py")):
        raise SetupError(f"no orbitforge sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if fresh:
        for name in [n for n in sys.modules if n == "orbitforge" or n.startswith("orbitforge.")]:
            del sys.modules[name]
    import orbitforge
    import orbitforge.cli

    if not os.path.abspath(orbitforge.__file__).startswith(SRC + os.sep):
        raise SetupError(f"orbitforge was imported from {orbitforge.__file__}, not {SRC}")
    return orbitforge


def setup_once(fields, meter=None) -> float:
    """One CLI user's start-up cost: import, the workload's fields, first-use tables.

    Raw seconds, or scaled to the reference host speed when a meter runs.
    """
    first = meter.mark() if meter else 0
    t0 = time.perf_counter()
    of = import_orbitforge(fresh=True)
    for kind, D in fields:
        of.make_field(kind, D)
    of.intfactor.small_primes()
    seconds = time.perf_counter() - t0
    return meter.scaled(seconds, first, meter.mark()) if meter else seconds


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def rows_digest(lines) -> str:
    """sha256 of the result rows, given as the JSONL lines of a report."""
    keep = [ln for ln in lines if json.loads(ln).get("type") not in SKIPPED_ROW_TYPES]
    return hashlib.sha256("\n".join(keep).encode("utf-8")).hexdigest()


@dataclass
class OpResult:
    instance: str
    seconds: float  # raw wall-clock time
    scaled: float  # at the reference host speed (speed.py); raw without a meter
    exit_code: int | None  # None: deadline or exception
    digest: str | None
    error: str | None = None  # why the op produced no report
    deadline_hit: bool = False


def _where(tb) -> str:
    """Innermost orbitforge frame of a traceback, as module.function (file:line)."""
    where = "outside orbitforge"
    for frame in traceback.extract_tb(tb):
        if os.sep + "orbitforge" + os.sep in frame.filename:
            mod = os.path.splitext(os.path.basename(frame.filename))[0]
            where = f"{mod}.{frame.name} ({mod}.py:{frame.lineno})"
    return where


def run_op(cli, inst, work_dir: str, deadline_s: float, tracer=None, op_index: int = 0,
           meter=None):
    """Run one pool instance through the CLI entry point; never raises for op faults."""
    op_dir = os.path.join(work_dir, f"op{op_index}")
    os.makedirs(op_dir)
    ini = os.path.join(op_dir, "run.ini")
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(inst.ini())
    out = os.path.join(op_dir, "out")
    argv = [inst.command, "--config", ini, "--out", out]
    old = signal.signal(signal.SIGALRM, _on_alarm)
    root = tracer.begin_op(op_index, "op." + inst.command) if tracer else None
    code = error = None
    deadline_hit = False
    first = meter.mark() if meter else 0
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        code = cli.main(argv)
    except OpDeadline as exc:
        error = f"deadline {deadline_s:g} s in {_where(exc.__traceback__)}"
        deadline_hit = True
    except Exception as exc:  # an op fault is a result, not a harness crash
        error = f"{type(exc).__name__}: {exc} in {_where(exc.__traceback__)}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        scaled = meter.scaled(seconds, first, meter.mark()) if meter else seconds
        if tracer:
            tracer.end_op(root)
        signal.signal(signal.SIGALRM, old)
    digest = None
    if error is None:
        try:
            with open(os.path.join(out, f"{inst.command}.jsonl"), encoding="utf-8") as fh:
                digest = rows_digest(fh.read().splitlines())
        except (OSError, ValueError) as exc:
            error = f"unreadable report: {exc}"
    shutil.rmtree(op_dir, ignore_errors=True)
    return OpResult(inst.id, seconds, scaled, code, digest, error, deadline_hit)


def check(result: OpResult, expected: dict) -> str | None:
    """None when the op succeeded; otherwise why it failed."""
    if result.error is not None:
        return result.error
    want = expected[result.instance]
    if result.exit_code != want["exit"]:
        return f"exit {result.exit_code}, expected {want['exit']}"
    if result.digest != want["digest"]:
        return "result rows differ from the expected output"
    return None
