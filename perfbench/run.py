"""orbitforge benchmark: seeded CLI op lists, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload campaign-q --seed 1 --seconds 36 --trace 0

Run from the repository root.  One process, one closed-loop client: each op
starts when the previous one has finished, in-process through
``orbitforge.cli.main``.  The op list is drawn from the checked-in pools by
the seed (pools.py) and repeated in passes until --seconds are used up: the
first pass always runs whole, and a later op starts only if its previous
time still fits.  Every op's output is checked against expected.json.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with a
host-speed meter running (speed.py): every time is scaled to the reference
host speed, and each op's time is its median over the passes.  --trace 1
runs one untraced pass, then whole traced passes while they fit (at least
one), without the meter, and reports the per-layer metrics (tracing.py) as
medians over the traced passes, plus trace.overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print every metric with its unit
and sample count, fail_share, the raw and scaled pass times, and any op
that failed.  Exit status 0 means every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import pools  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5  # set-ups before each untraced pass
WORK_DIR = os.path.join(harness.ROOT, ".perfbench-work")
TRACE_DIR = os.path.join(harness.ROOT, ".perfbench-out")


def run_pass(cli, ops, expected, deadline, work, tracer=None, first_op=0, meter=None,
             stop_at=None, predicted=None):
    """Run the op list once; returns [(OpResult, failure or None)].

    With stop_at (a time.perf_counter() value), the pass ends early before
    the first op whose predicted seconds would end past it.
    """
    pass_dir = tempfile.mkdtemp(dir=work, prefix="pass")
    if any(inst.command in ("search-dependence", "sunit-scan") for inst in ops):
        os.environ.pop("ORBITFORGE_CACHE", None)  # campaigns run without a cache
    else:
        # a fresh factor cache per pass, written and read within the pass
        os.environ["ORBITFORGE_CACHE"] = os.path.join(pass_dir, "factor-cache.txt")
    out = []
    for i, inst in enumerate(ops):
        if stop_at is not None and time.perf_counter() + predicted[i] > stop_at:
            break
        res = harness.run_op(cli, inst, pass_dir, deadline, tracer, first_op + i, meter)
        out.append((res, harness.check(res, expected)))
    shutil.rmtree(pass_dir, ignore_errors=True)
    return out


def end_to_end(setups, passes, expected, deadline, rss_mb):
    """End-to-end metrics: {name: (value, unit, samples)}.

    Times are scaled to the reference host speed (speed.py).  Each op's
    time is its median over the passes that ran it; sums, medians and
    percentiles over the ops and the set-ups make the metrics.  A failed op
    counts as over any latency limit.  rss_mb is the peak resident memory
    at the end of the first pass, which runs the whole op list once.
    """
    by_op = [[p[i] for p in passes if i < len(p)] for i in range(len(passes[0]))]
    op_s = [statistics.median(r.scaled for r, _ in runs) for runs in by_op]
    failed = [any(why for _, why in runs) for runs in by_op]
    alphas = [expected[runs[0][0].instance]["alphas"] for runs in by_op]
    lat_ms = [1e3 * (max(t, deadline) if bad else t) for t, bad in zip(op_s, failed)]
    alpha_time = sum(t for t, a in zip(op_s, alphas) if a)
    samples = sum(len(p) for p in passes)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (sum(op_s), "s", samples),
        "alphas_per_s": (sum(alphas) / alpha_time, "1/s", samples),
        "op_p50_ms": (statistics.median(lat_ms), "ms", samples),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms",
                      samples),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def per_layer(tracer, traced_passes, untraced_wall):
    """Per-layer metrics: medians over the traced passes."""
    per_pass = [tracer.pass_metrics(op_ids) for op_ids, _ in traced_passes]
    out = {}
    for name, unit in tracing.PER_LAYER_UNITS.items():
        if name == "trace.overhead":
            walls = [wall for _, wall in traced_passes]
            out[name] = (statistics.median(walls) / untraced_wall, unit, len(walls))
        else:
            out[name] = (statistics.median(p[name] for p in per_pass), unit, len(per_pass))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=pools.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    stop_at = time.perf_counter() + args.seconds
    ops = pools.draw(args.workload, args.seed)
    meter = None if args.trace else speed.Meter()
    try:
        expected = harness.load_expected()
        missing = [inst.id for inst in ops if inst.id not in expected]
        if missing:
            raise harness.SetupError(f"no expected output for {missing}")
        fields = pools.fields_of(args.workload)
        if meter:
            meter.start()
        setups = [harness.setup_once(fields, meter) for _ in range(SETUP_REPEATS)]
    except (harness.SetupError, OSError, ValueError, ImportError) as exc:
        if meter:
            meter.stop()
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    deadline = pools.DEADLINE_S[args.workload]

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR, prefix=f"{args.workload}-")
    passes, traced_passes = [], []
    tracer = None
    try:
        cli = sys.modules["orbitforge.cli"]
        passes.append(run_pass(cli, ops, expected, deadline, work, meter=meter))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not args.trace and time.perf_counter() < stop_at:
            # set-ups spread over the run sample more of the host's speed
            # swings than a block of them at the start
            setups += [harness.setup_once(fields, meter) for _ in range(SETUP_REPEATS)]
            cli = sys.modules["orbitforge.cli"]
            predicted = [r.seconds for r, _ in passes[0]]
            results = run_pass(cli, ops, expected, deadline, work, meter=meter,
                               stop_at=stop_at, predicted=predicted)
            if not results:
                break
            passes.append(results)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            last = sum(r.seconds for r, _ in passes[0])
            while not traced_passes or time.perf_counter() + last <= stop_at:
                first = len(ops) * len(traced_passes)
                results = run_pass(cli, ops, expected, deadline, work, tracer, first)
                last = sum(r.seconds for r, _ in results)
                traced_passes.append((list(range(first, first + len(ops))), last))
                passes.append(results)
            tracer.remove()
    finally:
        if meter:
            meter.stop()
        os.environ.pop("ORBITFORGE_CACHE", None)
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)

    all_results = [pair for results in passes for pair in results]
    failures = [(r, why) for r, why in all_results if why is not None]
    # a deadline hit is a failed op; any other failure is a wrong output
    correct = all(r.deadline_hit for r, _ in failures)
    if args.trace:
        metrics = per_layer(tracer, traced_passes, sum(r.seconds for r, _ in passes[0]))
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path, [inst.id for _ in traced_passes for inst in ops])
    else:
        metrics = end_to_end(setups, passes, expected, deadline, rss_mb)

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(passes)} passes ({len(traced_passes)} traced), deadline {deadline:g} s per op")
    for r, why in failures:
        print(f"FAILED {r.instance} after {r.seconds:.3f} s: {why}")
    print("  pass times, raw:", ", ".join(f"{sum(r.seconds for r, _ in results):.3f} s"
                                         for results in passes))
    if meter:
        print("  pass times, scaled:", ", ".join(f"{sum(r.scaled for r, _ in results):.3f} s"
                                                for results in passes),
              f"({len(meter.samples)} speed samples)")
    print(f"  fail_share = {len(failures) / len(all_results):.4g} share "
          f"({len(failures)} of {len(all_results)} ops)")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    if args.trace:
        print(f"  spans written to {os.path.relpath(trace_path, harness.ROOT)}")
    if threading.active_count() != 1:
        print("perfbench: the run started threads", file=sys.stderr)
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
