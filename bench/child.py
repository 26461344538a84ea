"""One workload in one fresh process: set up, time, check, report.

Run by bench/run.py, never imported by it.  Prints one JSON object on its
last stdout line.  Each query is one in-process qrg.cli.main(argv) call
with stdout captured, issued by a single client in a closed loop.  Passes
over the workload's fixed query list repeat while another one fits in the
run length; with tracing on, each untraced pass is followed by a traced
one so the difference of their medians is the tracing overhead.

Times are CPU seconds of this process at a reference machine speed.  qrg
runs single-threaded and does no I/O, so its CPU time is its elapsed time
minus the stretches in which the machine did not run it.  The shared
machines this runs on also change speed by a factor of up to three within
seconds (measured on a 2-vCPU Xeon: a fixed pure-Python loop took 70 ms,
130 ms or 240 ms depending on the minute).  A SpeedMeter times a fixed
kernel every PROBE_EVERY_S inside the measured process; each query's time
is multiplied by PROBE_REF_S over the mean kernel time within
PROBE_WINDOW_S of it.  Unscaled CPU times are kept in the result as raw_*.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
DIGESTS = BENCH / "digests.json"
PROBE_REF_S = 1e-3
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.25


def _kernel():
    """Fixed work: interpreter loops and small numpy operations, the two
    kinds of work qrg queries are made of."""
    import numpy as np

    s = 0
    for i in range(8000):
        s += i * i
    a = np.arange(64)
    for _ in range(150):
        a = (a * 3 + 1) % 97


class SpeedMeter:
    """Times _kernel every PROBE_EVERY_S from a SIGALRM handler.

    The handler runs in the measured thread between bytecodes, so it sees
    the speed the queries see.  Time spent in the handler is counted in
    `spent` and taken out of the query times.
    """

    def __init__(self):
        # (wall-clock midpoint, CPU seconds) of each kernel run
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0  # CPU seconds spent in sample

    def sample(self, *_):
        cpu = time.process_time()
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        cpu = time.process_time() - cpu
        self.samples.append(((start + end) / 2, cpu))
        self.spent += cpu

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """PROBE_REF_S over the mean kernel time within PROBE_WINDOW_S of the
        wall-clock interval [start, end]."""
        mids = [m for m, _ in self.samples]
        lo = bisect.bisect_left(mids, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(mids, end + PROBE_WINDOW_S)
        window = [d for _, d in self.samples[lo:hi]] or [d for _, d in self.samples]
        return PROBE_REF_S * len(window) / sum(window)


def _run_query(cli, argv, meter):
    # cli.main is looked up at each call so that a traced pass reaches the
    # tracer's wrapper.
    buf = io.StringIO()
    spent = meter.spent
    start = time.perf_counter()
    cpu = time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a qrg bug: record it and keep measuring
        code = -1
        buf.write(f"\nuncaught {type(exc).__name__}: {exc}\n")
    cpu = time.process_time() - cpu - (meter.spent - spent)
    return code, buf.getvalue(), cpu, (start, time.perf_counter())


def _run_pass(cli, queries, tracer=None):
    """(records, scaled times): records are (exit code, stdout, CPU seconds)."""
    records = []
    intervals = []
    with SpeedMeter() as meter:
        for qi, q in enumerate(queries):
            if tracer is not None:
                tracer.query_id = qi
            code, out, dt, interval = _run_query(cli, q.argv, meter)
            records.append((code, out, dt))
            intervals.append(interval)
            if q.enumerated:
                # Built groups sit in reference cycles; free them between
                # queries, as the end of a CLI process would.
                gc.collect()
    scaled = [dt * meter.scale(*iv) for (_, _, dt), iv in zip(records, intervals)]
    return records, scaled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's per-query output digests as the committed ones")
    args = ap.parse_args(argv)

    t0 = time.process_time()
    sys.path.insert(0, str(ROOT / "src"))
    import qrg.cli

    queries = workloads.generate(args.workload, args.seed)
    raw_setup_s = time.process_time() - t0
    meter = SpeedMeter()
    for _ in range(5):
        meter.sample()
    setup = {"raw_setup_s": raw_setup_s,
             "setup_s": raw_setup_s * meter.scale(-math.inf, math.inf)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    checker = checks.Checker(ROOT)
    tracer = None
    if args.trace:
        from tracer import Tracer

    untraced, traced = [], []  # (raw times, scaled times) per pass
    layer_runs = []
    reference = None  # (exit code, stdout) per query, from the first pass
    differs = [0] * len(queries)  # passes whose output differed from it
    problems = []
    start = time.perf_counter()
    while True:
        passes = [(untraced, _run_pass(qrg.cli, queries))]
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                records, scaled = _run_pass(qrg.cli, queries, tracer)
            finally:
                tracer.uninstall()
            passes.append((traced, (records, scaled)))
            # Self times get the pass's overall speed factor.
            factor = sum(scaled) / sum(dt for _, _, dt in records)
            layer_runs.append({k: v * factor if k.endswith("_s") else v
                               for k, v in tracer.metrics().items()})
            want = sum(q.enumerated for q in queries)
            got = tracer.counts.get("engine.enumerate.elements", 0)
            if got != want:
                problems.append(f"engine.enumerate.elements {got} != closed-form sum {want}")
        for into, (records, scaled) in passes:
            outs = [(code, out) for code, out, _ in records]
            if reference is None:
                reference = outs
            for i, (got, want) in enumerate(zip(outs, reference)):
                differs[i] += got != want
            into.append(([dt for _, _, dt in records], scaled))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(untraced)) > args.seconds:
            break

    # Checks run after timing so their memory does not depend on the pass
    # count; a query whose first output fails counts as failed in every pass.
    bad, failures = _check(args, checker, queries, reference, problems)
    runs = len(untraced) + len(traced)
    attempted = runs * len(queries)
    failed = sum(runs if b else d for b, d in zip(bad, differs))
    walls = [sum(scaled) for _, scaled in untraced]
    lat_ms = sorted(t * 1000 for _, scaled in untraced for t in scaled)
    raw_walls = [sum(raw) for raw, _ in untraced]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "queries": len(queries),
        "query_mix": dict(sorted(_mix(queries).items())),
        "passes": len(untraced),
        **setup,
        "wall_s": statistics.median(walls),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": p90,
        "latency_samples": len(lat_ms),
        "latency_p90_tail": sum(x > p90 for x in lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_wall_s": walls,
        "raw_pass_wall_s": raw_walls,
        "raw_wall_s": statistics.median(raw_walls),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "problems": problems,
        "digest": checks.stream_digest((q.argv, c, o) for q, (c, o) in zip(queries, reference)),
        "numpy": sys.modules["numpy"].__version__,
    }
    if args.trace:
        traced_wall = statistics.median(sum(scaled) for _, scaled in traced)
        per_layer = {name: statistics.median(run[name] for run in layer_runs)
                     for name in layer_runs[0]}
        per_layer["trace.overhead_s"] = traced_wall - result["wall_s"]
        result["per_layer"] = per_layer
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


def _check(args, checker, queries, records, problems):
    """(bad, failures): which queries' first-pass output fails a check, and
    the first 20 reasons."""
    bad = []
    failures = []
    for q, (code, out) in zip(queries, records):
        why = checker.check(q, code, out)
        bad.append(why is not None)
        if why is not None:
            failures.append({"argv": q.argv, "why": why})
    if args.record_digests:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table[args.workload] = _query_digests(queries, records)
        DIGESTS.write_text(json.dumps(table, indent=0) + "\n")
    elif args.seed == DEFAULT_SEED:
        digests = json.loads(DIGESTS.read_text())[args.workload]
        if len(digests) != len(queries):
            problems.append("default-seed query count differs from the committed digests")
        for i, (want, have) in enumerate(zip(digests, _query_digests(queries, records))):
            if want != have:
                bad[i] = True
                failures.append({"argv": queries[i].argv,
                                 "why": "differs from the committed default-seed output"})
    return bad, failures[:20]


def _query_digests(queries, records):
    return [checks.stream_digest([(q.argv, c, o)])[:16] for q, (c, o) in zip(queries, records)]


def _mix(queries):
    out = {}
    for q in queries:
        out[q.kind] = out.get(q.kind, 0) + 1
    return out


if __name__ == "__main__":
    sys.exit(main())
