"""qrg benchmark: time CLI queries end to end and, traced, layer by layer.

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --repeat 10 --out result.json

Each workload runs in its own fresh child process (bench/child.py) with
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS pinned to 1.
Times are CPU seconds scaled to a reference machine speed (see child.py).
Set-up time is the median over SETUP_SAMPLES fresh processes.  With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones; lines before it name every metric with its
unit.  The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 160
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracer.metric_names() + ["trace.overhead_s"]:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_frac"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [_child(common + ["--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = _child(common + ["--trace", str(trace)])
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    result["correct"] = result["failed"] == 0 and not result["problems"]
    return result


def metrics_of(result: dict) -> dict:
    if result["trace"]:
        units = per_layer_units()
        return {k: {"value": result["per_layer"][k], "unit": units[k]} for k in units}
    return {k: {"value": result[k], "unit": u} for k, u in END_TO_END.items()}


def report(result: dict):
    """Human-readable lines: every metric by name and unit, then problems."""
    w = result["workload"]
    for name, m in metrics_of(result).items():
        note = ""
        if name == "latency_p50_ms":
            note = f"  (samples={result['latency_samples']})"
        elif name == "latency_p90_ms":
            note = f"  (samples={result['latency_samples']}, beyond={result['latency_p90_tail']})"
        print(f"{w:13s} {name:40s} {m['value']:14.6f} {m['unit']}{note}")
    print(f"{w:13s} {'error_rate':40s} {result['error_rate']:14.6f} ratio"
          f"  ({result['failed']}/{result['attempted']})")
    for name in result.get("absent", []):
        print(f"{w:13s} absent trace target: {name}")
    for f in result["failures"]:
        print(f"{w:13s} FAILED {' '.join(f['argv'])[:100]}: {f['why']}")
    for p in result["problems"]:
        print(f"{w:13s} PROBLEM {p}")


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, with seeds seed, seed+1, ...")
    ap.add_argument("--out", type=Path, default=None,
                    help="write a result file that bench/compare.py reads")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qrg" / "cli.py").is_file():
        print(f"no qrg source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        for i in range(args.repeat):
            result = run_workload(name, args.seed + i, args.seconds, args.trace)
            report(result)
            runs.append(result)

    if args.out is not None:
        env = environment()
        env["numpy"] = runs[0]["numpy"]
        why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
        mix = {r["workload"]: {"queries": r["queries"], "query_mix": r["query_mix"],
                               "why": why[r["workload"]]} for r in runs}
        args.out.write_text(json.dumps(
            {"environment": env, "seconds": args.seconds, "workloads": mix, "runs": runs},
            indent=1) + "\n")

    correct = all(r["correct"] for r in runs)
    if len(runs) == 1:
        metrics = metrics_of(runs[0])
    else:
        metrics = {f"{r['workload']}.{r['seed']}.{k}": m
                   for r in runs for k, m in metrics_of(r).items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
