"""Compare two benchmark result files, parent then change.

    python3 bench/compare.py parent.json change.json

Applies the rule for measuring in a small sandbox to every pair of
end-to-end metric and workload, with each metric's regression bound from
BENCHMARK.json:

- improved: at least ten pairs of runs, the change wins at least nine tenths
  of them (ties count for neither), and the medians differ by more than the
  parent's quartile spread;
- worse: the change's median is worse than the parent's by more than the
  bound, or more queries failed;
- unresolved: a side's quartile spread exceeds the bound and not every run
  of the change beats every run of the parent;
- unchanged: otherwise.

Runs are paired in file order, so record both sides with the same --repeat
and seeds.  Exits 1 when any row is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _values(result_file: dict, names) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for run in result_file["runs"]:
        if run["trace"]:
            continue
        for name in names:
            out.setdefault((run["workload"], name), []).append(run[name])
        out.setdefault((run["workload"], "failed"), []).append(run["failed"])
    return out


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def verdict(parent: list[float], change: list[float], bound: float,
            lower_better: bool) -> tuple[str, int]:
    """The row's verdict and the number of pairs the change won."""
    sign = 1 if lower_better else -1
    p = [sign * x for x in parent]
    c = [sign * x for x in change]
    med_p, med_c = statistics.median(p), statistics.median(c)
    p1, p3 = _quartiles(p)
    c1, c3 = _quartiles(c)
    pairs = list(zip(p, c))
    wins = sum(b < a for a, b in pairs)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and med_p - med_c > p3 - p1:
        return "improved", wins
    if med_c - med_p > bound * abs(med_p):
        return "worse", wins
    scale = abs(med_p) or 1.0
    wide = (p3 - p1) / scale > bound or (c3 - c1) / scale > bound
    if wide and not max(c) < min(p):
        return "unresolved", wins
    return "unchanged", wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    parent = _values(json.loads(args.parent.read_text()), bounds)
    change = _values(json.loads(args.change.read_text()), bounds)

    worse = False
    print(f"{'workload':13s} {'metric':16s} {'verdict':11s} {'parent median [q1, q3]':>34s}"
          f" {'change median [q1, q3]':>34s} wins/pairs")
    for (workload, name), pv in sorted(parent.items()):
        cv = change.get((workload, name))
        if cv is None:
            continue
        if name == "failed":
            v, wins = ("worse" if sum(cv) > sum(pv) else "unchanged"), 0
        else:
            v, wins = verdict(pv, cv, *bounds[name])
        worse |= v == "worse"
        pq, cq = _quartiles(pv), _quartiles(cv)
        print(f"{workload:13s} {name:16s} {v:11s}"
              f" {statistics.median(pv):12.5g} [{pq[0]:9.5g}, {pq[1]:9.5g}]"
              f" {statistics.median(cv):12.5g} [{cq[0]:9.5g}, {cq[1]:9.5g}]"
              f" {wins}/{min(len(pv), len(cv))}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
