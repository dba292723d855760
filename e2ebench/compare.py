#!/usr/bin/env python3
"""Reads saved benchmark run outputs and judges them.

Each run's standard output is saved as one `*.out` file; its `facts`
line names the workload and its last line is the JSON result.

    python3 e2ebench/compare.py spread RUNS_DIR
        Per workload x metric: median, quartiles, and the spread
        (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

    python3 e2ebench/compare.py compare BASE_DIR NEW_DIR
        Per workload x end-to-end metric: both sides' medians and
        quartiles and a verdict -- better, no worse, worse or unresolved.

Verdict rule (the choosing-metrics guide, section 8, plus the bounds):
runs are paired by seed. A side "wins" a pair when its value is better;
ties count for neither. "better": the new side wins at least nine
tenths of the pairs and the medians differ by more than the base side's
quartile distance. "worse": the new median is worse than the base
median by more than the metric's bound, or the base side wins at least
nine tenths of the pairs and the medians differ by more than the base
side's quartile distance. "unresolved": the base side's spread
(quartile distance over median) is wider than the bound, unless every
new run reads better than every base run. Otherwise "no worse". Exit
status 1 if any verdict is "worse".
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_manifest():
    with open(MANIFEST) as f:
        manifest = json.load(f)
    e2e = {m["name"]: m for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m for m in manifest["per_layer"]}
    return e2e, per_layer


def load_runs(directory):
    """Returns {workload: [(seed, metrics dict)]} from every output file."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not name.endswith(".out") or not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        facts = next((l for l in lines if l.startswith("facts ")), None)
        if not lines or facts is None:
            print(f"skipping {path}: no facts line", file=sys.stderr)
            continue
        facts = json.loads(facts[len("facts "):])
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(facts["workload"], []).append((facts["seed"], metrics))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def cmd_spread(directory):
    e2e, per_layer = load_manifest()
    runs = load_runs(directory)
    print(f"{'workload':14} {'metric':32} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    worst = 0.0
    for workload, entries in sorted(runs.items()):
        names = sorted({k for _, m in entries for k in m})
        for name in names:
            values = [m[name] for _, m in entries if m.get(name) is not None]
            if not values:
                continue
            q1, _, q3 = quartiles(values)
            s = spread(values)
            bound = e2e.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, s / bound)
                flag = " OVER" if s > bound else (" >1/3" if s > bound / 3 else "")
            print(f"{workload:14} {name:32} {len(values):3} {statistics.median(values):12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {s:7.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")
    print(f"largest spread/bound over end-to-end metrics (setup_s aside): {worst:.2f}")


def verdict(base, new, better, bound):
    """base/new: {seed: value}. Returns (verdict, detail)."""
    sign = 1.0 if better == "higher" else -1.0
    b = list(base.values())
    n = list(new.values())
    b_med, n_med = statistics.median(b), statistics.median(n)
    b_q1, _, b_q3 = quartiles(b)
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    gain = sign * (n_med - b_med)
    worse_by = -gain / abs(b_med) if b_med else 0.0
    all_better = min(sign * v for v in n) > max(sign * v for v in b)
    base_spread = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    moved = (n_med - b_med) / abs(b_med) if b_med else 0.0
    detail = (f"median {moved:+.1%}, new wins {wins}/{len(pairs)}, "
              f"base spread {base_spread:.1%}")
    clear = pairs and abs(n_med - b_med) > (b_q3 - b_q1)
    if clear and wins >= 0.9 * len(pairs) and gain > 0:
        return "better", detail
    if worse_by > bound or (clear and losses >= 0.9 * len(pairs) and gain < 0):
        return "worse", detail
    if base_spread > bound and not all_better:
        return "unresolved", detail
    return "no worse", detail


def cmd_compare(base_dir, new_dir):
    e2e, _ = load_manifest()
    base_runs, new_runs = load_runs(base_dir), load_runs(new_dir)
    any_worse = False
    print(f"{'workload':14} {'metric':26} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34}  verdict")
    for workload in sorted(set(base_runs) | set(new_runs)):
        if workload not in base_runs or workload not in new_runs:
            print(f"{workload:14} present on one side only")
            continue
        for name, spec in e2e.items():
            base = {s: m[name] for s, m in base_runs[workload] if name in m}
            new = {s: m[name] for s, m in new_runs[workload] if name in m}
            if not base or not new:
                continue
            v, detail = verdict(base, new, spec["better"], spec["bound"])
            any_worse |= v == "worse"
            bq1, bmed, bq3 = quartiles(list(base.values()))
            nq1, nmed, nq3 = quartiles(list(new.values()))
            print(f"{workload:14} {name:26} {statistics.median(base.values()):10.4g} "
                  f"[{bq1:9.4g}, {bq3:9.4g}] {statistics.median(new.values()):10.4g} "
                  f"[{nq1:9.4g}, {nq3:9.4g}]  {v} ({detail})")
    return 1 if any_worse else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "spread":
        cmd_spread(argv[2])
        return 0
    if len(argv) == 4 and argv[1] == "compare":
        return cmd_compare(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
