#!/usr/bin/env python3
"""Compare two benchmark result sets, or report the spread of one.

    python3 perfbench/compare.py PARENT.jsonl            # spread of one set
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is the JSON lines that ``run.py --record FILE`` appends, one per
run; only untraced runs (``--trace 0``) are read.  Make one per commit with
the same seeds and ``--seconds`` on both sides, alternating which commit
runs first.  Metrics, their direction and their regression bounds come from
``BENCHMARK.json``.  Each workload is printed in its own row.

Spread is (Q3 - Q1) / median, quartiles as ``statistics.quantiles(v, n=4)``.
Runs are paired by seed, or in recorded order when the two sets share no
seed.  A change is a gain on a metric when it wins at least 9 of 10 pairs
(ties count for neither side) and the medians differ by more than the
parent's interquartile distance.  It regresses when its median is worse than
the parent's by more than the bound.  A metric whose parent spread is wider
than its bound is unresolved, unless every change run beats every parent run.
Exits 1 if any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """(workload -> seed -> metric -> value, workload -> [failed ops, incorrect runs])
    from the untraced runs in a result set."""
    runs: dict[str, dict[int, dict[str, float]]] = defaultdict(dict)
    failures: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"] != 0:
            continue
        result, workload = record["result"], record["workload"]
        runs[workload][record["seed"]] = {k: m["value"] for k, m in result["metrics"].items()}
        failures[workload][0] += result["failed"]
        failures[workload][1] += not result["correct"]
    return runs, failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values) -> float:
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def is_better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(metric: dict, parent: list[float], change: list[float], more_failures: bool) -> str:
    better, bound = metric["better"], metric["bound"]
    pm, cm = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(is_better(c, p, better) for p, c in pairs)
    q1, q3 = quartiles(parent)
    worse_by = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
    all_better = all(is_better(c, p, better) for c in change for p in parent)
    if worse_by > bound:
        status = "REGRESSED"
    elif spread(parent) > bound and not all_better:
        status = "unresolved"
    elif wins >= 0.9 * len(pairs) and abs(cm - pm) > q3 - q1 and is_better(cm, pm, better):
        status = "no gain: more failures" if more_failures else "gain"
    else:
        status = "no change"
    return f"{status} {pm:.4g}->{cm:.4g} ({-worse_by:+.1%}, wins {wins}/{len(pairs)})"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sets = [load(path) for path in argv]
    regressed = False
    for workload in sorted(sets[0][0]):
        cells = []
        fails = [failures[workload] for _, failures in sets]  # [failed ops, incorrect runs]
        if len(sets) == 1:
            runs = list(sets[0][0][workload].values())
            for m in metrics:
                values = [r[m["name"]] for r in runs]
                s = spread(values)
                flag = "steady" if s < m["bound"] / 3 else "ok" if s <= m["bound"] else "TOO WIDE"
                cells.append(f"{m['name']} {statistics.median(values):.4g} spread {s:.1%} "
                             f"bound {m['bound']:.0%} {flag}")
            print(f"{workload} (n={len(runs)}, failed ops {fails[0][0]}, incorrect runs "
                  f"{fails[0][1]}): " + "; ".join(cells))
            continue
        parent, change = (runs[workload] for runs, _ in sets)
        more_failures = any(c > p for p, c in zip(*fails))
        seeds = sorted(set(parent) & set(change))
        if seeds:
            pairs = [(parent[s], change[s]) for s in seeds]
        else:  # no seed in common: pair the runs in the order they were recorded
            pairs = list(zip(parent.values(), change.values()))
        for m in metrics:
            text = verdict(m, [p[m["name"]] for p, _ in pairs],
                           [c[m["name"]] for _, c in pairs], more_failures)
            regressed |= text.startswith("REGRESSED")
            cells.append(f"{m['name']} {text}")
        print(f"{workload} (pairs={len(pairs)}, failed ops {fails[0][0]}->{fails[1][0]}, "
              f"incorrect runs {fails[0][1]}->{fails[1][1]}): " + "; ".join(cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
