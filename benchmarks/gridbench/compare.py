"""Compare two sets of grid benchmark results, metric by metric.

    python3 benchmarks/gridbench/compare.py A.json B.json
    python3 benchmarks/gridbench/compare.py 'parent-*.json' 'change-*.json'

Each side is one ``run.py --out`` file, or a quoted glob matching several
runs of one commit; A is the baseline.  For every workload on both sides
and every end-to-end metric of ``BENCHMARK.json`` — plus the workload
results, with the direction and bound ``run.RESULTS`` gives them — one
row gives each side's value, the change, the wider of the two spreads
and a verdict.

A side's value is its one file's reported value, or the median of its
files' values.  Its spread is the interquartile range over its files, as
a share of their median (run-to-run spread); for a single file, over that
run's repetitions instead.

* ``worse`` / ``improved`` — B's value moved past the bound;
* ``unchanged`` — it stayed within the bound;
* ``unresolved`` — a side's spread is wider than the bound, so the values
  cannot be told apart; unless every sample of B reads better than every
  sample of A, which counts as improved.

A higher ``failed_frac`` is always worse.  Exits 1 if any row is worse or
unresolved.
"""

from __future__ import annotations

import glob
import json
import statistics
import sys
from pathlib import Path

from run import RESULTS, ROOT


def load(pattern: str) -> list[dict]:
    """Every result file matching *pattern* (a path or a glob)."""
    paths = sorted(glob.glob(pattern)) or [pattern]
    return [json.loads(Path(path).read_text()) for path in paths]


def spread(samples: list[float]) -> float:
    """Interquartile range over the median (0 for fewer than 2 samples)."""
    median = statistics.median(samples)
    if len(samples) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(median)


def side(records: list[dict], workload: str, table: str, name: str):
    """(value, samples) of one metric on one side."""
    entries = [record["workloads"][workload][table][name] for record in records]
    if len(entries) == 1:
        return entries[0]["value"], entries[0]["samples"]
    values = [entry["value"] for entry in entries]
    return statistics.median(values), values


def verdict(a, b, better: str, bound: float) -> tuple[str, float, float]:
    """(verdict, change of B's value from A's as a share, wider spread) for
    two sides, each a (value, samples) pair."""
    (value_a, samples_a), (value_b, samples_b) = a, b
    change = (value_b - value_a) / abs(value_a) if value_a else 0.0
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * change
    wide = max(spread(samples_a), spread(samples_b))
    if wide > bound:
        if min(sign * x for x in samples_b) > max(sign * x for x in samples_a):
            return "improved", change, wide
        return "unresolved", change, wide
    if gain < -bound:
        return "worse", change, wide
    if gain > bound:
        return "improved", change, wide
    return "unchanged", change, wide


def failed_frac(records: list[dict], workload: str) -> float:
    blocks = [record["workloads"][workload] for record in records]
    return sum(b["failed"] for b in blocks) / sum(b["attempted"] for b in blocks)


def rows(spec: dict, a: list[dict], b: list[dict]):
    """(workload, metric, value A, value B, change, spread, verdict)."""
    common = set.intersection(*(set(record["workloads"]) for record in a + b))
    for workload in (w for w in a[0]["workloads"] if w in common):
        failed_a, failed_b = failed_frac(a, workload), failed_frac(b, workload)
        yield (workload, "failed_frac", failed_a, failed_b, 0.0, 0.0,
               "worse" if failed_b > failed_a else "unchanged")
        metrics = [("metrics", m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
        metrics += [
            ("results", name, better, bound)
            for name, (_, better, bound) in RESULTS.items()
            if all(name in r["workloads"][workload]["results"] for r in a + b)
        ]
        for table, name, better, bound in metrics:
            side_a = side(a, workload, table, name)
            side_b = side(b, workload, table, name)
            result, change, wide = verdict(side_a, side_b, better, bound)
            yield workload, name, side_a[0], side_b[0], change, wide, result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py A.json B.json  (each may be a quoted glob)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(argv[0]), load(argv[1])
    bad = 0
    print(f"{'workload':<10} {'metric':<18} {'A':>12} {'B':>12} {'change':>8} "
          f"{'spread':>7}  verdict")
    for workload, name, value_a, value_b, change, wide, result in rows(spec, a, b):
        bad += result in ("worse", "unresolved")
        print(f"{workload:<10} {name:<18} {value_a:>12.5g} {value_b:>12.5g} "
              f"{change:>+8.1%} {wide:>7.1%}  {result}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
