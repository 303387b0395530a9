"""Grid benchmark: four workloads, end-to-end metrics, per-layer ledger.

Run from the repository root::

    python3 benchmarks/gridbench/run.py --workload burst --seed 1
    python3 benchmarks/gridbench/run.py --workload plan --seed 7 --trace 1 --out plan.json

Each repetition runs in a fresh interpreter (``rep.py``) with BLAS pinned
to one thread.  Without ``--trace`` the workload repeats until the next
repetition would end past ``--seconds`` (at least once; by default
``run_seconds`` of ``BENCHMARK.json``).  Interference
from other processes on a shared host only ever slows a repetition down,
so ``ops_per_s`` is the fastest repetition's; the other end-to-end
metrics of ``BENCHMARK.json`` are medians over the repetitions.
With ``--trace 1`` one untraced and one traced repetition run on the same
seed; their outputs must agree, and the traced one reports the per-layer
metrics.  Every repetition's outputs are checked; a failed or wrong
operation counts in ``failed``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out`` also writes every repetition's raw
samples, the seed and the host fingerprint (see ``compare.py``).  The
exit code is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("burst", "stream", "plan", "casestudy")

#: Workload results outside BENCHMARK.json, because they exist on some
#: workloads only: (unit, better, bound), which ``compare.py`` applies.
#: Simulated times and fitness are deterministic for a seed; each reports
#: its best repetition.
RESULTS = {
    "turnaround_p50_s": ("sim_s", "lower", 0.02),
    "turnaround_p98_s": ("sim_s", "lower", 0.02),
    "plan_fitness_mean": ("fitness", "higher", 0.01),
    "plan_p50_ms": ("ms", "lower", 0.2),
}

#: A repetition that takes longer than this has hung.
REP_TIMEOUT_S = 150
MAX_REPS = 15


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source, env.get("PYTHONPATH"))))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def repetition(workload: str, seed: int, scale: str, traced: bool) -> dict:
    """One repetition in a fresh child process; its JSON record."""
    spawned = time.monotonic()
    command = [
        sys.executable, str(HERE / "rep.py"),
        workload, str(seed), scale, "1" if traced else "0", repr(spawned),
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, env=child_env(),
            cwd=ROOT, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition timed out after {REP_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    record = json.loads(proc.stdout.splitlines()[-1])
    record["rep_wall_s"] = time.monotonic() - spawned
    return record


def host_fingerprint() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def end_to_end(record: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced repetition."""
    completed = record["attempted"] - record["failed"]
    return {
        "ops_per_s": completed / record["run_wall_s"],
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def summary(samples: list[float], best: str | None = None) -> dict:
    """The median of *samples*, or their best in direction *best*."""
    pick = {None: statistics.median, "higher": max, "lower": min}[best]
    return {"value": pick(samples), "samples": samples}


def measure(
    spec: dict, workload: str, seed: int, seconds: float, scale: str, traced: bool
) -> dict:
    """Run one workload; its full result block for ``--out``."""
    reps: list[dict] = []
    if traced:
        reps = [repetition(workload, seed, scale, False), repetition(workload, seed, scale, True)]
    else:
        elapsed = 0.0
        while not reps or (elapsed + reps[-1]["rep_wall_s"] <= seconds and len(reps) < MAX_REPS):
            reps.append(repetition(workload, seed, scale, False))
            elapsed += reps[-1]["rep_wall_s"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # One seed gives one behaviour: every repetition, traced or not, must
    # produce the same simulated outputs.
    deterministic = all(r["outputs"] == reps[0]["outputs"] for r in reps)
    block: dict = {
        "correct": failed == 0 and deterministic,
        "deterministic": deterministic,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": [e for r in reps for e in r["errors"]][:5],
        "reps": reps,
    }
    untraced = [r for r in reps if not r["traced"]]
    per_rep = [end_to_end(r) for r in untraced]
    block["metrics"] = {
        m["name"]: dict(
            summary(
                [p[m["name"]] for p in per_rep],
                m["better"] if m["name"] == "ops_per_s" else None,
            ),
            unit=m["unit"],
        )
        for m in spec["end_to_end"]
    }
    block["results"] = {
        name: dict(summary([r["results"][name] for r in untraced], better), unit=unit)
        for name, (unit, better, _) in RESULTS.items()
        if name in untraced[0]["results"]
    }
    if traced:
        layers = dict(reps[1]["layers"])
        layers["ledger.overhead"] = reps[1]["run_wall_s"] / reps[0]["run_wall_s"]
        block["layers"] = layers
        block["per_layer"] = {
            m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    return block


def show(workload: str, block: dict) -> None:
    """Human-readable lines for one workload."""
    print(f"== {workload}: {block['attempted'] - block['failed']}/{block['attempted']} ok"
          f"{'' if block['deterministic'] else ', NONDETERMINISTIC'}")
    for error in block["errors"]:
        print(f"   error: {error}")
    rows = dict(block["metrics"], **block["results"])
    for name, entry in rows.items():
        samples = " ".join(f"{s:.4g}" for s in entry["samples"])
        print(f"   {name:<22} {entry['value']:>12.4f} {entry['unit']:<8} [{samples}]")
    for name, value in sorted(block.get("layers", {}).items()):
        if value:
            print(f"   {name:<50} {value:.6g}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring budget per workload (untraced runs); "
                             "default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: one traced repetition, report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, one repetition (the ledger test)")
    parser.add_argument("--out", help="write the full result JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"grid benchmark: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    scale = "smoke" if args.smoke else "full"
    seconds = 0.0 if args.smoke else args.seconds
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    blocks = {}
    try:
        for workload in workloads:
            blocks[workload] = measure(
                spec, workload, args.seed, seconds, scale, bool(args.trace)
            )
            show(workload, blocks[workload])
    except BenchError as exc:
        print(f"grid benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.out:
        record = {
            "seed": args.seed,
            "seconds": seconds,
            "scale": scale,
            "trace": bool(args.trace),
            "host": host_fingerprint(),
            "workloads": blocks,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    key = "per_layer" if args.trace else "metrics"
    metrics = {}
    for workload, block in blocks.items():
        prefix = "" if len(blocks) == 1 else f"{workload}."
        for name, entry in block[key].items():
            metrics[prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps({
        "correct": all(b["correct"] for b in blocks.values()),
        "attempted": sum(b["attempted"] for b in blocks.values()),
        "failed": sum(b["failed"] for b in blocks.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
