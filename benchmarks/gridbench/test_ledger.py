"""The ledger observes without changing behaviour.

Runs the benchmark's trace pass at smoke scale (40 cases, 3 plans, one
case study): for every workload the traced repetition must reproduce the
untraced one's deterministic outputs exactly, and its layers must account
for the traced run's time.

    python3 -m pytest benchmarks/gridbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Coverage counts only time inside a wrapped layer or the event loop's
#: calibrated per-event cost.  The calibration leaves up to about 5% of a
#: burst or stream run unclaimed; the agent runtime alone holds 15-25%,
#: so a run without its wrappers falls below this floor.
MIN_COVERAGE = 0.9


def test_traced_run_reproduces_untraced(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1",
         "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]
    record = json.loads(out.read_text())
    assert sorted(record["workloads"]) == ["burst", "casestudy", "plan", "stream"]
    for workload, block in record["workloads"].items():
        untraced, traced = block["reps"]
        assert (untraced["traced"], traced["traced"]) == (False, True)
        assert block["failed"] == 0, (workload, block["errors"])
        plain, observed = untraced["outputs"], traced["outputs"]
        assert observed["turnaround"] == plain["turnaround"], workload
        assert observed["events"] == plain["events"], workload
        assert observed["messages"] == plain["messages"], workload
        assert observed.get("fitness") == plain.get("fitness"), workload
        assert MIN_COVERAGE <= traced["layers"]["ledger.coverage"] <= 1.05, workload
    # With every case in flight at once, each scheduling decision filters
    # more pending assignments than under Poisson arrivals.
    scanned = {
        workload: record["workloads"][workload]["layers"][
            "services.scheduling.pending_scanned_per_call"
        ]
        for workload in ("burst", "stream")
    }
    assert scanned["burst"] > scanned["stream"] > 0, scanned
