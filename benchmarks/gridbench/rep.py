"""One repetition of one grid workload, in a fresh interpreter.

``run.py`` starts this script once per repetition; nothing else needs to
call it.  Usage::

    python3 rep.py WORKLOAD SEED SCALE TRACE SPAWNED_AT

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process (a system-wide clock on Linux), so ``setup_s`` covers the
interpreter start, the ``repro`` import and building the grid, up to the
first simulated event.  With ``TRACE`` = 1 the ledger is calibrated and
installed before the grid is built and reset just before the run.

Prints one JSON object on its last line of output.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    workload, seed, scale, trace, spawned_at = argv
    import workloads

    ledger = None
    if trace == "1":
        from ledger import Ledger

        ledger = Ledger()
        ledger.calibrate()
        ledger.install()
    prepared = workloads.prepare(workload, int(seed), scale)
    if ledger is not None:
        ledger.reset()
    # Users pay for the collector during a run, so it stays on; what setup
    # allocated is frozen out of its scans.
    gc.collect()
    gc.freeze()
    setup_s = time.monotonic() - float(spawned_at)
    started = time.perf_counter()
    prepared.env.run()
    run_wall_s = time.perf_counter() - started
    record = prepared.finish()
    record.update(
        workload=workload,
        seed=int(seed),
        traced=ledger is not None,
        setup_s=setup_s,
        run_wall_s=run_wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if ledger is not None:
        record["layers"] = ledger.layers(
            prepared.operations,
            record["outputs"]["events"],
            record["counters"],
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
