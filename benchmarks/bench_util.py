"""Shared scaffolding for the ``record_bench.py`` suites.

Every suite needs the same four pieces — gc-frozen median timing, a host
fingerprint for the committed JSON, the fingerprint-matched floor/ceiling
gate, and the write-and-echo JSON verdict — and before this module each
new suite copied them.  One definition here keeps the enact / obs /
analysis / shard / planlib suites measuring and gating the same way.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import time
from contextlib import nullcontext

__all__ = [
    "enforce_gate",
    "host_fingerprint",
    "same_host",
    "time_fn",
    "trace_rows",
    "write_record",
]


def time_fn(fn, rounds, setup=None):
    """Median-of-*rounds* wall time of ``fn()`` with the gc frozen.

    Collect before and freeze the collector during each sample: cyclic-gc
    pauses landing inside a sample were the dominant variance source on
    single-core hosts (spreads of 2x for identical configs).

    With *setup* (a factory of context managers), each sample enters a
    fresh ``setup()`` outside the timing, times ``fn(value)`` and exits it
    afterwards — so a round can start from fresh inputs (a problem with a
    cold transition table, say) without timing their construction.
    """
    samples = []
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(rounds):
            with setup() if setup is not None else nullcontext() as value:
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                fn() if setup is None else fn(value)
                samples.append(time.perf_counter() - t0)
                gc.enable()
    finally:
        if gc_was_enabled:
            gc.enable()
        else:
            gc.disable()
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "rounds": rounds,
    }


def host_fingerprint():
    """The host block recorded into every committed BENCH_*.json."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def same_host(host, reference) -> bool:
    """Whether *host* matches a committed reference fingerprint.

    Python patch version is deliberately excluded: medians are comparable
    across interpreter patches, not across CPU budgets or kernels.
    """
    return (
        host["cpu_count"] == reference["cpu_count"]
        and host["platform"] == reference["platform"]
    )


def enforce_gate(
    label,
    value,
    bound,
    host,
    reference_host,
    *,
    mode="min",
    unit="",
    fmt="{:.2f}",
) -> bool:
    """Host-fingerprinted performance gate.

    Skips (and passes) when *host* does not match *reference_host* —
    cross-host medians say nothing about regression.  Otherwise requires
    ``value >= bound`` (``mode="min"``) or ``value <= bound``
    (``mode="max"``).  Prints the verdict either way and returns False
    only on an enforced failure, so callers can ``return 1``.
    """
    if not same_host(host, reference_host):
        print(
            f"{label} gate skipped: host differs from the reference host "
            f"({host['cpu_count']} cpus, {host['platform']})"
        )
        return True
    shown = fmt.format(value)
    failed = value < bound if mode == "min" else value > bound
    if failed:
        verb = "is below" if mode == "min" else "exceeds"
        print(f"FAIL: {label} {shown}{unit} {verb} the {bound}{unit} bound")
        return False
    relation = ">=" if mode == "min" else "<="
    print(f"{label} gate passed: {shown}{unit} {relation} {bound}{unit}")
    return True


def trace_rows(env):
    """Every delivered message of *env* as a comparable tuple row.

    The byte-identity gates compare these rows (plus workload outcomes):
    time, endpoints, performative, action, conversation / message / trace
    / parent ids and the repr of the content.
    """
    return [
        (
            event.time,
            message.sender,
            message.receiver,
            message.performative.value,
            message.action,
            message.conversation,
            message.message_id,
            message.trace_id,
            message.parent_id,
            repr(message.content),
        )
        for event in env.router.trace.events()
        for message in (event.message,)
    ]


def write_record(path, record):
    """Write the suite verdict JSON and echo it to stdout."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {path}")
