"""Command-line interface: regenerate paper tables/figures from a shell.

Installed as ``repro-grid`` (see pyproject).  Subcommands:

* ``table1`` / ``table2``    — the evaluation tables
* ``figures``                — all figure drivers (or a named subset)
* ``ablations``              — the A1-A5 studies (slow at full budget)
* ``casestudy``              — enact the real reconstruction on the grid
* ``validate FILE``          — parse + validate a process-description file
* ``render [--out DIR]``     — Graphviz DOT for Figures 10-11
* ``trace export``           — run a spans-on workload, export Chrome
  trace-event JSON + flat span JSONL
* ``profile [CASE]``         — per-case sim-time attribution table
* ``planlib stats|list|purge`` — run the repeated-goal planning mix and
  inspect / empty the warm-start plan library over in-band RPC
"""

from __future__ import annotations

import argparse
import sys


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments import table1

    print(table1().render())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments import table2

    result = table2(runs=args.runs, base_seed=args.seed, workers=args.workers)
    print(result.table.render())
    return 0


_FIGURES = (
    "fig1", "fig2", "fig3", "fig4_7", "fig8", "fig9", "fig10_11", "fig12_13",
)


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro import experiments as exp

    drivers = {
        "fig1": exp.fig1_architecture,
        "fig2": lambda: exp.fig2_planning_protocol()[0],
        "fig3": lambda: exp.fig3_replanning_protocol()[0],
        "fig4_7": exp.fig4_to_7_conversions,
        "fig8": exp.fig8_crossover,
        "fig9": exp.fig9_mutation,
        "fig10_11": exp.fig10_11_case_study,
        "fig12_13": exp.fig12_13_ontology,
    }
    wanted = args.only or list(drivers)
    for name in wanted:
        if name not in drivers:
            print(f"unknown figure {name!r}; choices: {', '.join(drivers)}",
                  file=sys.stderr)
            return 2
        print(drivers[name]().render())
        print()
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro import experiments as exp
    from repro.planner import GPConfig

    config = (
        GPConfig()
        if args.full
        else GPConfig(population_size=60, generations=10)
    )
    seeds = range(args.seeds)
    workers = args.workers
    print(exp.weight_sweep(seeds=seeds, config=config, workers=workers).render())
    print()
    print(exp.smax_sweep(seeds=seeds, config=config, workers=workers).render())
    print()
    print(exp.budget_sweep(seeds=seeds, workers=workers).render())
    print()
    print(
        exp.baseline_comparison(
            seeds=seeds, config=config, workers=workers
        ).render()
    )
    print()
    print(exp.replanning_sweep(cases=max(2, args.seeds)).render())
    return 0


def _cmd_casestudy(args: argparse.Namespace) -> int:
    from repro.virolab import (
        planning_problem,
        process_description,
        setup_virolab_case,
        virolab_grid,
    )

    env, core, fleet = virolab_grid(containers=args.containers)
    case = setup_virolab_case(
        core.storage, size=args.size, count=args.images, seed=args.seed
    )
    outcome: dict = {}

    def submit():
        reply = yield from core.coordination.call(
            "coordination",
            "execute-task",
            {
                "process": process_description(),
                "initial_data": case["initial_data"],
                "payload_keys": case["payload_keys"],
                "work": case["work"],
                "problem": planning_problem(),
                "task": "3DSD",
            },
        )
        outcome.update(reply)

    env.engine.spawn(submit(), "user")
    env.run(max_events=10_000_000)
    print(f"status: {outcome['status']}")
    print(f"activities run: {outcome['activities_run']}")
    print(f"final resolution: {outcome['data']['D12']['Value']:.2f} A")
    print(f"simulated makespan: {env.engine.now:.1f} s")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    """Write Graphviz DOT files for the Figure-10 ATN and Figure-11 tree."""
    import pathlib

    from repro.process.dot import plan_tree_to_dot, process_to_dot
    from repro.virolab import plan_tree, process_description

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "fig10_process.dot").write_text(
        process_to_dot(process_description()) + "\n"
    )
    (out / "fig11_plan_tree.dot").write_text(
        plan_tree_to_dot(plan_tree(), name="fig11") + "\n"
    )
    print(f"wrote {out / 'fig10_process.dot'}")
    print(f"wrote {out / 'fig11_plan_tree.dot'}")
    print("render with: dot -Tpng <file> -o <file>.png")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.errors import ProcessError
    from repro.process import ast_to_process, parse_process, validate_process

    try:
        text = open(args.file).read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        pd = ast_to_process(parse_process(text), name=args.file)
        validate_process(pd)
    except ProcessError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(
        f"OK: {len(pd.end_user_activities())} end-user + "
        f"{len(pd.flow_control_activities())} flow-control activities, "
        f"{len(pd.transitions)} transitions"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Semantic analysis of a process-description file.

    Exit codes: 0 = clean (or warnings only), 1 = error findings (any
    finding at all under ``--fail-on-warn``), 2 = cannot read/parse the
    file or its bindings sidecar.
    """
    import json

    from repro.analysis import (
        ProcessBindings,
        analyze_source,
        has_errors,
        load_bindings,
        render_findings,
    )
    from repro.errors import ProcessError

    try:
        text = open(args.file).read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    bindings = ProcessBindings()
    if args.bindings:
        try:
            bindings = load_bindings(args.bindings)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load bindings {args.bindings}: {exc}", file=sys.stderr)
            return 2
    try:
        findings = analyze_source(text, bindings, name=args.file)
    except ProcessError as exc:
        print(f"cannot parse {args.file}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(
            json.dumps(
                {
                    "file": args.file,
                    "findings": [f.to_dict() for f in findings],
                    "errors": sum(f.severity.value == "error" for f in findings),
                    "warnings": sum(
                        f.severity.value == "warning" for f in findings
                    ),
                },
                indent=2,
            )
        )
    elif findings:
        print(render_findings(findings))
    else:
        print(f"OK: {args.file}: no findings")
    if args.fail_on_warn and findings:
        return 1
    return 1 if has_errors(findings) else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run the many-cases workload with spans on and export the telemetry."""
    import pathlib

    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.workloads.many_cases import run_many_cases

    if args.trace_command != "export":  # pragma: no cover - argparse enforces
        print(f"unknown trace subcommand {args.trace_command!r}", file=sys.stderr)
        return 2
    result = run_many_cases(
        cases=args.cases,
        containers=args.containers,
        spans=True,
        gauge_period=args.gauge_period,
    )
    recorder = result["env"].spans
    source = recorder
    exported = recorder.total_closed
    if args.case is not None:
        # One case only: its span tree plus every remote span (container,
        # storage, planner) joined to it by trace_id.
        roots = recorder.spans(kind="case", name=args.case)
        if not roots:
            print(f"no case span named {args.case!r}", file=sys.stderr)
            return 1
        traces = {root.trace_id for root in roots if root.trace_id is not None}
        source = [span for span in recorder.closed if span.trace_id in traces]
        exported = len(source)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    chrome_path = out / "trace.chrome.json"
    jsonl_path = out / "spans.jsonl"
    events = write_chrome_trace(chrome_path, source)
    lines = write_jsonl(jsonl_path, source)
    scope = f" (case {args.case})" if args.case is not None else ""
    print(
        f"{result['completed']}/{result['cases']} cases, "
        f"{exported} spans exported{scope} "
        f"(makespan {result['makespan']:.1f}s sim)"
    )
    print(f"wrote {chrome_path} ({events} events; open in chrome://tracing or ui.perfetto.dev)")
    print(f"wrote {jsonl_path} ({lines} lines)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Enact the workload with spans on, then print one case's profile.

    The profile is fetched from the monitoring service over in-band RPC
    (the ``case-profile`` action) — the same path an external operator
    tool would use — not by poking the recorder directly.
    """
    from repro.obs.profile import render_profile
    from repro.workloads.many_cases import run_many_cases

    result = run_many_cases(
        cases=args.cases, containers=args.containers, spans=True
    )
    env, services = result["env"], result["services"]
    profile: dict = {}

    def fetch():
        reply = yield from services.coordination.call(
            "monitoring", "case-profile", {"case": args.case}
        )
        profile.update(reply)

    env.engine.spawn(fetch(), "profile-query")
    env.run()
    print(render_profile(profile))
    return 0


def _cmd_planlib(args: argparse.Namespace) -> int:
    """Run the repeated-goal planning mix, then query the plan library.

    The library lives inside the planning service, so the query goes over
    in-band RPC (``library-stats`` / ``library-list`` / ``library-purge``)
    — the same path an external operator tool would use.
    """
    import json

    from repro.workloads.plan_mix import run_plan_mix

    result = run_plan_mix(
        requests=args.requests,
        distinct=args.distinct,
        kill_after=args.kill_after,
    )
    counts = result["counts"]
    print(
        f"{result['requests']} planning requests over {args.distinct} goal "
        f"variants: {counts['hit']} hits, {counts['repair']} repairs, "
        f"{counts['seed']} seeded, {counts['miss']} misses "
        f"({counts['verify']} analyzer re-verifications)"
    )
    if result["killed"]:
        print(f"service killed mid-run: SVC-{result['killed']} "
              f"(stale entries repaired, never enacted blind)")

    env, services = result["env"], result["services"]
    action = f"library-{args.planlib_command}"
    content = {"limit": args.limit} if args.planlib_command == "list" else {}
    reply: dict = {}

    def query():
        response = yield from services.coordination.call(
            services.coordination.planner_name, action, content
        )
        reply.update(response)

    env.engine.spawn(query(), "planlib-query")
    env.run()

    if args.planlib_command == "stats":
        print(json.dumps(reply, indent=2, sort_keys=True))
    elif args.planlib_command == "list":
        rows = reply["entries"]
        if not rows:
            print("library is empty")
        for row in rows:
            print(
                f"{row['digest'][:12]}/{row['goal_sig'][:12]}  "
                f"{row['problem']:<16} fitness={row['fitness']:.3f} "
                f"size={row['size']} uses={row['uses']} "
                f"stored_at={row['stored_at']:.1f}"
            )
    else:
        print(f"purged {reply['purged']} entries")
    return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    """Enact a journal-on workload, then print one case's flight record.

    The timeline is fetched from the monitoring service over in-band RPC
    (the ``journal`` action — the same path an external operator tool
    would use); ``--purge`` then exercises the ``journal-purge``
    retention RPC and prints its exact counters.
    """
    import json

    from repro.workloads.many_cases import run_many_cases

    result = run_many_cases(
        cases=args.cases, containers=args.containers, spans=True, journal=True
    )
    env, services = result["env"], result["services"]
    reply: dict = {}

    def query():
        response = yield from services.coordination.call(
            "monitoring", "journal", {"case": args.case}
        )
        reply.update(response)
        if args.purge:
            purged = yield from services.coordination.call(
                "monitoring", "journal-purge", {}
            )
            reply["purge"] = purged

    env.engine.spawn(query(), "journal-query")
    env.run()

    events = reply.get("events", [])
    if not events:
        print(f"no journal events for case {args.case!r}", file=sys.stderr)
        return 1
    print(f"case {args.case}: {len(events)} events")
    for event in events:
        attrs = dict(event["attrs"])
        activity = attrs.pop("activity", "")
        detail = " ".join(f"{k}={v}" for k, v in attrs.items())
        print(
            f"  {event['seq']:5d} t={event['time']:9.3f} "
            f"{event['kind']:<18} {event['agent']:<14} "
            f"{activity:<14} {detail}"
        )
    print(json.dumps({"stats": reply["stats"]}, indent=2, sort_keys=True))
    if args.purge:
        purge = reply["purge"]
        print(
            f"purged {purge['purged_cases']} cases / "
            f"{purge['purged_events']} events"
        )
    return 0


def _cmd_lineage(args: argparse.Namespace) -> int:
    """Enact a journal-on workload, then print a data artifact's lineage
    (or an activity's descendants) as DOT or JSON, via monitoring RPC."""
    import json

    from repro.obs.provenance import provenance_dot

    from repro.workloads.many_cases import run_many_cases

    result = run_many_cases(
        cases=args.cases, containers=args.containers, spans=True, journal=True
    )
    env, services = result["env"], result["services"]
    reply: dict = {}
    error: list[str] = []

    def query():
        from repro.errors import ServiceError

        content = {"key": args.key}
        if args.case is not None:
            content["case"] = args.case
        if args.descendants:
            content["direction"] = "descendants"
        try:
            response = yield from services.coordination.call(
                "monitoring", "lineage", content
            )
        except ServiceError as exc:
            error.append(str(exc))
            return
        reply.update(response)

    env.engine.spawn(query(), "lineage-query")
    env.run()

    if error:
        print(error[0], file=sys.stderr)
        return 1
    if args.format == "dot":
        print(provenance_dot(reply["activities"], reply["data"], reply["edges"]))
    else:
        payload = {
            k: reply[k]
            for k in ("key", "activities", "data", "edges")
            if k in reply
        }
        payload["root"] = reply.get("root", reply.get("target"))
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_cases(args: argparse.Namespace) -> int:
    """Enact the many-cases workload, optionally split across processes."""
    from repro.workloads.many_cases import run_many_cases, shard_assignment

    result = run_many_cases(
        cases=args.cases,
        containers=args.containers,
        rounds=args.rounds,
        tracing=not args.no_tracing,
        shards=args.shards,
    )
    print(
        f"{result['completed']}/{result['cases']} cases completed, "
        f"{result['activities_run']} activities, "
        f"makespan {result['makespan']:.1f}s sim"
    )
    if args.shards > 1:
        per_shard = {
            entry["shard"]: entry["cases"] for entry in result["shards"]
        }
        assignment = shard_assignment(args.cases, args.shards)
        for shard in sorted(assignment):
            sample = ", ".join(f"case-{i}" for i in assignment[shard][:3])
            more = len(assignment[shard]) - 3
            suffix = f", +{more} more" if more > 0 else ""
            print(
                f"  {shard}: {per_shard.get(shard, 0)} cases "
                f"({sample}{suffix})"
            )
        if result.get("pool_error"):
            print(f"  (worker pool unavailable: {result['pool_error']}; "
                  f"shards ran serially in-process)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-grid",
        description="Metainformation & workflow management for grids "
        "(IPDPS 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table-1 parameter settings")

    p2 = sub.add_parser("table2", help="run the Section-5 experiment")
    p2.add_argument("--runs", type=int, default=10)
    p2.add_argument("--seed", type=int, default=0)
    p2.add_argument("--workers", type=int, default=0,
                    help="process-pool workers for seed-parallel runs "
                    "(0 = serial; results are identical either way)")

    pf = sub.add_parser("figures", help="regenerate figure tables")
    pf.add_argument("only", nargs="*", help=f"subset of: {', '.join(_FIGURES)}")

    pa = sub.add_parser("ablations", help="run the A1-A5 ablation studies")
    pa.add_argument("--seeds", type=int, default=3)
    pa.add_argument("--full", action="store_true",
                    help="use the full Table-1 GP budget (slow)")
    pa.add_argument("--workers", type=int, default=0,
                    help="process-pool workers for seed-parallel sweeps "
                    "(0 = serial; results are identical either way)")

    pc = sub.add_parser("casestudy", help="enact the real reconstruction")
    pc.add_argument("--containers", type=int, default=3)
    pc.add_argument("--size", type=int, default=24)
    pc.add_argument("--images", type=int, default=40)
    pc.add_argument("--seed", type=int, default=0)

    pv = sub.add_parser("validate", help="validate a process-description file")
    pv.add_argument("file")

    pl = sub.add_parser(
        "lint", help="semantic analysis of a process-description file"
    )
    pl.add_argument("file", help="path to a .process file")
    pl.add_argument(
        "--bindings",
        default=None,
        help="JSON sidecar with initial data, activity bindings and services",
    )
    pl.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    pl.add_argument(
        "--fail-on-warn",
        action="store_true",
        help="exit 1 on any finding, warnings included (CI strict mode)",
    )

    pr = sub.add_parser("render", help="write DOT files for Figures 10-11")
    pr.add_argument("--out", default="figures")

    pt = sub.add_parser("trace", help="span-telemetry export")
    tsub = pt.add_subparsers(dest="trace_command", required=True)
    te = tsub.add_parser(
        "export", help="run a spans-on workload and export Chrome/JSONL traces"
    )
    te.add_argument("--cases", type=int, default=16)
    te.add_argument("--containers", type=int, default=4)
    te.add_argument("--gauge-period", type=float, default=5.0)
    te.add_argument("--out", default="traces")
    te.add_argument(
        "--case", default=None, metavar="CASE_ID",
        help="export only this case's spans (its tree plus remote spans "
        "joined by trace_id) instead of the full recorder",
    )

    pp = sub.add_parser(
        "profile", help="per-case sim-time attribution (spans-on workload)"
    )
    pp.add_argument("case", nargs="?", default="case-0",
                    help="case name to profile (default: case-0)")
    pp.add_argument("--cases", type=int, default=16)
    pp.add_argument("--containers", type=int, default=4)

    pb = sub.add_parser(
        "planlib",
        help="run the repeated-goal planning mix and query the plan library",
    )
    bsub = pb.add_subparsers(dest="planlib_command", required=True)
    for name, text in (
        ("stats", "print entry count, cap and hit/repair/seed/miss counters"),
        ("list", "print entries, most-recently-used first"),
        ("purge", "drop every entry"),
    ):
        bq = bsub.add_parser(name, help=text)
        bq.add_argument("--requests", type=int, default=12)
        bq.add_argument("--distinct", type=int, default=4)
        bq.add_argument(
            "--kill-after", type=int, default=None, metavar="N",
            help="after request N, remove the registered grid service the "
            "stored variant-0 plan uses, staling that entry (the next hit "
            "re-verifies E501 and is locally repaired)",
        )
        if name == "list":
            bq.add_argument("--limit", type=int, default=None)

    pj = sub.add_parser(
        "journal",
        help="enact a journal-on workload and print one case's flight record",
    )
    pj.add_argument("case", nargs="?", default="case-0",
                    help="case id to show (default: case-0)")
    pj.add_argument("--cases", type=int, default=16)
    pj.add_argument("--containers", type=int, default=4)
    pj.add_argument(
        "--purge", action="store_true",
        help="after printing, run the journal-purge retention RPC "
        "(drops the resident cases)",
    )

    pg = sub.add_parser(
        "lineage",
        help="print a data artifact's provenance lineage as DOT or JSON",
    )
    pg.add_argument("key", help="artifact id (case-0:out), bare data name, "
                    "or payload storage key")
    pg.add_argument("--case", default=None,
                    help="scope the search to one case id")
    pg.add_argument(
        "--descendants", action="store_true",
        help="treat KEY as an activity and print its forward closure",
    )
    pg.add_argument(
        "--format", choices=("dot", "json"), default="dot",
        help="output format (default: dot)",
    )
    pg.add_argument("--cases", type=int, default=16)
    pg.add_argument("--containers", type=int, default=4)

    pk = sub.add_parser(
        "cases", help="enact the many-cases workload (optionally split "
        "across processes)"
    )
    pk.add_argument("--cases", type=int, default=32)
    pk.add_argument("--containers", type=int, default=4)
    pk.add_argument("--rounds", type=int, default=3)
    pk.add_argument("--no-tracing", action="store_true",
                    help="router fast path (no per-delivery trace events)")
    pk.add_argument(
        "--shards", type=int, default=0,
        help="split the cases across N processes, one grid each: each "
        "case is assigned to a shard by consistent hash of its case id "
        "(case-<index>) over a ring of labels s0..s{N-1}, so the "
        "case->shard mapping is deterministic and independent of "
        "population size or enactment order; 0 and 1 run every case on "
        "one grid in this process",
    )

    return parser


_HANDLERS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "figures": _cmd_figures,
    "ablations": _cmd_ablations,
    "casestudy": _cmd_casestudy,
    "validate": _cmd_validate,
    "lint": _cmd_lint,
    "render": _cmd_render,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "planlib": _cmd_planlib,
    "journal": _cmd_journal,
    "lineage": _cmd_lineage,
    "cases": _cmd_cases,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
