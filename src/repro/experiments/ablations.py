"""Ablation studies (DESIGN.md A1-A5).

The paper fixes its GP parameters without justification and never compares
against simpler search; these drivers supply the missing evidence:

* :func:`weight_sweep` — fitness-weight (wv/wg/wr) sensitivity;
* :func:`smax_sweep` — the bloat bound;
* :func:`budget_sweep` — population size x generations;
* :func:`baseline_comparison` — GP vs random search, hill climbing and
  classical forward search at matched evaluation budgets;
* :func:`replanning_sweep` — case completion rate with and without the
  Figure-3 re-planning loop under increasing container failure rates.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import PlanningError, ServiceError
from repro.experiments.harness import Table, run_seeds
from repro.grid.container import EndUserService
from repro.planner.baselines import forward_search, hill_climb, random_search
from repro.planner.config import GPConfig
from repro.planner.engine import EvaluationEngine
from repro.planner.fitness import FitnessWeights
from repro.planner.problem import PlanningProblem
from repro.services.bootstrap import standard_environment
from repro.virolab.workflow import activity_specs, planning_problem, process_description

__all__ = [
    "weight_sweep",
    "smax_sweep",
    "budget_sweep",
    "baseline_comparison",
    "replanning_sweep",
]


def _runs(
    config: GPConfig,
    problem: PlanningProblem,
    seeds: Sequence[int],
    workers: int = 0,
):
    """Seed-parallel GP runs (see :func:`repro.experiments.harness.run_seeds`)."""
    return run_seeds(config, problem, seeds, workers=workers)


def weight_sweep(
    problem: PlanningProblem | None = None,
    seeds: Sequence[int] = range(5),
    config: GPConfig | None = None,
    workers: int = 0,
) -> Table:
    """A1: vary (wv, wg, wr); report solve rate and plan size."""
    problem = problem or planning_problem()
    base = config or GPConfig()
    table = Table(
        "Ablation A1. Fitness-weight sweep",
        ("wv", "wg", "wr", "solve rate", "avg size", "avg fitness"),
    )
    settings = [
        (0.2, 0.5, 0.3),  # the paper's Table-1 weights
        (0.5, 0.5, 0.0),
        (0.4, 0.4, 0.2),
        (0.1, 0.3, 0.6),
        (0.0, 0.5, 0.5),
        (0.34, 0.33, 0.33),
    ]
    for wv, wg, wr in settings:
        cfg = base.with_(weights=FitnessWeights(wv, wg, wr))
        runs = _runs(cfg, problem, seeds, workers)
        solve = sum(r.solved for r in runs) / len(runs)
        table.add(
            wv,
            wg,
            wr,
            solve,
            float(np.mean([r.best_plan.size for r in runs])),
            float(np.mean([r.best_fitness.overall for r in runs])),
        )
    return table


def smax_sweep(
    problem: PlanningProblem | None = None,
    seeds: Sequence[int] = range(5),
    smax_values: Sequence[int] = (10, 20, 40, 80, 160),
    config: GPConfig | None = None,
    workers: int = 0,
) -> Table:
    """A2: the Smax bloat bound vs solve rate and emitted plan size."""
    problem = problem or planning_problem()
    base = config or GPConfig()
    table = Table(
        "Ablation A2. Smax sweep",
        ("Smax", "solve rate", "avg size", "avg fitness"),
    )
    for smax in smax_values:
        cfg = base.with_(smax=smax)
        runs = _runs(cfg, problem, seeds, workers)
        table.add(
            smax,
            sum(r.solved for r in runs) / len(runs),
            float(np.mean([r.best_plan.size for r in runs])),
            float(np.mean([r.best_fitness.overall for r in runs])),
        )
    return table


def budget_sweep(
    problem: PlanningProblem | None = None,
    seeds: Sequence[int] = range(5),
    settings: Sequence[tuple[int, int]] = (
        (20, 10),
        (50, 10),
        (100, 20),
        (200, 20),
        (400, 20),
    ),
    config: GPConfig | None = None,
    workers: int = 0,
) -> Table:
    """A3: population x generations vs solve rate."""
    problem = problem or planning_problem()
    base = config or GPConfig()
    table = Table(
        "Ablation A3. Population/generation budget sweep",
        ("population", "generations", "solve rate", "avg fitness", "avg evals"),
    )
    for population, generations in settings:
        cfg = base.with_(population_size=population, generations=generations)
        runs = _runs(cfg, problem, seeds, workers)
        table.add(
            population,
            generations,
            sum(r.solved for r in runs) / len(runs),
            float(np.mean([r.best_fitness.overall for r in runs])),
            float(np.mean([r.evaluations for r in runs])),
        )
    return table


def baseline_comparison(
    problems: Sequence[PlanningProblem] | None = None,
    seeds: Sequence[int] = range(5),
    config: GPConfig | None = None,
    workers: int = 0,
) -> Table:
    """A4: GP vs baselines at a matched evaluation budget.

    The budget equals what the GP consumed (unique plan simulations); the
    forward-search baseline reports its node expansions instead.
    """
    from repro.workloads.synthetic import chain_problem, distractor_problem

    problems = problems or (
        planning_problem(),
        chain_problem(6),
        distractor_problem(4, 6),
    )
    cfg = config or GPConfig()
    table = Table(
        "Ablation A4. GP vs baselines",
        ("problem", "planner", "solve rate", "avg fitness", "avg budget"),
    )
    for problem in problems:
        gp_runs = _runs(cfg, problem, seeds, workers)
        budget = max(1, int(np.mean([r.evaluations for r in gp_runs])))
        table.add(
            problem.name,
            "GP (paper)",
            sum(r.solved for r in gp_runs) / len(gp_runs),
            float(np.mean([r.best_fitness.overall for r in gp_runs])),
            float(np.mean([r.evaluations for r in gp_runs])),
        )
        for label, runner in (
            ("random search", random_search),
            ("hill climbing", hill_climb),
        ):
            runs = []
            for seed in seeds:
                evaluator = EvaluationEngine(
                    problem, cfg.weights, cfg.smax, cfg.simulation
                )
                runs.append(runner(problem, evaluator, budget, rng=seed))
            table.add(
                problem.name,
                label,
                sum(r.solved for r in runs) / len(runs),
                float(np.mean([r.best_fitness.overall for r in runs])),
                float(budget),
            )
        try:
            evaluator = EvaluationEngine(problem, cfg.weights, cfg.smax, cfg.simulation)
            result = forward_search(problem, evaluator)
            table.add(
                problem.name,
                "forward search",
                1.0 if result.solved else 0.0,
                result.best_fitness.overall,
                float(result.evaluations),
            )
        except PlanningError:
            table.add(problem.name, "forward search", 0.0, 0.0, 0.0)
    return table


def replanning_sweep(
    failure_rates: Sequence[float] = (0.0, 0.1, 0.2, 0.4),
    cases: int = 6,
    enable_replanning: tuple[bool, ...] = (True, False),
    containers: int = 3,
) -> Table:
    """A5: enactment completion rate under container failures.

    Enacts the Figure-10 case *cases* times per (failure rate, replanning)
    cell using synthetic end-user services, and reports the completion
    fraction.  With re-planning off, the coordinator gives up once an
    activity exhausts its retries.
    """
    table = Table(
        "Ablation A5. Re-planning robustness under failure injection",
        ("failure rate", "replanning", "completed", "avg activities", "avg replans"),
    )
    for rate in failure_rates:
        for replanning in enable_replanning:
            completed = 0
            activity_counts: list[float] = []
            replan_counts: list[float] = []
            for case_idx in range(cases):
                ok, n_activities, n_replans = _run_replanning_case(
                    rate, replanning, seed=case_idx, containers=containers
                )
                completed += ok
                activity_counts.append(n_activities)
                replan_counts.append(n_replans)
            table.add(
                rate,
                "on" if replanning else "off",
                completed / cases,
                float(np.mean(activity_counts)),
                float(np.mean(replan_counts)),
            )
    return table


def _synthetic_services(psf_values: Sequence[float]) -> list[EndUserService]:
    values = iter(list(psf_values) + [min(psf_values)] * 100)

    def psf_compute(props, payloads):
        return (
            {"D12": {"Classification": "Resolution File", "Value": next(values)}},
            {},
        )

    services: dict[str, EndUserService] = {}
    for name, spec in activity_specs().items():
        if spec.service == "PSF":
            continue
        services.setdefault(
            spec.service or name,
            EndUserService(spec.service or name, work=10.0, effects=spec.effects),
        )
    services["PSF"] = EndUserService("PSF", work=10.0, compute=psf_compute)
    return list(services.values())


def _run_replanning_case(
    failure_rate: float,
    replanning: bool,
    seed: int,
    containers: int,
) -> tuple[bool, int, int]:
    env, services, fleet = standard_environment(
        _synthetic_services([12.0, 9.5, 7.5]),
        containers=containers,
        failure_probability=failure_rate,
        failure_seed=seed * 1_000 + 17,
        planner_config=GPConfig(population_size=30, generations=5),
        planner_seed=seed,
    )
    problem = planning_problem()
    pd = process_description()
    initial = {
        d: {"Classification": c}
        for d, c in {
            "D1": "POD-Parameter",
            "D2": "P3DR-Parameter",
            "D3": "P3DR-Parameter",
            "D4": "P3DR-Parameter",
            "D5": "POR-Parameter",
            "D6": "PSF-Parameter",
            "D7": "2D Image",
        }.items()
    }
    outcome: dict = {}

    def run():
        request = {
            "process": pd,
            "initial_data": initial,
            "task": f"case-{seed}",
        }
        if replanning:
            request["problem"] = problem
        try:
            reply = yield from services.coordination.call(
                "coordination", "execute-task", request
            )
            outcome.update(reply)
        except ServiceError as exc:
            outcome["error"] = str(exc)

    env.engine.spawn(run(), "case")
    env.run(max_events=2_000_000)
    record = services.coordination.records[f"case-{seed}"]
    return (
        outcome.get("status") == "completed",
        record.activities_run,
        record.replans,
    )
