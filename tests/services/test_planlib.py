"""The warm-start plan library inside the grid: ladder, RPCs, guard."""

import pytest

from repro.errors import ServiceError
from repro.plan import sequential, tree_to_process
from repro.planner import GPConfig
from repro.planner.library import (
    PlanEntry,
    PlanLibrary,
    goal_signature,
    problem_digest,
)
from repro.services import standard_environment
from repro.workloads.plan_mix import (
    plan_mix_kb,
    plan_mix_problem,
    plan_mix_services,
)
from tests.services.conftest import drive

CFG = dict(population_size=30, generations=6, smax=12)


def make_grid(library=None, kb=None, **env_kwargs):
    return standard_environment(
        plan_mix_services(),
        containers=2,
        planner_config=GPConfig(**CFG),
        plan_library=library,
        knowledge_base=kb,
        **env_kwargs,
    )


def seed_entry(lib, variant=0, plan=None):
    """Pre-store a known solving plan so repair tests are GP-independent."""
    problem = plan_mix_problem(variant)
    tree = plan or sequential("fetch", "clean", "analyze_a", "publish")
    process = tree_to_process(
        tree,
        name=f"plan-{problem.name}",
        library={
            name: spec.as_activity()
            for name, spec in problem.activities.items()
        },
    )
    entry = PlanEntry(
        digest=problem_digest(problem),
        goal_sig=goal_signature(problem.goals),
        plan=tree,
        process=process,
        fitness=0.96,
        goals=tuple(str(goal) for goal in problem.goals),
        problem_name=problem.name,
    )
    lib.put(entry)
    return entry


def plan_once(env, services, variant=0):
    user = services.coordination
    return drive(
        env,
        user,
        lambda: user.call(
            user.planner_name, "plan", {"problem": plan_mix_problem(variant)}
        ),
    )


def test_miss_then_verified_hit():
    lib = PlanLibrary()
    env, services, fleet = make_grid(lib, plan_mix_kb())
    first = plan_once(env, services)
    assert first["source"] == "miss"
    assert first["verified"] is False
    second = plan_once(env, services)
    assert second["source"] == "hit"
    assert second["verified"] is True
    assert second["generations"] == 0
    assert second["plan"] == first["plan"]
    assert lib.counters["hit"] == 1 and lib.counters["verify"] == 1
    assert env.metrics.total("planlib_hit") == 1


def test_stale_entry_is_repaired_never_enacted_blind():
    lib = PlanLibrary()
    kb = plan_mix_kb()
    env, services, fleet = make_grid(lib, kb)
    stored = seed_entry(lib)
    # The stored publisher's registered Service instance vanishes.
    kb.remove_instance("SVC-publish")

    reply = plan_once(env, services)
    assert reply["source"] == "repair"
    assert reply["verified"] is True
    assert reply["generations"] == 0
    swapped = dict(tuple(pair) for pair in reply["swapped"])
    assert swapped == {"publish": "publish_backup"}
    assert "publish" not in reply["plan"].activities()
    assert "publish_backup" in reply["plan"].activities()
    # Only the flagged terminal moved: everything else is verbatim.
    assert reply["plan"].size == stored.plan.size
    assert lib.counters["repair"] == 1
    # The repaired entry replaced the stale one: the next request is a
    # clean verified hit on the repaired plan.
    again = plan_once(env, services)
    assert again["source"] == "hit"
    assert again["plan"] == reply["plan"]


def test_irreparable_stale_entry_is_rejected_not_enacted():
    lib = PlanLibrary()
    kb = plan_mix_kb()
    env, services, fleet = make_grid(lib, kb)
    seed_entry(lib)
    # Both substitutes vanish: no resolvable swap exists.
    kb.remove_instance("SVC-publish")
    kb.remove_instance("SVC-publish_backup")

    reply = plan_once(env, services)
    assert reply["source"] in ("miss", "seed")  # fell back to a full GP run
    assert reply["verified"] is False
    assert lib.counters["reject"] == 1
    assert env.metrics.total("planlib_reject") == 1


def test_unverifiable_hit_demotes_to_gp_seed():
    lib = PlanLibrary()
    env, services, fleet = make_grid(lib, kb=None)
    assert plan_once(env, services)["source"] == "miss"
    reply = plan_once(env, services)
    # No registry view ⇒ the exact entry may only warm-start GP, never
    # skip it.
    assert reply["source"] == "seed"
    assert reply["verified"] is False
    assert reply["generations"] > 0


def test_coordination_refuses_unverified_library_plan():
    lib = PlanLibrary()
    env, services, fleet = make_grid(lib, plan_mix_kb())
    template = plan_once(env, services)

    def doctored_plan(message):
        reply = dict(template)
        reply["source"] = "hit"
        reply["verified"] = False
        return reply

    services.planning.handle_plan = doctored_plan
    user = services.coordination
    with pytest.raises(ServiceError, match="not re-verified"):
        drive(
            env,
            user,
            lambda: user.call(
                user.name,
                "execute-task",
                {
                    "problem": plan_mix_problem(0),
                    "initial_data": {"src": {"Status": "ready"}},
                    "task": "guard-case",
                },
            ),
        )
    assert env.metrics.total("cases_refused") == 1


def test_library_off_reply_has_no_library_keys():
    env, services, fleet = make_grid()
    reply = plan_once(env, services)
    assert "source" not in reply
    assert "verified" not in reply
    assert env.metrics.total("planlib_miss") == 0


def test_library_rpc_stats_list_purge():
    lib = PlanLibrary()
    env, services, fleet = make_grid(lib, plan_mix_kb())
    plan_once(env, services, variant=0)
    plan_once(env, services, variant=1)
    user = services.coordination

    stats = drive(
        env, user, lambda: user.call("planning", "library-stats", {})
    )
    assert stats["enabled"] is True
    assert stats["entries"] == 2
    assert stats["counters"]["miss"] == 1  # variant 1 seeded off variant 0

    listing = drive(
        env, user, lambda: user.call("planning", "library-list", {"limit": 1})
    )
    assert len(listing["entries"]) == 1
    row = listing["entries"][0]
    assert row["problem"] == "plan-mix-v1"  # most recently used first
    assert "pd_digest" not in row

    purged = drive(
        env, user, lambda: user.call("planning", "library-purge", {})
    )
    assert purged["purged"] == 2
    assert len(lib) == 0
