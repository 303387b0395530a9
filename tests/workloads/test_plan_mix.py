"""The plan_mix workload: repeated-goal planning traffic for the library."""

import pytest

from repro.errors import WorkloadError
from repro.planner import EvaluationEngine
from repro.workloads import run_plan_mix
from repro.workloads.plan_mix import plan_mix_goals, plan_mix_problem

FAST = dict(
    population_size=24, generations=4, smax=12, containers=2
)


@pytest.fixture(scope="module")
def warm_run():
    return run_plan_mix(requests=10, distinct=4, **FAST)


class TestWarmRun:
    def test_every_request_answered(self, warm_run):
        assert len(warm_run["replies"]) == 10
        assert len(warm_run["latencies"]) == 10
        assert all(latency > 0.0 for latency in warm_run["latencies"])

    def test_ladder_shape(self, warm_run):
        sources = warm_run["sources"]
        # First request of a cold library is the one honest miss; later
        # first-occurrences overlap earlier goal variants and plan as
        # seeds; every repeat is a verified hit.
        assert sources[0] == "miss"
        assert set(sources[1:4]) == {"seed"}
        assert sources[4:] == ["hit"] * 6

    def test_counters_match_sources(self, warm_run):
        counts = warm_run["counts"]
        assert counts["miss"] == 1
        assert counts["seed"] == 3
        assert counts["hit"] == 6
        assert counts["repair"] == 0
        assert counts["store"] == 4
        assert counts["verify"] == 6
        assert warm_run["library_entries"] == 4

    def test_hits_replay_the_stored_plan(self, warm_run):
        schedule, replies = warm_run["schedule"], warm_run["replies"]
        firsts = {}
        for variant, reply in zip(schedule, replies):
            if variant not in firsts:
                firsts[variant] = reply
            elif reply["source"] == "hit":
                assert reply["plan"] == firsts[variant]["plan"]
                assert reply["generations"] == 0


def test_kill_after_exercises_repair():
    # Default GP budget: the variant-0 plan must actually publish for the
    # kill to land on a used service.
    result = run_plan_mix(requests=8, distinct=2, kill_after=4, containers=2)
    assert result["killed"] in ("publish", "publish_backup")
    assert result["counts"]["repair"] >= 1
    assert "repair" in result["sources"]
    # A repaired plan never uses the killed publisher again.
    for reply in result["replies"]:
        if reply["source"] == "repair":
            assert result["killed"] not in reply["plan"].activities()


def test_library_off_runs_plain_gp():
    result = run_plan_mix(requests=4, distinct=2, library="off", **FAST)
    assert result["sources"] == [None] * 4
    assert all(count == 0 for count in result["counts"].values())
    assert result["library_entries"] == 0


def test_messages_counted_with_tracing_off():
    traced = run_plan_mix(requests=2, **FAST)
    fast = run_plan_mix(requests=2, tracing=False, **FAST)
    # Two plan RPCs, request and reply each: the library sends nothing.
    assert fast["messages"] == traced["messages"] == 4


def test_goal_variants_cycle_and_share_digest():
    assert plan_mix_goals(0) == plan_mix_goals(4)
    from repro.planner.library import problem_digest

    digests = {problem_digest(plan_mix_problem(v)) for v in range(4)}
    assert len(digests) == 1  # one activity set T, four goal variants


def test_rejects_degenerate_inputs():
    with pytest.raises(WorkloadError):
        run_plan_mix(requests=0)
    with pytest.raises(WorkloadError):
        run_plan_mix(requests=2, distinct=0)


def test_enact_mode_records_journaled_cases():
    """Enactment mode drives each planned process through coordination;
    with the journal on, each case carries its plan event and the
    library source comes from the journal, not the enactment reply."""
    result = run_plan_mix(
        requests=4, distinct=2, enact=True, journal=True, spans=True, **FAST
    )
    assert result["completed"] == 4
    assert result["fitness"] == []
    stats = result["journal"]
    assert stats["appended"] > 0
    assert all(source is not None for source in result["sources"])
    assert result["sources"][0] == "miss"  # cold library, first variant
    # repeats of a variant are verified hits
    assert set(result["sources"][2:]) <= {"hit", "repair", "seed"}


def test_replies_score_plans_under_the_request_config():
    # A reply's fitness is its plan's score under the request's own
    # GPConfig (Smax 12 here), not under the Table-1 default Smax of 40.
    result = run_plan_mix(requests=2, distinct=2)
    for variant, reply in zip(result["schedule"], result["replies"]):
        engine = EvaluationEngine(plan_mix_problem(variant), smax=12)
        assert reply["fitness"] == engine(reply["plan"]).overall
