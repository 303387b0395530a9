"""Experiment drivers: tables, figures, ablations (fast configurations)."""

from repro.experiments import (
    PAPER_TABLE2,
    baseline_comparison,
    fig1_architecture,
    fig2_planning_protocol,
    fig3_replanning_protocol,
    fig4_to_7_conversions,
    fig8_crossover,
    fig9_mutation,
    fig10_11_case_study,
    fig12_13_ontology,
    replanning_sweep,
    smax_sweep,
    table1,
    table2,
    weight_sweep,
)
from repro.planner import GPConfig

FAST = GPConfig(population_size=30, generations=5)


class TestTables:
    def test_table1_rows(self):
        table = table1()
        rows = dict(zip(table.column("Parameters"), table.column("Values")))
        assert rows["Population Size"] == 200
        assert rows["Smax"] == 40

    def test_table2_small(self):
        result = table2(runs=3, config=FAST, base_seed=0)
        assert len(result.runs) == 3
        assert 0.0 < result.avg_fitness <= 1.0
        assert 0.0 <= result.avg_goal <= 1.0
        assert result.avg_size <= FAST.smax
        rendered = result.table.render()
        assert "Average Fitness" in rendered
        assert str(PAPER_TABLE2["Average Size of solutions"]) in rendered

    def test_table_render_alignment(self):
        table = table1()
        lines = table.render().splitlines()
        header = lines[2]
        rows = lines[4:-1]
        assert rows, "expected data rows"
        assert {len(r) for r in rows} == {len(header)}


class TestFigureDrivers:
    def test_fig1_census(self):
        table = fig1_architecture()
        rows = dict(zip(table.column("Kind"), table.column("Count")))
        for kind in ("information", "planning", "coordination"):
            assert rows[kind] == 1
        assert rows["application-container"] == 4

    def test_fig2_two_messages(self):
        table, trace = fig2_planning_protocol()
        assert [t[3] for t in trace] == ["plan", "plan"]
        assert trace[0][0] == "coordination"
        assert trace[1][0] == "planning"

    def test_fig3_protocol_order(self):
        table, trace = fig3_replanning_protocol()
        kinds = [(t[0], t[1], t[3]) for t in trace]
        assert kinds[0] == ("coordination", "planning", "replan")
        assert kinds[1] == ("planning", "information", "lookup")
        assert kinds[-1] == ("planning", "coordination", "replan")
        assert any(t[3] == "find-containers" for t in trace)
        assert any(t[3] == "can-execute" for t in trace)

    def test_fig4_7_all_ok(self):
        table = fig4_to_7_conversions()
        assert table.column("Round-trip") == ["ok"] * 4

    def test_fig8_conserves_nodes(self):
        table = fig8_crossover()
        sizes = dict(zip(table.column("Role"), table.column("Size")))
        assert sizes["parent a"] + sizes["parent b"] == sizes["child a"] + sizes["child b"]

    def test_fig9_mutation_changes_tree(self):
        table = fig9_mutation()
        trees = dict(zip(table.column("Role"), table.column("Tree")))
        assert trees["original"] != trees["mutated"]

    def test_fig10_11_census(self):
        table = fig10_11_case_study()
        rows = dict(zip(table.column("Property"), table.column("Value")))
        assert rows["end-user activities"] == 7
        assert rows["flow-control activities"] == 6
        assert rows["transitions"] == 15
        assert rows["plan-tree size"] == 10
        assert rows["tree recovered from graph matches Figure 11"] is True

    def test_fig12_13_census(self):
        table = fig12_13_ontology()
        rows = dict(zip(table.column("Property"), table.column("Value")))
        assert rows["schema classes"] == 10
        assert rows["Activity instances"] == 13
        assert rows["Transition instances"] == 15
        assert rows["Data instances"] == 12
        assert rows["Service instances"] == 4


class TestAblations:
    def test_weight_sweep_runs(self):
        table = weight_sweep(seeds=range(2), config=FAST)
        assert len(table.rows) == 6
        assert all(0.0 <= r <= 1.0 for r in table.column("solve rate"))

    def test_smax_sweep_runs(self):
        table = smax_sweep(seeds=range(2), smax_values=(10, 40), config=FAST)
        assert table.column("Smax") == [10, 40]
        # emitted plans never exceed their Smax
        for smax, size in zip(table.column("Smax"), table.column("avg size")):
            assert size <= smax

    def test_baseline_comparison_runs(self):
        from repro.workloads import chain_problem

        table = baseline_comparison(
            problems=(chain_problem(4),), seeds=range(2), config=FAST
        )
        planners = table.column("planner")
        assert "GP (paper)" in planners and "forward search" in planners
        # forward search is optimal on a chain
        row = dict(zip(planners, table.column("solve rate")))
        assert row["forward search"] == 1.0

    def test_replanning_sweep_zero_failures_all_complete(self):
        table = replanning_sweep(
            failure_rates=(0.0,), cases=2, enable_replanning=(True,), containers=2
        )
        assert table.column("completed") == [1.0]
