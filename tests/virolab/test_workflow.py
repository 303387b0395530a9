"""Figures 10, 11, 13 as data: structural fidelity checks."""

import pytest

from repro.plan import normalize, process_to_tree
from repro.process import validate_process
from repro.process.conditions import MappingSource
from repro.virolab import (
    ACTIVITY_TABLE,
    CONDITIONS,
    CONS1,
    DATA_CLASSIFICATIONS,
    INITIAL_DATA,
    TRANSITION_TABLE,
    activity_specs,
    case_study_kb,
    plan_tree,
    process_description,
)


class TestFigure10:
    def test_census(self):
        pd = process_description()
        assert len(pd.end_user_activities()) == 7
        assert len(pd.flow_control_activities()) == 6
        assert len(pd.transitions) == 15
        validate_process(pd)

    def test_transition_table_matches(self):
        pd = process_description()
        for tr_id, src, dst in TRANSITION_TABLE:
            tr = pd.transition(tr_id)
            assert (tr.source, tr.destination) == (src, dst)

    def test_loop_condition_on_tr14(self):
        pd = process_description()
        assert pd.transition("TR14").condition is CONS1
        assert pd.transition("TR15").condition is None

    def test_service_bindings(self):
        pd = process_description()
        for name in ("P3DR1", "P3DR2", "P3DR3", "P3DR4"):
            assert pd.activity(name).service == "P3DR"


class TestFigure11:
    def test_tree_size_ten(self):
        assert plan_tree().size == 10

    def test_recovered_tree_matches(self):
        recovered = process_to_tree(process_description())
        assert normalize(recovered) == normalize(plan_tree())


class TestConditions:
    def test_c1_semantics(self):
        src = MappingSource(
            {
                "D1": {"Classification": "POD-Parameter"},
                "D7": {"Classification": "2D Image"},
            }
        )
        assert CONDITIONS["C1"].evaluate(src)

    def test_cons1_loops_while_coarse(self):
        coarse = MappingSource(
            {"D12": {"Classification": "Resolution File", "Value": 12.0}}
        )
        fine = MappingSource(
            {"D12": {"Classification": "Resolution File", "Value": 7.5}}
        )
        assert CONS1.evaluate(coarse)
        assert not CONS1.evaluate(fine)

    def test_all_conditions_defined(self):
        assert set(CONDITIONS) == {f"C{i}" for i in range(1, 9)}


class TestPlanningProblem:
    def test_seven_activities(self):
        specs = activity_specs()
        assert len(specs) == 7

    def test_initial_data_is_d1_to_d7(self):
        assert INITIAL_DATA == ("D1", "D2", "D3", "D4", "D5", "D6", "D7")

    def test_problem_goal_needs_pipeline(self, case_problem):
        assert case_problem.goal_score(case_problem.initial_state) == 0.0

    def test_activity_bindings_match_figure13(self):
        specs = activity_specs()
        assert specs["POD"].inputs == ("D1", "D7")
        assert specs["POD"].outputs == ("D8",)
        assert specs["POR"].inputs == ("D5", "D7", "D8", "D9")
        assert specs["PSF"].outputs == ("D12",)


class TestFigure13KB:
    @pytest.fixture(scope="class")
    def kb(self):
        return case_study_kb()

    def test_instance_census(self, kb):
        assert len(kb.instances_of("Activity")) == 13
        assert len(kb.instances_of("Transition")) == 15
        assert len(kb.instances_of("Data")) == 12
        assert len(kb.instances_of("Service")) == 4
        assert len(kb.instances_of("Task")) == 1

    def test_activity_types(self, kb):
        types = {
            inst.get("Name"): inst.get("Type")
            for inst in kb.instances_of("Activity")
        }
        assert types["BEGIN"] == "Begin"
        assert types["FORK"] == "Fork"
        assert types["PSF"] == "End-user"

    def test_task_links_resolve(self, kb):
        task = kb.find_one("Task", Name="3DSD")
        pd_inst = kb.resolve(task, "Process Description")
        cd_inst = kb.resolve(task, "Case Description")
        assert pd_inst.get("Name") == "PD-3DSD"
        assert cd_inst.get("Name") == "CD-3DSD"
        activities = kb.resolve(pd_inst, "Activity Set")
        assert len(activities) == 13

    def test_data_classifications(self, kb):
        for name, classification in DATA_CLASSIFICATIONS.items():
            inst = kb.get_instance(name)
            assert inst.get("Classification") == classification

    def test_validates(self, kb):
        kb.validate_all()

    def test_activity_table_consistent_with_kb(self, kb):
        for act_id, name, _, service, inputs, outputs, _ in ACTIVITY_TABLE:
            inst = kb.get_instance(act_id)
            assert inst.get("Name") == name
            if inputs:
                assert tuple(inst.get("Input Data Set")) == inputs
            if outputs:
                assert tuple(inst.get("Output Data Set")) == outputs
