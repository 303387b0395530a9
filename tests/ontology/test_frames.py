"""Unit tests for the frame system (classes, slots, instances, KB)."""

import pytest

from repro.errors import (
    SchemaError,
    UnknownClassError,
    UnknownInstanceError,
    UnknownSlotError,
    ValidationError,
)
from repro.ontology import (
    Cardinality,
    KnowledgeBase,
    OntologyClass,
    Slot,
    SlotType,
)


@pytest.fixture
def kb():
    out = KnowledgeBase("test")
    out.define_class(
        "Animal",
        [
            Slot("Name", SlotType.STRING, required=True),
            Slot("Legs", SlotType.INTEGER, default=4),
            Slot("Weight", SlotType.FLOAT),
        ],
    )
    out.define_class(
        "Dog",
        [Slot("Breed", SlotType.STRING)],
        parent="Animal",
    )
    out.define_class(
        "Kennel",
        [
            Slot(
                "Residents",
                SlotType.INSTANCE,
                cardinality=Cardinality.MULTIPLE,
                allowed_classes=frozenset({"Dog"}),
            )
        ],
    )
    return out


class TestSlot:
    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            Slot("")

    def test_allowed_classes_require_instance_type(self):
        with pytest.raises(SchemaError):
            Slot("x", SlotType.STRING, allowed_classes=frozenset({"Dog"}))

    def test_scalar_type_check(self):
        slot = Slot("Legs", SlotType.INTEGER)
        slot.check_value(4)
        with pytest.raises(ValidationError):
            slot.check_value("four")

    def test_bool_not_accepted_as_integer(self):
        slot = Slot("Legs", SlotType.INTEGER)
        with pytest.raises(ValidationError):
            slot.check_value(True)

    def test_float_slot_accepts_int(self):
        Slot("Weight", SlotType.FLOAT).check_value(3)

    def test_multi_value_requires_sequence(self):
        slot = Slot("Tags", SlotType.STRING, cardinality=Cardinality.MULTIPLE)
        slot.check_value(["a", "b"])
        with pytest.raises(ValidationError):
            slot.check_value("a")

    def test_multi_value_checks_each_item(self):
        slot = Slot("Tags", SlotType.STRING, cardinality=Cardinality.MULTIPLE)
        with pytest.raises(ValidationError):
            slot.check_value(["ok", 3])

    def test_none_value_allowed(self):
        Slot("Weight", SlotType.FLOAT).check_value(None)

    def test_any_type_accepts_everything(self):
        Slot("Value", SlotType.ANY).check_value({"arbitrary": object()})


class TestClasses:
    def test_duplicate_slot_rejected(self):
        with pytest.raises(SchemaError):
            OntologyClass("C", [Slot("a"), Slot("a")])

    def test_duplicate_class_rejected(self, kb):
        with pytest.raises(SchemaError):
            kb.define_class("Animal")

    def test_unknown_parent_rejected(self):
        kb = KnowledgeBase()
        with pytest.raises(UnknownClassError):
            kb.define_class("Child", parent="Ghost")

    def test_inherited_slots_merged(self, kb):
        slots = kb.slots_of("Dog")
        assert {"Name", "Legs", "Weight", "Breed"} == set(slots)

    def test_ancestors_order(self, kb):
        assert kb.ancestors("Dog") == ["Dog", "Animal"]

    def test_is_subclass(self, kb):
        assert kb.is_subclass("Dog", "Animal")
        assert not kb.is_subclass("Animal", "Dog")

    def test_slot_of_unknown_raises(self, kb):
        with pytest.raises(UnknownSlotError):
            kb.slot_of("Dog", "Wings")


class TestInstances:
    def test_create_and_get(self, kb):
        rex = kb.new_instance("Dog", {"Name": "Rex", "Breed": "lab"})
        assert kb.get_instance(rex.id) is rex
        assert rex.get("Name") == "Rex"

    def test_defaults_applied(self, kb):
        rex = kb.new_instance("Dog", {"Name": "Rex"})
        assert rex.get("Legs") == 4

    def test_missing_required_slot(self, kb):
        with pytest.raises(ValidationError):
            kb.new_instance("Dog", {"Breed": "lab"})

    def test_unknown_slot_rejected(self, kb):
        with pytest.raises(UnknownSlotError):
            kb.new_instance("Dog", {"Name": "Rex", "Wings": 2})

    def test_duplicate_id_rejected(self, kb):
        kb.new_instance("Dog", {"Name": "Rex"}, id="d1")
        with pytest.raises(ValidationError):
            kb.new_instance("Dog", {"Name": "Fido"}, id="d1")

    def test_generated_ids_deterministic(self, kb):
        a = kb.new_instance("Dog", {"Name": "A"})
        b = kb.new_instance("Dog", {"Name": "B"})
        assert a.id == "Dog-1" and b.id == "Dog-2"

    def test_instances_of_includes_subclasses(self, kb):
        kb.new_instance("Dog", {"Name": "Rex"})
        assert len(kb.instances_of("Animal")) == 1
        assert len(kb.instances_of("Animal", direct_only=True)) == 0

    def test_remove_instance(self, kb):
        rex = kb.new_instance("Dog", {"Name": "Rex"})
        kb.remove_instance(rex.id)
        assert not kb.has_instance(rex.id)
        assert kb.instances_of("Animal") == []

    def test_unknown_instance_raises(self, kb):
        with pytest.raises(UnknownInstanceError):
            kb.get_instance("nope")

    def test_reference_validation(self, kb):
        rex = kb.new_instance("Dog", {"Name": "Rex"})
        kennel = kb.new_instance("Kennel", {"Residents": [rex.id]})
        kb.validate_all()
        # A non-Dog resident must be rejected on full validation.
        cat = kb.new_instance("Animal", {"Name": "Tom"})
        kennel.set("Residents", [rex.id, cat.id])
        with pytest.raises(ValidationError):
            kb.validate_all()

    def test_resolve_multi_reference(self, kb):
        rex = kb.new_instance("Dog", {"Name": "Rex"})
        kennel = kb.new_instance("Kennel", {"Residents": [rex.id]})
        assert kb.resolve(kennel, "Residents") == [rex]

    def test_resolve_missing_optional(self, kb):
        rex = kb.new_instance("Dog", {"Name": "Rex"})
        assert kb.resolve(rex, "Weight") is None

    def test_abstract_class_not_instantiable(self):
        kb = KnowledgeBase()
        kb.define_class("Base", abstract=True)
        with pytest.raises(ValidationError):
            kb.new_instance("Base")


class TestShellAndMerge:
    def test_shell_has_no_instances(self, kb):
        kb.new_instance("Dog", {"Name": "Rex"})
        shell = kb.shell()
        assert len(shell) == 0
        assert set(shell.class_names) == set(kb.class_names)

    def test_shell_preserves_inheritance(self, kb):
        shell = kb.shell()
        assert shell.get_class("Dog").parent == "Animal"

    def test_merge_adds_instances(self, kb):
        other = kb.shell("user")
        other.new_instance("Dog", {"Name": "Rex"}, id="u-rex")
        kb.merge(other)
        assert kb.has_instance("u-rex")

    def test_merge_conflicting_schema_rejected(self, kb):
        other = KnowledgeBase("user")
        other.define_class("Animal", [Slot("Other")])
        with pytest.raises(SchemaError):
            kb.merge(other)

    def test_merge_id_collision_rejected(self, kb):
        kb.new_instance("Dog", {"Name": "Rex"}, id="d1")
        other = kb.shell("user")
        other.new_instance("Dog", {"Name": "Imp"}, id="d1")
        with pytest.raises(ValidationError):
            kb.merge(other)


class TestFind:
    def test_find_by_slot(self, kb):
        kb.new_instance("Dog", {"Name": "Rex", "Breed": "lab"})
        kb.new_instance("Dog", {"Name": "Fido", "Breed": "pug"})
        assert len(kb.find("Dog", Breed="lab")) == 1

    def test_find_with_predicate(self, kb):
        kb.new_instance("Dog", {"Name": "Rex", "Legs": 3})
        found = kb.find("Dog", where=lambda i: i.get("Legs") < 4)
        assert [i.get("Name") for i in found] == ["Rex"]

    def test_find_one_requires_uniqueness(self, kb):
        kb.new_instance("Dog", {"Name": "Rex"})
        kb.new_instance("Dog", {"Name": "Fido"})
        with pytest.raises(UnknownInstanceError):
            kb.find_one("Dog", Legs=4)
