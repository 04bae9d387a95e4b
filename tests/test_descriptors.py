import pytest

from proxyaudit.descriptors import Condition, SubgroupDescriptor
from proxyaudit.errors import ValidationError


class TestCondition:
    def test_equals_mask_ignores_missing(self, toy_dataset):
        mask = Condition.equals("sex", "male").mask(toy_dataset)
        assert mask.tolist() == [False, True, True, False, False, True]

    def test_interval_mask_half_open(self, toy_dataset):
        cond = Condition.interval("years_since_graduation", lo=31.0, hi=40.0)
        assert cond.mask(toy_dataset).tolist() == [True, True, False, False, False, True]

    def test_interval_closed_upper(self, toy_dataset):
        cond = Condition.interval("years_since_graduation", lo=31.0, hi=40.0, hi_closed=True)
        assert cond.mask(toy_dataset).tolist() == [True, True, True, False, False, True]

    def test_half_line_excludes_nan(self, toy_dataset):
        cond = Condition.interval("years_since_graduation", lo=0.0)
        assert cond.mask(toy_dataset).tolist() == [True, True, True, True, False, True]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValidationError):
            Condition.interval("x", lo=5.0, hi=5.0)

    def test_equals_on_numeric_rejected(self, toy_dataset):
        with pytest.raises(ValidationError):
            Condition.equals("years_since_graduation", "x").mask(toy_dataset)

    def test_interval_on_categorical_rejected(self, toy_dataset):
        with pytest.raises(ValidationError):
            Condition.interval("sex", lo=0.0, hi=1.0).mask(toy_dataset)

    def test_unknown_category_rejected(self, toy_dataset):
        with pytest.raises(ValidationError):
            Condition.equals("sex", "other").mask(toy_dataset)

    def test_text_forms(self):
        assert Condition.equals("sex", "male").as_text() == 'sex = "male"'
        assert Condition.interval("age", lo=61, hi=66).as_text() == "age in [61, 66)"
        assert Condition.interval("age", lo=61).as_text() == "age >= 61"
        assert Condition.interval("age", hi=61).as_text() == "age < 61"

    def test_json_round_trip(self):
        for cond in (
            Condition.equals("sex", "male"),
            Condition.interval("age", lo=61, hi=66),
            Condition.interval("age", hi=61, hi_closed=True),
        ):
            assert Condition.from_json(cond.to_json()) == cond


class TestSubgroupDescriptor:
    def test_canonical_order_makes_equal(self):
        c1 = Condition.equals("a", "x")
        c2 = Condition.interval("b", lo=0, hi=1)
        assert SubgroupDescriptor((c1, c2)) == SubgroupDescriptor((c2, c1))

    def test_one_condition_per_column(self):
        with pytest.raises(ValidationError):
            SubgroupDescriptor(
                (Condition.interval("b", lo=0, hi=1), Condition.interval("b", lo=1, hi=2))
            )

    def test_tautology_matches_all(self, toy_dataset):
        assert SubgroupDescriptor().mask(toy_dataset).all()

    def test_conjunction_mask(self, toy_dataset):
        desc = SubgroupDescriptor(
            (
                Condition.equals("school_attended", "X"),
                Condition.interval("years_since_graduation", lo=30.0),
            )
        )
        assert desc.mask(toy_dataset).tolist() == [True, True, False, False, False, False]

    def test_extended_checks_column_reuse(self):
        desc = SubgroupDescriptor((Condition.equals("a", "x"),))
        with pytest.raises(ValidationError):
            desc.extended(Condition.equals("a", "y"))

    def test_text_and_json_round_trip(self):
        desc = SubgroupDescriptor(
            (Condition.interval("age", lo=61, hi=66), Condition.equals("retired", "false"))
        )
        assert desc.as_text() == 'age in [61, 66) AND retired = "false"'
        assert SubgroupDescriptor.from_json(desc.to_json()) == desc
        assert SubgroupDescriptor().as_text() == "(true)"

    def test_depth(self):
        assert SubgroupDescriptor().depth == 0
        assert SubgroupDescriptor((Condition.equals("a", "x"),)).depth == 1
