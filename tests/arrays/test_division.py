"""The division array of Fig 7-2 (E7)."""

import pytest

from repro.arrays import systolic_divide
from repro.arrays.division import DivisionSchedule
from repro.errors import SimulationError
from repro.relational import Relation, algebra
from repro.workloads import division_example, division_workload


class TestPaperExample:
    def test_fig_71(self):
        a, b, expected = division_example()
        result = systolic_divide(a, b, tagged=True)
        assert result.relation == expected
        assert result.distinct_x == [0, 1, 2]  # i, j, k in first-seen order
        assert result.quotient_bits == [True, False, False]

    def test_matches_oracle(self):
        a, b, _ = division_example()
        assert systolic_divide(a, b).relation == algebra.divide(a, b)


class TestGeneratedWorkloads:
    @pytest.mark.parametrize("n_groups,divisor,covered", [
        (1, 1, 0), (1, 1, 1), (4, 3, 2), (5, 2, 0), (3, 4, 3), (6, 1, 4),
    ])
    def test_known_quotient_size(self, n_groups, divisor, covered):
        a, b, expected_size = division_workload(
            n_groups, divisor, covered,
            seed=n_groups * 100 + divisor * 10 + covered,
        )
        result = systolic_divide(a, b, tagged=True)
        assert result.relation == algebra.divide(a, b)
        assert len(result.relation) == expected_size

    def test_duplicate_pairs_are_harmless(self):
        a, b, expected = division_example()
        doubled = Relation(a.schema, list(a.tuples) + list(a.tuples))
        # Relation dedups, so force duplicates through a raw stream:
        result = systolic_divide(a, b)
        result2 = systolic_divide(doubled, b)
        assert result.relation == result2.relation


class TestColumnConventions:
    def test_swapped_columns(self):
        # Divide with the group in column 1 and values in column 0.
        a, b, expected = division_example()
        flipped = Relation(
            a.schema.project([1, 0]),
            [(y, x) for x, y in a.tuples],
        )
        result = systolic_divide(flipped, b, a_value=0, a_group=1)
        assert result.relation.tuples == expected.tuples

    def test_group_equals_value_rejected(self):
        a, b, _ = division_example()
        with pytest.raises(SimulationError):
            systolic_divide(a, b, a_value="A1", a_group="A1")

    def test_domain_mismatch_rejected(self):
        a, b, _ = division_example()
        with pytest.raises(SimulationError, match="different domains"):
            systolic_divide(a, b, a_value="A1", a_group="A2")


class TestEdgeCases:
    def test_empty_dividend(self):
        a, b, _ = division_example()
        empty = Relation(a.schema)
        result = systolic_divide(empty, b)
        assert len(result.relation) == 0
        assert result.run.pulses == 0

    def test_empty_divisor_vacuous_truth(self):
        a, b, _ = division_example()
        result = systolic_divide(a, Relation(b.schema))
        assert len(result.relation) == 3  # every distinct x qualifies
        assert result.run.pulses == 0

    def test_single_pair_single_divisor(self):
        a, b, _ = division_example()
        tiny_a = Relation(a.schema, [a.tuples[0]])
        tiny_b = Relation(b.schema, [(a.tuples[0][1],)])
        result = systolic_divide(tiny_a, tiny_b)
        assert result.quotient_bits == [True]

    def test_divisor_with_duplicates(self):
        a, b, expected = division_example()
        # Same element repeated in the divisor stream must not change
        # the answer (coverage is a set condition).
        result = systolic_divide(a, b)
        assert result.relation == expected


class TestDivisionSchedule:
    def test_result_pulses_distinct_per_row(self):
        schedule = DivisionSchedule(n_pairs=5, p_rows=3, n_divisor=2)
        pulses = [schedule.result_pulse(r) for r in range(3)]
        assert len(set(pulses)) == 3

    def test_and_sweep_trails_last_y(self):
        schedule = DivisionSchedule(n_pairs=4, p_rows=2, n_divisor=3)
        for row in range(2):
            # The last pair's y enters one pulse behind its x and climbs
            # to the row's gate one dividend row a pulse.
            last_y = schedule.n_pairs - 1
            last_gate = last_y + 1 + (schedule.p_rows - 1 - row)
            assert schedule.and_inject_pulse(row) == last_gate + 2

    def test_row_from_result_checks_pulse(self):
        schedule = DivisionSchedule(n_pairs=2, p_rows=2, n_divisor=2)
        with pytest.raises(SimulationError, match="expected"):
            schedule.row_from_result(0, schedule.result_pulse(0) + 1)

    def test_validation(self):
        with pytest.raises(SimulationError):
            DivisionSchedule(n_pairs=0, p_rows=1, n_divisor=1)


class TestGeneralCase:
    """§7: "The extension from this to the general case is
    straightforward" — multi-column groups and values via composite
    domains (§2.3)."""

    @pytest.fixture
    def staffing(self):
        from repro.relational import Domain, Schema

        teams = Domain("teams")
        sites = Domain("sites")
        skills = Domain("skills")
        a_schema = Schema.of(
            ("team", teams), ("site", sites),
            ("skill", skills), ("level", skills),
        )
        a = Relation.from_values(a_schema, [
            ("red", "hq", "sql", "junior"),
            ("red", "hq", "apl", "senior"),
            ("red", "lab", "sql", "junior"),
            ("blue", "hq", "sql", "junior"),
            ("blue", "hq", "apl", "senior"),
            ("green", "hq", "apl", "senior"),
        ])
        b_schema = Schema.of(("skill", skills), ("level", skills))
        b = Relation.from_values(b_schema, [
            ("sql", "junior"), ("apl", "senior"),
        ])
        return a, b

    def test_multi_column_matches_oracle(self, staffing):
        from repro.arrays.division import systolic_divide_general
        from repro.relational.algebra import divide_general

        a, b = staffing
        result = systolic_divide_general(
            a, b, ["team", "site"], ["skill", "level"], tagged=True
        )
        expected = divide_general(a, b, ["team", "site"], ["skill", "level"])
        assert result.relation == expected
        assert result.relation.decoded() == [("red", "hq"), ("blue", "hq")]
        assert result.relation.schema.names == ("team", "site")

    def test_single_column_general_equals_restricted(self):
        from repro.arrays.division import systolic_divide_general

        a, b, expected = division_example()
        result = systolic_divide_general(a, b, ["A1"], ["A2"], ["B1"])
        assert result.relation == expected

    def test_column_list_validation(self, staffing):
        from repro.arrays.division import systolic_divide_general

        a, b = staffing
        with pytest.raises(SimulationError, match="disjoint"):
            systolic_divide_general(a, b, ["team"], ["team"])
        with pytest.raises(SimulationError, match="column counts differ"):
            systolic_divide_general(a, b, ["team"], ["skill", "level"], ["skill"])
        with pytest.raises(SimulationError, match="non-empty"):
            systolic_divide_general(a, b, [], ["skill"])

    def test_oracle_validation(self, staffing):
        from repro.errors import SchemaError
        from repro.relational.algebra import divide_general

        a, b = staffing
        with pytest.raises(SchemaError, match="disjoint"):
            divide_general(a, b, ["team"], ["team"])
