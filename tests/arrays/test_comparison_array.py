"""The two-dimensional comparison array of Fig 3-3 (experiment E2)."""

import pytest

from repro.arrays import compare_all_pairs
from repro.arrays.comparison_array import comparison_plan
from repro.errors import SimulationError
from repro.systolic.engine import t_init_true
from repro.systolic.engine.materialize import materialize
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.trace import TraceRecorder, render_grid
from repro.workloads import three_by_three_pair


def reference_matrix(a_tuples, b_tuples):
    return [
        [tuple(ra) == tuple(rb) for rb in b_tuples] for ra in a_tuples
    ]


class TestMatrixCorrectness:
    def test_three_by_three_example(self):
        a, b = three_by_three_pair()
        result = compare_all_pairs(a.tuples, b.tuples, tagged=True)
        assert result.t_matrix == reference_matrix(a.tuples, b.tuples)
        # Exactly one common tuple in the workloads fixture.
        assert [
            (i, j) for i, row in enumerate(result.t_matrix)
            for j, value in enumerate(row) if value
        ] == [(1, 1)]

    @pytest.mark.parametrize("n_a,n_b,arity", [
        (1, 1, 1), (1, 5, 2), (5, 1, 2), (4, 4, 3), (3, 7, 1), (6, 2, 4),
    ])
    def test_shapes(self, n_a, n_b, arity):
        # Craft data with collisions: values drawn from a tiny universe.
        a_tuples = [tuple((i * 7 + k) % 3 for k in range(arity)) for i in range(n_a)]
        b_tuples = [tuple((j * 5 + k) % 3 for k in range(arity)) for j in range(n_b)]
        result = compare_all_pairs(a_tuples, b_tuples, tagged=True)
        assert result.t_matrix == reference_matrix(a_tuples, b_tuples)

    def test_all_equal_relations(self):
        tuples = [(1, 1)] * 3
        result = compare_all_pairs(tuples, tuples)
        assert all(all(row) for row in result.t_matrix)

    def test_disjoint_relations(self):
        result = compare_all_pairs([(1,), (2,)], [(3,), (4,)])
        assert not any(any(row) for row in result.t_matrix)

    def test_t_init_masking(self):
        # Feed FALSE for the diagonal: equal pairs there must vanish (§5).
        tuples = [(1,), (2,), (1,)]
        result = compare_all_pairs(
            tuples, tuples, t_init=lambda i, j: i != j
        )
        assert result.t_matrix == [
            [False, False, True],
            [False, False, False],
            [True, False, False],
        ]

    def test_empty_relations_rejected(self):
        with pytest.raises(SimulationError, match="non-empty"):
            compare_all_pairs([], [(1,)])


class TestOperationalShape:
    def test_run_length_is_linear_not_quadratic(self):
        # n² comparisons finish in O(n + m) pulses — the pipelining win.
        small = compare_all_pairs([(i,) for i in range(4)],
                                  [(i,) for i in range(4)])
        large = compare_all_pairs([(i,) for i in range(8)],
                                  [(i,) for i in range(8)])
        assert small.run.pulses == small.schedule.comparison_pulses
        # Doubling n roughly doubles (not quadruples) the pulse count.
        assert large.run.pulses < 3 * small.run.pulses

    def test_geometry_matches_schedule(self):
        result = compare_all_pairs([(1, 2)] * 3, [(3, 4)] * 5)
        assert result.run.rows == 2 * 5 - 1
        assert result.run.cols == 2
        assert result.run.cells == result.run.rows * result.run.cols


class TestFig34Trace:
    def test_snapshot_shows_counter_streaming_data(self):
        """Reproduce the Fig 3-4 view: a's and b's interleaved mid-array."""
        a, b = three_by_three_pair()
        plan = comparison_plan(a.tuples, b.tuples, t_init_true, tagged=True)
        network, layout = materialize(plan)
        schedule = plan.schedule
        recorder = TraceRecorder()
        simulator = SystolicSimulator(network, observer=recorder)
        simulator.run(schedule.comparison_pulses)

        # At the central meeting pulse of (a0, b0), column 0, row M holds
        # both a[0][0] and b[0][0].
        mid = schedule.mid
        pulse = schedule.meeting_pulse(0, 0, 0)
        snapshot = recorder.at(pulse)
        cell = snapshot[f"cmp[{mid},0]"]
        values = {token.value for token in cell.values()}
        assert a.tuples[0][0] in values
        assert b.tuples[0][0] in values

        text = render_grid(snapshot, layout)
        assert text.count("\n") == schedule.rows - 1  # full grid rendered

    def test_trace_confirms_two_step_tuple_spacing(self):
        a, b = three_by_three_pair()
        plan = comparison_plan(a.tuples, b.tuples, t_init_true, tagged=True)
        network, _ = materialize(plan)
        schedule = plan.schedule
        recorder = TraceRecorder()
        SystolicSimulator(network, observer=recorder).run(
            schedule.comparison_pulses
        )
        # Column 0 of the top row sees a0, a1, a2 at pulses 0, 2, 4.
        history = [
            (pulse, recorder.at(pulse).get("cmp[0,0]", {}))
            for pulse in recorder.pulses
        ]
        a_arrivals = [
            pulse for pulse, ports in history
            if "a_in" in ports and isinstance(ports["a_in"].tag, tuple)
            and ports["a_in"].tag[0] == "a"
        ]
        assert a_arrivals[:3] == [0, 2, 4]
