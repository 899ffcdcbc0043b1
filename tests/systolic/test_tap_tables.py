"""One tap table per tapped edge, on every engine.

A run's taps are one :class:`ColumnarTap` table per tapped edge —
``t_row`` and ``t_i`` of a grid, ``and_row`` of the division array —
with a position column beside the pulse, value and tag-index columns.
A run's tables must equal the cell network's records for its taps, as
tables (``tables_of(simulator.collectors)``), on the pulse, lattice and
bitplane engines alike; the decoders of :mod:`repro.arrays.decode` read
a table whole, and a table
with a duplicated, dropped, mis-tagged or mis-timed record must be
refused with the very message the per-tap decoders gave.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.arrays import decode
from repro.errors import SimulationError
from repro.systolic.engine import (
    BitplaneEngine,
    ColumnarTap,
    DivisionPlan,
    GridPlan,
    HexPlan,
    LatticeEngine,
    PulseEngine,
    t_init_strict_lower,
    t_init_true,
)
from repro.systolic.engine.hexmesh import COMPARISON_SEMIRING
from repro.systolic.engine.materialize import materialize, tables_of
from repro.systolic.engine.schedule import (
    CounterStreamSchedule,
    FixedRelationSchedule,
)
from repro.systolic.simulator import SystolicSimulator
from repro.systolic.values import Token

ENGINES = [PulseEngine, LatticeEngine, BitplaneEngine]
A4 = [(0, 1), (2, 3), (0, 1), (3, 3)]
B4 = [(0, 1), (2, 2), (3, 3), (2, 3)]


def plans(tagged):
    yield GridPlan(A4, B4, CounterStreamSchedule(4, 4, 2), t_init=t_init_true,
                   accumulate=True, row_taps=True, tagged=tagged)
    yield GridPlan(A4, A4, FixedRelationSchedule(4, 4, 2),
                   t_init=t_init_strict_lower, accumulate=True,
                   tagged=tagged)
    yield GridPlan(A4[:3], B4, CounterStreamSchedule(3, 4, 2),
                   ops=("<=", "=="), row_taps=True, tagged=tagged)
    yield GridPlan(A4, B4[:2], FixedRelationSchedule(4, 2, 2),
                   ops=("!=", ">"), row_taps=True, tagged=tagged)
    yield DivisionPlan([(0, 1), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)],
                       [0, 1, 2, 5], [1, 2], tagged=tagged)


EDGES = {"t_row", "t_i", "and_row"}


def read_out(tables):
    """Every table's fields, its records in (position, pulse) order —
    the order the decoders read them in, whatever order a table keeps."""
    fields = {}
    for edge, table in tables.items():
        keys = [table.pulses]
        if table.positions is not None:
            keys.append(table.positions)
        order = np.lexsort(keys)
        columns = [table.pulses, table.values, *table.tag_indices]
        if table.positions is not None:
            columns.append(table.positions)
        fields[edge] = (
            table.name, table.width, table.tag_kind,
            len(table.tag_indices), table.positions is None,
            [(column.dtype, column[order].tolist()) for column in columns],
        )
    return fields


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.name)
@pytest.mark.parametrize("tagged", [False, True], ids=["untagged", "tagged"])
def test_taps_by_name_are_slices_of_one_table_an_edge(engine, tagged):
    for plan in plans(tagged):
        run = engine().run(plan)
        simulator = SystolicSimulator(materialize(plan))
        simulator.run(plan.pulses)

        tables = run.columnar
        assert set(tables) <= EDGES and tables
        for edge, table in tables.items():
            assert isinstance(table, ColumnarTap) and table.name == edge
            if edge == "t_i":
                assert table.positions is None and table.width is None
            else:
                assert len(table.positions) == len(table)
            assert run.table(edge) is table
        # A tap by name is its edge's table at one position: the tables
        # hold every tap of the plan, records and dtypes as the network's.
        assert sorted(simulator.collectors) == sorted(plan.tap_names())
        assert read_out(tables) == read_out(tables_of(simulator.collectors))
        assert run.table("t") is None


def test_a_linear_run_is_one_tap():
    """Fig 3-1 is the grid of one tuple against one: its one tap is
    position 0 of a ``t_row`` table one position wide."""
    plan = GridPlan([[1, 2, 3]], [[1, 2, 3]], CounterStreamSchedule(1, 1, 3),
                    t_init=t_init_true, row_taps=True, tagged=True)
    run = PulseEngine().run(plan)
    (table,) = run.columnar.values()
    assert table.name == "t_row" and table.width == 1
    assert table.positions.tolist() == [0] and table.pulses.tolist() == [2]
    assert table.tag_kind == "t"
    assert [column.tolist() for column in table.tag_indices] == [[0], [0]]


# -- the decoders refuse a broken table with the per-tap decoders' words -----


class Tables:
    """A result that is nothing but tap tables."""

    def __init__(self, **tables):
        self.tables = tables

    def table(self, edge):
        return self.tables.get(edge)


GRID = GridPlan(A4, B4, CounterStreamSchedule(4, 4, 2), t_init=t_init_true,
                accumulate=True, row_taps=True, tagged=True)
DIVISION = DivisionPlan([(0, 1), (1, 1), (0, 2), (2, 1), (1, 2)],
                        [0, 1, 2], [1, 2], tagged=True)


def table_of(plan, edge):
    return PulseEngine().run(plan).table(edge)


def record_of(table, *tag):
    """The index of the record tagged ``tag``."""
    hit = np.ones(len(table), bool)
    for column, index in zip(table.tag_indices, tag):
        hit &= column == index
    (k,) = np.flatnonzero(hit)
    return k


def edited(table, k=None, drop=None, copy=None, **changes):
    """``table`` with record ``k``'s columns changed, record ``drop``
    dropped or record ``copy`` appended again."""
    columns = dict(pulses=table.pulses, values=table.values,
                   positions=table.positions)
    indices = list(table.tag_indices)
    if k is not None:
        for key, value in changes.items():
            if key.startswith("tag"):
                column = indices[int(key[3:])] = indices[int(key[3:])].copy()
            else:
                column = columns[key] = columns[key].copy()
            column[k] = value
    if drop is not None:
        columns = {key: None if column is None else np.delete(column, drop)
                   for key, column in columns.items()}
        indices = [np.delete(column, drop) for column in indices]
    if copy is not None:
        columns = {key: None if column is None
                   else np.append(column, column[copy])
                   for key, column in columns.items()}
        indices = [np.append(column, column[copy]) for column in indices]
    return replace(table, tag_indices=tuple(indices), **columns)


def refusal(decoder, edge, table, plan):
    with pytest.raises(SimulationError) as refused:
        decoder(Tables(**{edge: table}), plan.schedule, True)
    return str(refused.value)


class TestPairTable:
    def refused(self, table):
        return refusal(decode.pair_verdicts, "t_row", table, GRID)

    def test_the_clean_table_decodes(self):
        table = table_of(GRID, "t_row")
        verdicts = decode.pair_verdicts(Tables(t_row=table), GRID.schedule,
                                        True)
        assert verdicts.tolist() == [
            [a == b for b in B4] for a in A4
        ]

    def test_a_duplicated_record(self):
        table = table_of(GRID, "t_row")
        assert self.refused(edited(table, copy=record_of(table, 1, 2))) == (
            "pair (1, 2) exited twice"
        )

    def test_a_dropped_record(self):
        table = table_of(GRID, "t_row")
        assert self.refused(edited(table, drop=record_of(table, 2, 0))) == (
            "only 15 of 16 pair results exited the array"
        )

    def test_a_wrong_tag(self):
        table = table_of(GRID, "t_row")
        k = record_of(table, 2, 3)  # row 4
        assert self.refused(edited(table, k, tag0=1)) == (
            "arrivals at tap 't_row[4]' carry tags inconsistent with their "
            "decoded pairs"
        )
        # Of two, the lower row's tap is the one named — though pair
        # (0, 2) leaves row 5 two pulses before pair (3, 1) leaves row 1.
        wrong = edited(edited(table, record_of(table, 0, 2), tag0=1),
                       record_of(table, 3, 1), tag1=0)
        assert self.refused(wrong) == (
            "arrivals at tap 't_row[1]' carry tags inconsistent with their "
            "decoded pairs"
        )

    def test_a_wrong_parity_pulse(self):
        table = table_of(GRID, "t_row")
        k = record_of(table, 1, 1)  # row 3, pulse 6
        assert self.refused(edited(table, k, pulses=7)) == (
            "arrival (row=3, pulse=7) matches no pair in the schedule"
        )
        # Of two, the first in read-out order: by row, then pulse —
        # though pair (0, 2) leaves row 5 a pulse before pair (3, 0)
        # leaves row 0.
        both = edited(edited(table, record_of(table, 0, 2), pulses=7),
                      record_of(table, 3, 0), pulses=8)
        assert self.refused(both) == (
            "arrival (row=0, pulse=8) matches no pair in the schedule"
        )

    def test_a_pulse_past_the_relations(self):
        table = table_of(GRID, "t_row")
        k = record_of(table, 3, 3)  # row 3, pulse 10
        assert self.refused(edited(table, k, pulses=12)) == (
            "arrival (row=3, pulse=12) decodes to pair (4, 4) outside the "
            "relations"
        )


class TestAccumulatorTable:
    def refused(self, table):
        return refusal(decode.accumulator_bits, "t_i", table, GRID)

    def test_a_duplicated_record(self):
        table = table_of(GRID, "t_i")
        assert self.refused(edited(table, copy=2)) == (
            "tuple 2 exited the accumulator twice"
        )

    def test_a_dropped_record(self):
        table = table_of(GRID, "t_i")
        assert self.refused(edited(table, drop=1)) == (
            "tuples [1] never exited the accumulation array"
        )

    def test_a_wrong_tag(self):
        table = table_of(GRID, "t_i")
        assert self.refused(edited(table, 0, tag0=1)) == (
            "arrival decoded as tuple 0 but carries tag ('acc', 1)"
        )

    def test_a_wrong_parity_pulse(self):
        table = table_of(GRID, "t_i")
        assert self.refused(edited(table, 1, pulses=11)) == (
            "accumulator arrival at pulse 11 matches no tuple"
        )


class TestQuotientTable:
    def refused(self, table):
        return refusal(decode.quotient_bits, "and_row", table, DIVISION)

    def test_the_clean_table_decodes(self):
        table = table_of(DIVISION, "and_row")
        assert decode.quotient_bits(
            Tables(and_row=table), DIVISION.schedule, True
        ) == [True, True, False]

    def test_a_second_bit_in_one_row(self):
        table = table_of(DIVISION, "and_row")
        assert self.refused(edited(table, copy=record_of(table, 1))) == (
            "divisor row 1 produced 2 quotient bits, expected exactly 1"
        )

    def test_a_dropped_bit(self):
        table = table_of(DIVISION, "and_row")
        assert self.refused(edited(table, drop=record_of(table, 2))) == (
            "divisor row 2 produced 0 quotient bits, expected exactly 1"
        )

    def test_a_bit_on_the_wrong_pulse(self):
        table = table_of(DIVISION, "and_row")
        k = record_of(table, 2)
        expected = DIVISION.schedule.result_pulse(2)
        assert self.refused(edited(table, k, pulses=expected + 1)) == (
            f"divisor row 2 produced its quotient bit on pulse "
            f"{expected + 1}, expected {expected}"
        )
        # The first row that breaks either rule is the one reported.
        both = edited(edited(table, k, pulses=expected + 1),
                      copy=record_of(table, 1))
        assert self.refused(both) == (
            "divisor row 1 produced 2 quotient bits, expected exactly 1"
        )


class TestMissingEdges:
    """A run that lacks a decoder's edge is refused, not half-read."""

    @pytest.mark.parametrize("decoder, edge, plan", [
        (decode.pair_verdicts, "t_row", GRID),
        (decode.accumulator_bits, "t_i", GRID),
        (decode.quotient_bits, "and_row", DIVISION),
    ], ids=["t_row", "t_i", "and_row"])
    def test_each_decoder_names_the_missing_table(self, decoder, edge, plan):
        assert refusal(decoder, edge, None, plan) == (
            f"the run has no {edge!r} tap table"
        )
        # A real run of another array: its tables, but not this edge.
        other = PulseEngine().run(HexPlan(
            [[1, 2]], [[1, 2]], COMPARISON_SEMIRING, tagged=True
        ))
        with pytest.raises(SimulationError) as refused:
            decoder(other, plan.schedule, True)
        assert str(refused.value) == f"the run has no {edge!r} tap table"


# -- Token records become tables, or are refused ------------------------------


class TestTablesOf:
    def test_edge_taps_become_one_table_and_others_their_own(self):
        tables = tables_of({
            "t_row[1]": [(5, Token(True, ("t", 0, 1))),
                         (3, Token(False, ("t", 1, 0)))],
            "t_row[0]": [],
            "t_row[2]": [(4, Token(True, ("t", 0, 2)))],
            "c@1,-1": [(2, Token(False, ("t", 3, 3)))],
        })
        assert list(tables) == ["t_row", "c@1,-1"]
        row = tables["t_row"]
        assert row.width == 3 and row.tag_kind == "t"
        # Position by position, each in pulse order.
        assert row.positions.tolist() == [1, 1, 2]
        assert row.pulses.tolist() == [3, 5, 4]
        assert row.values.tolist() == [False, True, True]
        assert [column.tolist() for column in row.tag_indices] == [
            [1, 0, 0], [0, 1, 2],
        ]
        tap = tables["c@1,-1"]
        assert tap.width is None and tap.positions is None
        assert (tap.pulses.tolist(), tap.values.tolist()) == ([2], [False])

    def test_untagged_and_empty_edges(self):
        tables = tables_of({"t": [(0, Token(True))], "and_row[0]": []})
        assert tables["t"].tag_kind is None and tables["t"].tag_indices == ()
        empty = tables["and_row"]
        assert len(empty) == 0 and empty.width == 1

    @pytest.mark.parametrize("records, message", [
        ({"t_i": [(6, Token(1, ("acc", 0)))]},
         "tap 't_i' carries payload 1, not a bool"),
        ({"t_row[0]": [(3, Token(np.True_))]},
         f"tap 't_row[0]' carries payload {np.True_!r}, not a bool"),
        ({"t_row[0]": [(3, Token(True, ("t", 0, 0)))],
          "t_row[1]": [(4, Token(True, ("acc", 0)))]},
         "tap 't_row[1]' carries tag ('acc', 0) outside its edge's "
         "ghost-tag family (kind, length) ('t', 3)"),
        ({"t_row[0]": [(3, Token(True, ("t", 0, 0))),
                       (5, Token(True, ("t", 1)))]},
         "tap 't_row[0]' carries tag ('t', 1) outside its edge's "
         "ghost-tag family (kind, length) ('t', 3)"),
        ({"t": [(0, Token(True)), (1, Token(True, ("t", 0, 0)))]},
         "tap 't' carries tag ('t', 0, 0) outside its edge's ghost-tag "
         "family (kind, length) None"),
        ({"t": [(0, Token(True, ("t", 0, 0.0)))]},
         "tap 't' carries ('t', 0, 0.0), not a ghost tag"),
    ], ids=["int", "numpy-bool", "two-families", "two-lengths",
            "untagged-then-tagged", "float-index"])
    def test_refusals_name_the_tap(self, records, message):
        with pytest.raises(SimulationError) as refused:
            tables_of(records)
        assert str(refused.value) == message


def test_lattice_hex_tables_equal_the_pulse_networks():
    for tagged in (False, True):
        plan = HexPlan([[1, 2], [2, 2], [0, 1]], [[1, 2], [2, 0]],
                       COMPARISON_SEMIRING, tagged=tagged)
        pulse, lattice = (engine().run(plan).columnar
                          for engine in (PulseEngine, LatticeEngine))
        assert set(pulse) == set(plan.tap_names())
        assert read_out(lattice) == read_out(pulse)
        for table in pulse.values():
            assert (table.tag_kind == "c") is tagged
