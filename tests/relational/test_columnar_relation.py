"""The columnar form of a relation: ``Relation(schema, ndarray)``.

An array-built relation must be indistinguishable from its tuple-built
twin through every public observer, must keep every check the tuple
path makes (set semantics, integer elements, arity), and must not box a
single tuple on the way from the store to a machine result.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import ArrayCapacity, blocked_intersection
from repro.errors import RelationError
from repro.machine import (
    Base,
    MachineDisk,
    Select,
    SystolicDatabaseMachine,
)
from repro.relational import Domain, MultiRelation, Relation, Schema, algebra
from repro.relational import relation as relation_module
from repro.relational.domain import IntegerDomain
from repro.store import RelationStore

_INT = IntegerDomain("int")
_PAIR = Schema.of(("x", _INT), ("y", _INT))
_TRIPLE = Schema.of(("s", _INT), ("p", _INT), ("qty", _INT))

INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1

small = st.integers(-3, 3)
extreme = st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX])
#: few distinct values (so duplicates are common) mixed with the int64
#: ends (so the packed key does not fit and the lexsort path runs too).
pair_rows = st.lists(
    st.tuples(small | extreme, small | extreme), max_size=24
)


def as_array(rows, arity=2) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(len(rows), arity)


class TestArrayBuiltEqualsTupleBuilt:
    @settings(max_examples=200, deadline=None)
    @given(rows=pair_rows)
    def test_relation(self, rows):
        built = Relation(_PAIR, as_array(rows))
        twin = Relation(_PAIR, rows)
        assert built.tuples == twin.tuples  # order, first occurrence wins
        assert built.tuples == tuple(dict.fromkeys(rows))
        assert len(built) == len(twin) == built.cardinality
        assert bool(built) == bool(twin)
        assert built == twin and twin == built
        assert hash(built) == hash(twin)
        assert list(built) == list(twin)
        if all(e >= 0 for row in rows for e in row):  # codes are naturals
            assert built.decoded() == twin.decoded()
        assert built.column_values("y") == twin.column_values("y")
        assert np.array_equal(built.array, twin.array)
        for row in rows:
            assert built.contains(row) and row in built
        assert not built.contains((7, 7)) and (7, 7) not in built

    @settings(max_examples=100, deadline=None)
    @given(rows=pair_rows)
    def test_multi_relation_keeps_duplicates(self, rows):
        built = MultiRelation(_PAIR, as_array(rows))
        twin = MultiRelation(_PAIR, rows)
        assert built.tuples == twin.tuples == tuple(rows)
        assert built == twin and hash(built) == hash(twin)
        assert built.distinct().tuples == twin.distinct().tuples
        assert built.concat(built).tuples == tuple(rows) * 2
        assert built.concat(twin).tuples == tuple(rows) * 2

    @settings(max_examples=100, deadline=None)
    @given(rows=pair_rows, other=pair_rows)
    def test_set_operators_and_round_trips(self, rows, other):
        a, b = Relation(_PAIR, as_array(rows)), Relation(_PAIR, other)
        assert (a & b) == algebra.intersection(Relation(_PAIR, rows), b)
        assert (a <= b) == (set(rows) <= set(other))
        assert a.to_multi().distinct().tuples == a.tuples
        assert Relation(_PAIR, a.array).tuples == a.tuples
        assert Relation(_PAIR, b.array).tuples == b.tuples

    def test_decoded_goes_through_the_domains(self):
        colour = Domain("colour", ["red", "green", "blue"])
        schema = Schema.of(("c", colour), ("n", _INT))
        built = Relation(schema, as_array([(2, 5), (0, 6), (2, 5)]))
        assert built.decoded() == [("blue", 5), ("red", 6)]

    def test_a_large_relation_with_one_late_duplicate(self):
        rng = np.random.default_rng(3)
        rows = np.stack(
            [rng.integers(0, 50, 5000), rng.integers(0, 50, 5000),
             np.arange(5000)], axis=1,
        )
        rows[4321] = rows[17]
        built = Relation(_TRIPLE, rows)
        assert len(built) == 4999
        expected = np.delete(rows, 4321, axis=0)
        assert np.array_equal(built.array, expected)

    def test_tuples_are_boxed_block_by_block_in_order(self):
        """Longer than a few boxing blocks, and not a multiple of one."""
        rows = np.stack(
            [np.arange(10_001) % 97, np.arange(10_001) % 89,
             np.arange(10_001)], axis=1,
        )
        built = Relation(_TRIPLE, rows)
        assert built.tuples == tuple(map(tuple, rows.tolist()))
        assert set(map(type, built.tuples[-1])) == {int}


class TestChecksSurvive:
    @pytest.mark.parametrize("rows", [
        np.zeros((3, 2), dtype=np.int32),
        np.zeros((3, 2), dtype=np.uint64),
        np.zeros((3, 2), dtype=np.float64),
        np.zeros((3, 2), dtype=bool),
        np.zeros((3, 3), dtype=np.int64),      # wrong arity
        np.zeros(6, dtype=np.int64),           # not a matrix
        np.zeros((3, 2, 1), dtype=np.int64),
        np.array([[True, 1], [2, 3]], dtype=object),
        np.array([[1.5, 1], [2, 3]], dtype=object),
    ])
    def test_wrong_arrays_are_refused(self, rows):
        for cls in (Relation, MultiRelation):
            with pytest.raises(RelationError):
                cls(_PAIR, rows)

    def test_array_is_read_only_either_way(self):
        source = as_array([(1, 2), (3, 4)])
        for relation in (Relation(_PAIR, source),
                         Relation(_PAIR, [(1, 2), (3, 4)])):
            assert not relation.array.flags.writeable
            with pytest.raises(ValueError):
                relation.array[0, 0] = 9
        assert source.flags.writeable  # the caller's own handle is untouched

    def test_empty(self):
        built = Relation(_PAIR, np.empty((0, 2), dtype=np.int64))
        assert len(built) == 0 and not built and built.tuples == ()
        assert built == Relation(_PAIR)
        assert Relation(_PAIR).array.shape == (0, 2)
        assert Relation(_PAIR).array.dtype == np.int64


class TestOneStoredForm:
    """Tuples, a generator of tuples and a matrix build the same
    relation: one int64 matrix, every other observer derived from it."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), arity=st.integers(1, 4))
    def test_every_way_in_builds_the_same_relation(self, data, arity):
        # three values a column: duplicates are common at every arity
        rows = data.draw(st.lists(
            st.tuples(*[st.integers(0, 2) | extreme] * arity), max_size=20
        ))
        schema = Schema.of(*[(f"c{k}", _INT) for k in range(arity)])
        for cls, kept in (
            (Relation, tuple(dict.fromkeys(rows))),
            (MultiRelation, tuple(rows)),
        ):
            built = [
                cls(schema, rows),
                cls(schema, iter(rows)),
                cls(schema, (list(row) for row in rows)),
                cls(schema, as_array(rows, arity)),
            ]
            for relation in built:
                assert relation.tuples == kept
                assert relation.array.dtype == np.int64
                assert relation.array.shape == (len(kept), arity)
                assert relation.array.tolist() == [list(r) for r in kept]
                assert len(relation) == len(kept)
                assert relation == built[0] and built[0] == relation
                assert hash(relation) == hash(built[0])
                assert all(row in relation for row in rows)
                assert (7,) * arity not in relation

    def test_the_matrix_is_the_only_thing_a_new_relation_holds(self):
        for rows in ([(1, 2), (3, 4)], as_array([(1, 2), (3, 4)])):
            held = vars(Relation(_PAIR, rows))
            assert sorted(held) == ["_array", "schema"]
            assert isinstance(held["_array"], np.ndarray)


_OUT_OF_RANGE = [2 ** 63, -(2 ** 63) - 1, 2 ** 70]


class TestOutOfRangeIsRefused:
    """An element outside a signed 64-bit word never gets into a
    relation: each door names it in a ``RelationError``."""

    @pytest.mark.parametrize("wide", _OUT_OF_RANGE)
    @pytest.mark.parametrize("door", [
        lambda rows: rows,
        lambda rows: iter(rows),
        lambda rows: np.array(rows, dtype=object),
    ], ids=["tuples", "generator", "object-ndarray"])
    def test_constructor(self, door, wide):
        rows = [(1, 2), (3, wide), (2 ** 71, 4)]
        for cls in (Relation, MultiRelation):
            with pytest.raises(RelationError) as refusal:
                cls(_PAIR, door(rows))
            assert str(refusal.value) == (
                f"stored elements must fit a signed 64-bit word; "
                f"got element {wide} in (3, {wide})"
            )

    @pytest.mark.parametrize("wide", [2 ** 63, 2 ** 70])
    def test_from_values_over_an_integer_domain(self, wide):
        with pytest.raises(RelationError, match=f"got element {wide} in"):
            Relation.from_values(_PAIR, [(1, 2), (wide, 3)])

    def test_the_ends_of_the_word_are_accepted(self):
        rows = [(INT64_MAX, INT64_MIN), (INT64_MIN, INT64_MAX)]
        for relation in (
            Relation(_PAIR, rows), Relation(_PAIR, iter(rows)),
            Relation(_PAIR, np.array(rows, dtype=object)),
        ):
            assert relation.tuples == tuple(rows)
            assert relation.array.dtype == np.int64

    def test_the_first_offender_in_row_order_is_named(self):
        with pytest.raises(RelationError, match="got element 'x' in"):
            Relation(_PAIR, [(1, "x"), (2 ** 70, 1)])
        with pytest.raises(RelationError, match="must fit a signed 64-bit"):
            Relation(_PAIR, [(2 ** 70, 1), (1, "x")])


class TestErrorTexts:
    """What the constructor says about a bad row, word for word."""

    @pytest.mark.parametrize("rows, message", [
        ([(1, 2), (1, 2, 3)],
         "tuple arity 3 does not match schema arity 2: (1, 2, 3)"),
        ([(1, 2), (3,)],
         "tuple arity 1 does not match schema arity 2: (3,)"),
        ([(1, True)],
         "stored tuples are integer-encoded; got element True in (1, True)"),
        ([(1, 2.0)],
         "stored tuples are integer-encoded; got element 2.0 in (1, 2.0)"),
        ([(np.int64(1), 2)],
         "stored tuples are integer-encoded; got element np.int64(1) in "
         "(np.int64(1), 2)"),
        ([(1, 2), (1, None)],
         "stored tuples are integer-encoded; got element None in (1, None)"),
    ], ids=["long-row", "short-row", "bool", "float", "np.int64", "None"])
    def test_constructor(self, rows, message):
        for cls in (Relation, MultiRelation):
            for door in (list, iter):
                with pytest.raises(RelationError) as refusal:
                    cls(_PAIR, door(rows))
                assert str(refusal.value) == message


class TestSharedAcrossThreads:
    def test_eight_threads_hammer_one_columnar_relation(self):
        """The lazy caches are compute-then-assign: whichever thread
        fills one, every thread reads a finished value."""
        rng = np.random.default_rng(11)
        rows = np.stack(
            [rng.integers(0, 40, 4000), rng.integers(0, 40, 4000)], axis=1
        )
        twin = Relation(_PAIR, [tuple(r) for r in rows.tolist()])
        expected = (twin.tuples, len(twin), hash(twin))
        probe = twin.tuples[len(twin) // 2]
        failures: list[str] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = Relation(_PAIR, rows)
                start = threading.Barrier(8)

                def hammer(which: int) -> None:
                    # The eight threads are started together just below,
                    # so the barrier fills in milliseconds; 10 s only
                    # turns a lost thread into an error, not a hang.
                    start.wait(timeout=10)
                    # Each thread touches the caches in its own order.
                    looks = [
                        lambda: shared.tuples == expected[0],
                        lambda: shared == twin,
                        lambda: hash(shared) == expected[2],
                        lambda: shared.contains(probe) and probe in shared,
                        lambda: len(list(shared)) == expected[1],
                        lambda: np.array_equal(shared.array, twin.array),
                        lambda: shared.to_multi().distinct() == twin,
                    ]
                    for k in range(len(looks)):
                        if not looks[(k + which) % len(looks)]():
                            failures.append(f"thread {which}, look {k}")

                threads = [
                    threading.Thread(target=hammer, args=(i,))
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    # A hang guard: each thread does a few cache reads,
                    # milliseconds of work; the assert below names a hang.
                    thread.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


class TestNoTupleIsBoxed:
    """Store → disk → CPU → device without materializing a tuple."""

    @pytest.fixture
    def no_boxing(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a columnar relation was boxed into tuples")

        monkeypatch.setattr(
            relation_module._TupleStore, "tuples", property(refuse)
        )

    @pytest.fixture
    def stored(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = np.stack(
            [rng.integers(0, 20, 2000), rng.integers(0, 30, 2000),
             np.arange(2000)], axis=1,
        )
        store = RelationStore(tmp_path)
        store.write_array(
            "SP", rows, _TRIPLE, chunk_rows=250, index_columns=("s", "p")
        )
        return store, rows

    @pytest.mark.parametrize("selection", [
        None, ("s", "==", 7), ("p", "<", 4),
    ], ids=["full", "eq", "range"])
    def test_stored_relation_read(self, no_boxing, stored, selection):
        store, rows = stored
        scan = store.open("SP").read(selection)
        expected = rows
        if selection is not None:
            column, op, value = selection
            position = _TRIPLE.resolve(column)
            mask = (rows[:, position] == value if op == "=="
                    else rows[:, position] < value)
            expected = rows[mask]
        assert len(scan.relation) == len(expected) > 0
        got = scan.relation.array
        order = np.lexsort(got.T[::-1])
        want = np.lexsort(expected.T[::-1])
        assert np.array_equal(got[order], expected[want])

    def test_store_backed_machine_select(self, no_boxing, stored):
        store, rows = stored
        machine = SystolicDatabaseMachine(backend="lattice")
        machine.attach_store(store)
        probe = Select(Base("SP"), column="s", op="==", value=7)
        relation, report = machine.run(
            Select(probe, column="p", op="<", value=15)
        )
        expected = rows[(rows[:, 0] == 7) & (rows[:, 1] < 15)]
        assert len(relation) == len(expected) > 0
        assert set(relation.array[:, 2].tolist()) == set(
            expected[:, 2].tolist()
        )
        assert report.makespan > 0

    def test_logic_per_track_select_and_round_trip(self, no_boxing, stored):
        store, rows = stored
        machine = SystolicDatabaseMachine(
            backend="lattice", disk=MachineDisk(logic_per_track=True)
        )
        machine.store("SP", Relation(_TRIPLE, rows))
        relation, _ = machine.run(
            Select(Base("SP"), column="p", op=">=", value=25)
        )
        assert np.array_equal(relation.array, rows[rows[:, 1] >= 25])
        store.write("BACK", relation, chunk_rows=100)
        assert store.open("BACK").rows == len(relation)

    def test_blocked_intersection(self, no_boxing):
        rng = np.random.default_rng(9)
        a_rows = np.unique(rng.integers(0, 12, (60, 2)), axis=0)
        b_rows = np.unique(rng.integers(0, 12, (40, 2)), axis=0)
        a, b = Relation(_PAIR, a_rows), Relation(_PAIR, b_rows)
        common, report = blocked_intersection(
            a, b, ArrayCapacity(max_rows=15, max_cols=1), backend="lattice"
        )
        members = {tuple(r) for r in b_rows.tolist()}
        keep = [tuple(r) in members for r in a_rows.tolist()]
        assert np.array_equal(common.array, a_rows[keep])
        assert report.block_runs > 1
