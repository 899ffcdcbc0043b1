"""``DistinctRows``: the package-internal proof that rows are a set."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RelationError
from repro.relational import MultiRelation, Relation
from repro.relational.relation import DistinctRows, select_rows


def test_a_relation_takes_proved_rows_as_they_are(pair_schema):
    matrix = np.array([[1, 2], [3, 4]], dtype=np.int64)
    relation = Relation(pair_schema, DistinctRows(matrix))
    assert relation.tuples == ((1, 2), (3, 4))
    assert np.shares_memory(relation.array, matrix)
    assert not relation.array.flags.writeable


def test_shape_and_dtype_are_still_checked(pair_schema):
    with pytest.raises(RelationError, match="shape"):
        Relation(pair_schema, DistinctRows(np.arange(6).reshape(2, 3)))
    with pytest.raises(RelationError, match="int64"):
        Relation(
            pair_schema,
            DistinctRows(np.arange(4, dtype=np.int32).reshape(2, 2)),
        )


def test_a_false_proof_is_caught_by_the_suite(pair_schema):
    """The autouse fixture in ``tests/conftest.py`` re-runs the duplicate
    search on every claim; outside the tests this relation would hold
    the same row twice."""
    forged = DistinctRows(np.array([[1, 2], [3, 4], [1, 2]], dtype=np.int64))
    with pytest.raises(AssertionError, match="claim is false"):
        Relation(pair_schema, forged)


def test_a_subset_is_a_boolean_mask_over_a_relation(small_pair, dup_multi):
    a, _ = small_pair
    mask = np.array([True, False, True, False])
    assert Relation(a.schema, DistinctRows.where(a, mask)).tuples == (
        (1, 2), (5, 6),
    )
    # An index can repeat a row; a multi-relation already does.
    with pytest.raises(TypeError, match="boolean mask over a Relation"):
        DistinctRows.where(a, np.array([0, 0, 1]))
    with pytest.raises(TypeError, match="boolean mask over a Relation"):
        DistinctRows.where(dup_multi, np.ones(6, dtype=bool))


def test_outside_rows_are_verified_as_before(pair_schema):
    repeats = np.array([[1, 2], [1, 2], [3, 4]], dtype=np.int64)
    assert Relation(pair_schema, repeats).tuples == ((1, 2), (3, 4))
    assert Relation(pair_schema, repeats.tolist()).tuples == ((1, 2), (3, 4))
    assert len(MultiRelation(pair_schema, repeats)) == 3


def test_select_rows_carries_the_proof(small_pair, monkeypatch):
    a, _ = small_pair
    claims = []
    trusted = DistinctRows.trusted
    monkeypatch.setattr(
        DistinctRows, "trusted",
        lambda self: claims.append(self) or trusted(self),
    )
    assert select_rows(a, "x", ">", 3).tuples == ((5, 6), (7, 8))
    assert len(claims) == 1
