"""The join of two sets proves its output a set.

§6.2's retrieval concatenates ``a_i`` with the kept columns of ``b_j``
for each matched pair.  Over two relations no two such rows are equal
unless a pair repeats, and every engine hands its pairs back in
``(i, j)`` order from a blocked run and in exit order (``i + j``, then
``i``) from a whole-array one, so :func:`~repro.arrays.base.joined_rows`
proves the rows distinct in one pass over the pairs and skips the
duplicate search (``tests/conftest.py`` re-runs that search on every
proof anyway).  Pairs out of order or repeated, or a multi-relation
operand, prove nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.arrays.decomposition as decomposition
import repro.arrays.join as join_module
from repro.arrays import ArrayCapacity, blocked_join, systolic_join
from repro.arrays.base import joined_rows
from repro.relational import Domain, Relation, Schema, algebra
from repro.relational.relation import DistinctRows

DOMAIN = Domain("join-proof", values=range(8))
SCHEMA_A = Schema.of(("k", DOMAIN), ("x", DOMAIN))
SCHEMA_B = Schema.of(("k", DOMAIN), ("y", DOMAIN))

ENGINES = ("pulse", "lattice", "bitplane")
VARIANTS = ("counter", "fixed")

rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=7, unique=True
)


def _noting(patch, seen: list) -> None:
    """Note, for each retrieval the runners make, whether it came back
    proved."""

    def noting(*args):
        out = joined_rows(*args)
        seen.append(isinstance(out, DistinctRows))
        return out

    patch.setattr(join_module, "joined_rows", noting)
    patch.setattr(decomposition, "joined_rows", noting)


@settings(max_examples=50, deadline=None)
@given(a_rows=rows, b_rows=rows)
def test_every_engine_and_variant_proves_the_join_of_two_sets(
    a_rows, b_rows
):
    a, b = Relation(SCHEMA_A, a_rows), Relation(SCHEMA_B, b_rows)
    expected = algebra.join(a, b, [("k", "k")])
    seen: list[bool] = []
    with pytest.MonkeyPatch.context() as patch:
        _noting(patch, seen)
        for engine in ENGINES:
            for variant in VARIANTS:
                whole = systolic_join(
                    a, b, [("k", "k")], variant=variant, backend=engine
                )
                assert whole.relation == expected
                blocked, _ = blocked_join(
                    a, b, [("k", "k")], ArrayCapacity(max_rows=3, max_cols=1),
                    backend=engine, variant=variant,
                )
                assert blocked == expected
    # Every retrieval that ran (an empty operand runs none) was proved.
    assert all(seen)


def test_a_theta_join_keeping_both_compared_columns_is_proved(monkeypatch):
    seen: list[bool] = []
    _noting(monkeypatch, seen)
    a = Relation(SCHEMA_A, [(0, 1), (2, 3), (4, 5)])
    b = Relation(SCHEMA_B, [(1, 0), (3, 3), (5, 1)])
    on, ops = [("k", "k"), ("x", "y")], ["<", ">"]
    result, _ = blocked_join(
        a, b, on, ArrayCapacity(max_rows=2, max_cols=2), ops=ops,
        backend="lattice",
    )
    assert result == algebra.theta_join(a, b, on, ops) and len(result) > 1
    assert seen == [True]


class TestPairOrders:
    """Every ``k = 0`` row of A matches every one of B."""

    a = Relation(SCHEMA_A, [(0, 1), (0, 2), (0, 3)])
    b = Relation(SCHEMA_B, [(0, 4), (0, 5), (0, 6)])
    schema = algebra.join(a, b, [("k", "k")]).schema

    def _joined(self, pairs, a=None):
        match_i, match_j = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
        return joined_rows(
            self.a if a is None else a, self.b, match_i, match_j, (1,)
        )

    def test_pairs_in_row_order_are_proved(self):
        pairs = [(i, j) for i in range(3) for j in range(3)]
        assert isinstance(self._joined(pairs), DistinctRows)

    def test_pairs_in_exit_order_are_proved(self):
        pairs = sorted(
            ((i, j) for i in range(3) for j in range(3)),
            key=lambda pair: (sum(pair), pair[0]),
        )
        assert pairs[2:4] == [(1, 0), (0, 2)]  # not in row order
        assert isinstance(self._joined(pairs), DistinctRows)

    def test_no_pairs_are_proved(self):
        assert isinstance(self._joined([]), DistinctRows)

    def test_pairs_out_of_order_are_not(self):
        out = self._joined([(1, 0), (0, 0), (0, 1)])
        assert isinstance(out, np.ndarray)
        assert len(Relation(self.schema, out)) == 3

    def test_a_repeated_pair_is_not(self):
        out = self._joined([(0, 0), (0, 0), (2, 2)])
        assert isinstance(out, np.ndarray)
        # The relation constructor finds the repeat and keeps one.
        assert len(Relation(self.schema, out)) == 2

    def test_a_multi_relation_operand_is_not(self):
        out = self._joined([(0, 0), (1, 0)], a=self.a.to_multi())
        assert isinstance(out, np.ndarray)
