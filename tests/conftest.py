"""Shared fixtures: small schemas and relations used across test modules.

Also where every distinctness proof the suite ever claims is checked:
:func:`verify_every_distinctness_claim` runs around each test.

And where the suite's hypothesis profiles live.  ``tier1``, loaded by
default, derandomizes every ``@given`` test and keeps no example
database, so each run of a commit draws the same examples and a red run
reproduces.  ``explore`` draws fresh ones, more of them where a test
keeps hypothesis's default count; pick it, and a seed, with
hypothesis's own flags::

    pytest -m hypothesis --hypothesis-profile=explore --hypothesis-seed=N

A counterexample it finds is pinned with ``@example(...)`` on the test,
so tier-1 keeps it.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.relational import Domain, MultiRelation, Relation, Schema
from repro.relational.relation import DistinctRows, _first_occurrences

settings.register_profile(
    "tier1", derandomize=True, database=None, print_blob=True
)
settings.register_profile(
    "explore", max_examples=300, database=None, print_blob=True
)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def verify_every_distinctness_claim(monkeypatch):
    """Rows wrapped in ``DistinctRows`` skip the relation constructor's
    duplicate search; under test the constructor runs the search anyway
    and a claim that turns out false fails the test that made it."""

    def verified(self: DistinctRows):
        if _first_occurrences(self.matrix) is not None:
            raise AssertionError(
                "a DistinctRows claim is false: its rows repeat"
            )
        return self.matrix

    monkeypatch.setattr(DistinctRows, "trusted", verified)


@pytest.fixture
def int_domain() -> Domain:
    return Domain("d", values=range(100))


@pytest.fixture
def pair_schema(int_domain: Domain) -> Schema:
    return Schema.of(("x", int_domain), ("y", int_domain))


@pytest.fixture
def triple_schema(int_domain: Domain) -> Schema:
    return Schema.of(("x", int_domain), ("y", int_domain), ("z", int_domain))


@pytest.fixture
def small_pair(pair_schema: Schema) -> tuple[Relation, Relation]:
    """Two union-compatible relations with a known 2-tuple intersection."""
    a = Relation(pair_schema, [(1, 2), (3, 4), (5, 6), (7, 8)])
    b = Relation(pair_schema, [(3, 4), (9, 9), (7, 8)])
    return a, b


@pytest.fixture
def dup_multi(pair_schema: Schema) -> MultiRelation:
    """A multi-relation with duplicate groups {(1,1)×3, (2,2)×2, (3,3)×1}."""
    return MultiRelation(
        pair_schema, [(1, 1), (2, 2), (1, 1), (3, 3), (2, 2), (1, 1)]
    )
