"""Synthetic workload generators for tests and benchmarks.

The paper's §8 performance analysis assumes relations of controlled
cardinality and tuple width; its operator sections exercise controlled
overlap (intersection selectivity), duplication factors (§5), join
selectivity (§6), and divisor coverage (§7).  These generators produce
exactly those shapes, deterministically from a seed, using numpy for
speed at benchmark scale.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ReproError
from repro.relational.domain import IntegerDomain
from repro.relational.relation import MultiRelation, Relation
from repro.relational.schema import Column, Schema

__all__ = [
    "integer_schema",
    "zipf_relation",
    "skewed_join_pair",
    "random_relation",
    "overlapping_pair",
    "relation_with_duplicates",
    "join_pair",
    "division_workload",
]

_SHARED_INT = IntegerDomain("int")


def integer_schema(arity: int, domain: Optional[IntegerDomain] = None) -> Schema:
    """An ``arity``-column schema over one shared integer domain."""
    if arity < 1:
        raise ReproError(f"arity must be >= 1, got {arity}")
    dom = domain or _SHARED_INT
    return Schema(Column(f"c{k}", dom) for k in range(arity))


def _unique_rows(
    rng: np.random.Generator, n: int, arity: int, universe: int
) -> np.ndarray:
    """``n`` distinct random tuples with entries in [0, universe), as
    an ``(n, arity)`` matrix."""
    if universe ** arity < n:
        raise ReproError(
            f"cannot draw {n} distinct tuples of arity {arity} from a "
            f"universe of {universe} values per column"
        )
    schema = integer_schema(arity)
    rows = np.empty((0, arity), dtype=np.int64)
    while len(rows) < n:
        batch = rng.integers(0, universe, size=(n, arity))
        # A relation keeps each row's first occurrence, in order.
        rows = Relation(schema, np.concatenate([rows, batch])).array[:n]
    return rows


def _shuffled(rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """``rows`` in the order ``rng.shuffle`` would leave a list of them
    (the same draws), without swapping matrix rows one by one."""
    return rows[rng.permutation(len(rows))]


def random_relation(
    n: int, arity: int, universe: int = 1000, seed: int = 0
) -> Relation:
    """A relation of ``n`` distinct uniform-random tuples."""
    schema = integer_schema(arity)
    if n == 0:
        return Relation(schema)
    rng = np.random.default_rng(seed)
    return Relation(schema, _unique_rows(rng, n, arity, universe))


def overlapping_pair(
    n_a: int,
    n_b: int,
    overlap: int,
    arity: int = 3,
    universe: int = 10_000,
    seed: int = 0,
) -> tuple[Relation, Relation]:
    """Two union-compatible relations sharing exactly ``overlap`` tuples.

    ``|A ∩ B| = overlap`` by construction — the intersection-array
    selectivity knob.
    """
    if overlap > min(n_a, n_b):
        raise ReproError(
            f"overlap {overlap} exceeds min cardinality {min(n_a, n_b)}"
        )
    schema = integer_schema(arity)
    rng = np.random.default_rng(seed)
    pool = _unique_rows(rng, n_a + n_b - overlap, arity, universe)
    a_rows = _shuffled(rng, pool[:n_a])  # the shared rows, then A's own
    b_rows = _shuffled(rng, np.concatenate([pool[:overlap], pool[n_a:]]))
    return Relation(schema, a_rows), Relation(schema, b_rows)


def relation_with_duplicates(
    n_distinct: int,
    duplication: float,
    arity: int = 3,
    universe: int = 10_000,
    seed: int = 0,
) -> MultiRelation:
    """A multi-relation with ``n_distinct`` tuples, each repeated ~``duplication``×.

    ``duplication`` >= 1.0 is the mean multiplicity (§5's dedup input).
    """
    if duplication < 1.0:
        raise ReproError(f"duplication factor must be >= 1.0, got {duplication}")
    schema = integer_schema(arity)
    if n_distinct == 0:
        return MultiRelation(schema)
    rng = np.random.default_rng(seed)
    rows = _unique_rows(rng, n_distinct, arity, universe)
    extra_total = round(n_distinct * (duplication - 1.0))
    if extra_total:
        picks = rng.integers(0, n_distinct, size=extra_total)
        rows = np.concatenate([rows, rows[picks]])
    return MultiRelation(schema, _shuffled(rng, rows))


def join_pair(
    n_a: int,
    n_b: int,
    matches: int,
    payload_arity: int = 2,
    universe: int = 10_000,
    seed: int = 0,
) -> tuple[Relation, Relation]:
    """Relations joinable on column 0 with ~``matches`` matching pairs.

    ``matches`` join-key values are shared one-to-one; the remaining
    keys on each side are disjoint, so the equi-join on column 0 has
    exactly ``matches`` result tuples.
    """
    if matches > min(n_a, n_b):
        raise ReproError(
            f"matches {matches} exceeds min cardinality {min(n_a, n_b)}"
        )
    key_domain = IntegerDomain("key")
    a_schema = Schema(
        [Column("key", key_domain)]
        + [Column(f"a{k}", _SHARED_INT) for k in range(payload_arity)]
    )
    b_schema = Schema(
        [Column("key", key_domain)]
        + [Column(f"b{k}", _SHARED_INT) for k in range(payload_arity)]
    )
    rng = np.random.default_rng(seed)
    total_keys = n_a + n_b - matches
    keys = rng.permutation(max(universe, total_keys))[:total_keys]

    def rows(side_keys: np.ndarray) -> np.ndarray:
        payload = rng.integers(
            0, universe, size=(len(side_keys), payload_arity)
        )
        return np.column_stack([side_keys, payload])

    a_rows = rows(keys[:n_a])  # the shared keys, then A's own
    b_rows = rows(np.concatenate([keys[:matches], keys[n_a:]]))
    # Both payloads are drawn before either side is shuffled.
    a_rows, b_rows = _shuffled(rng, a_rows), _shuffled(rng, b_rows)
    return Relation(a_schema, a_rows), Relation(b_schema, b_rows)


def division_workload(
    n_groups: int,
    divisor_size: int,
    full_coverage: int,
    seed: int = 0,
) -> tuple[Relation, Relation, int]:
    """A (dividend, divisor) pair with a known quotient size.

    ``full_coverage`` of the ``n_groups`` A₁ values are paired with
    every divisor element; the rest miss at least one.  Returns
    ``(A, B, expected_quotient_size)``.
    """
    if full_coverage > n_groups:
        raise ReproError(
            f"full_coverage {full_coverage} exceeds n_groups {n_groups}"
        )
    if divisor_size < 1:
        raise ReproError("the divisor needs at least one element")
    group_domain = IntegerDomain("group")
    value_domain = IntegerDomain("value")
    a_schema = Schema.of(("a1", group_domain), ("a2", value_domain))
    b_schema = Schema.of(("b1", value_domain))
    rng = np.random.default_rng(seed)
    divisor_values = list(range(divisor_size))
    rows: list[tuple[int, int]] = []
    for group in range(n_groups):
        if group < full_coverage:
            covered = divisor_values
        else:
            # Drop at least one required value; maybe add stray values.
            keep = rng.integers(0, divisor_size - 1) if divisor_size > 1 else 0
            covered = divisor_values[: int(keep)]
            if rng.random() < 0.5:
                covered = covered + [divisor_size + int(rng.integers(0, 5))]
        rows.extend((group, value) for value in covered)
    rng.shuffle(rows)
    # Groups whose rows were all dropped never appear in A, so they are
    # not candidates; the expected quotient is exactly the covered ones.
    a = Relation(a_schema, rows)
    b = Relation(b_schema, [(v,) for v in divisor_values])
    return a, b, full_coverage


def zipf_relation(
    n: int,
    arity: int = 2,
    skew: float = 1.5,
    universe: int = 1000,
    seed: int = 0,
) -> MultiRelation:
    """A multi-relation whose values follow a (truncated) Zipf law.

    Heavy skew concentrates values, producing many duplicate tuples —
    the §5 dedup stress case — and, used as a join column, the
    degenerate near-|A|·|B| join outputs §6.2 warns about.
    """
    if skew <= 1.0:
        raise ReproError(f"zipf skew must be > 1.0, got {skew}")
    schema = integer_schema(arity)
    if n == 0:
        return MultiRelation(schema)
    rng = np.random.default_rng(seed)
    # Rejection-free truncated zipf: sample and clip to the universe.
    raw = rng.zipf(skew, size=(n * 2, arity))
    clipped = raw[(raw <= universe).all(axis=1)][:n]
    while len(clipped) < n:
        extra = rng.zipf(skew, size=(n, arity))
        clipped = np.concatenate(
            [clipped, extra[(extra <= universe).all(axis=1)]]
        )[:n]
    return MultiRelation(schema, clipped - 1)


def skewed_join_pair(
    n_a: int,
    n_b: int,
    skew: float = 1.5,
    key_universe: int = 50,
    seed: int = 0,
) -> tuple[Relation, Relation]:
    """Join inputs whose keys are Zipf-distributed over a small universe.

    Hot keys appear on both sides many times, so the equi-join output
    grows toward the |A|·|B| degenerate bound (§6.2).  Payload columns
    keep the tuples distinct.
    """
    if skew <= 1.0:
        raise ReproError(f"zipf skew must be > 1.0, got {skew}")
    key_domain = IntegerDomain("key")
    a_schema = Schema(
        [Column("key", key_domain), Column("a_payload", _SHARED_INT)]
    )
    b_schema = Schema(
        [Column("key", key_domain), Column("b_payload", _SHARED_INT)]
    )
    rng = np.random.default_rng(seed)

    def rows(n: int) -> np.ndarray:
        raw = rng.zipf(skew, size=n * 3)
        usable = raw[raw <= key_universe][:n]
        while len(usable) < n:
            extra = rng.zipf(skew, size=n)
            usable = np.concatenate([usable, extra[extra <= key_universe]])[:n]
        return np.column_stack([usable - 1, np.arange(n)])

    return Relation(a_schema, rows(n_a)), Relation(b_schema, rows(n_b))
