"""The generators' output, pinned: every committed simulated figure and
every differential suite was measured on exactly this data.

One SHA-256 (first 16 hex digits) of ``repr`` of the ``.tuples`` a
generator returns, for each argument set × seed 0–4, recorded before
the generators stopped boxing rows into Python tuples.  A change to a
generator must reproduce every one — same RNG calls in the same order.
"""

import hashlib

import pytest

from repro.workloads import generators

DIGESTS = [
    ("random_relation", {"n": 0, "arity": 2}, [
        "b18a48f02566e615", "b18a48f02566e615", "b18a48f02566e615",
        "b18a48f02566e615", "b18a48f02566e615",
    ]),
    ("random_relation", {"n": 40, "arity": 3, "universe": 50}, [
        "367e79172cadfe7b", "2ddbddabb18948e3", "c7a660790db2f284",
        "b9a9632c749b67ab", "234cfbd199cef053",
    ]),
    ("random_relation", {"n": 30, "arity": 1, "universe": 32}, [
        "1de4e379ac643f30", "af7ca3f819ae104a", "960676eaa68caea6",
        "afca879cab78d7e2", "257bbd926d0edfc8",
    ]),
    ("random_relation", {"n": 200, "arity": 2, "universe": 15}, [
        "0ecb7c9e7d0f6f34", "be942056179d71f2", "a5b8d4627a4c03fd",
        "544ca8fa6fca41c8", "fdb229ed9a267030",
    ]),
    ("overlapping_pair", {"n_a": 0, "n_b": 0, "overlap": 0}, [
        "792bfceb41f6923c", "792bfceb41f6923c", "792bfceb41f6923c",
        "792bfceb41f6923c", "792bfceb41f6923c",
    ]),
    ("overlapping_pair", {"n_a": 30, "n_b": 20, "overlap": 7, "arity": 2, "universe": 40}, [
        "61fc88ccf00a59f2", "1fb99d71f6f26267", "472916aef1351295",
        "1d887094a5d1a09a", "df2b5ed1c4dee852",
    ]),
    ("overlapping_pair", {"n_a": 12, "n_b": 12, "overlap": 12, "arity": 3, "universe": 5}, [
        "38b2fbf363893077", "aafad89663453ad6", "5821a302220cffbd",
        "cde78454ab710d7f", "dbe2de62bc771660",
    ]),
    ("relation_with_duplicates", {"n_distinct": 0, "duplication": 2.0}, [
        "b18a48f02566e615", "b18a48f02566e615", "b18a48f02566e615",
        "b18a48f02566e615", "b18a48f02566e615",
    ]),
    ("relation_with_duplicates", {"n_distinct": 25, "duplication": 1.0}, [
        "0ea63d3d8903aa28", "550b4a999797163a", "68dcb30fecb0680c",
        "87c5b02aa9b05e82", "9f5220b147bc6dfb",
    ]),
    ("relation_with_duplicates", {"n_distinct": 25, "duplication": 2.6, "arity": 2, "universe": 12}, [
        "3d6717f25a265597", "799faab7e328d49c", "ca2797b9f6322d67",
        "d5d136c44da697ae", "d9554095763c7c86",
    ]),
    ("join_pair", {"n_a": 0, "n_b": 0, "matches": 0}, [
        "792bfceb41f6923c", "792bfceb41f6923c", "792bfceb41f6923c",
        "792bfceb41f6923c", "792bfceb41f6923c",
    ]),
    ("join_pair", {"n_a": 20, "n_b": 30, "matches": 9}, [
        "c24a194d9ceb4c5b", "55bb92328ecfcbf4", "9261343a54c647d6",
        "073377c0668980eb", "ce4f6fd27ecd6f87",
    ]),
    ("join_pair", {"n_a": 15, "n_b": 15, "matches": 15, "payload_arity": 1, "universe": 10}, [
        "6b0935ac34906f04", "a7e5d8dcd1ff81d2", "bd5337fbcbe41633",
        "370b1ca403091f2a", "a440c0a2694a88c3",
    ]),
    ("join_pair", {"n_a": 8, "n_b": 5, "matches": 0, "payload_arity": 0}, [
        "265388c7013a379d", "c48301250d496a64", "716b559fa3000c74",
        "eaa57ca7108a13cc", "289dd7ed1ed5386a",
    ]),
    ("division_workload", {"n_groups": 6, "divisor_size": 1, "full_coverage": 2}, [
        "fc821bc694371556", "939e93fb34f9c41e", "9ed321179dbdbe81",
        "51d06de744e48a14", "e72f0f81e9850926",
    ]),
    ("division_workload", {"n_groups": 12, "divisor_size": 5, "full_coverage": 4}, [
        "cec1eb766a4e6a3c", "f5ef95f1d26ab197", "529f97bfd5272acc",
        "8bf75288b29543d5", "db490d0a7803c3d8",
    ]),
    ("zipf_relation", {"n": 0}, [
        "b18a48f02566e615", "b18a48f02566e615", "b18a48f02566e615",
        "b18a48f02566e615", "b18a48f02566e615",
    ]),
    ("zipf_relation", {"n": 60, "arity": 2, "skew": 1.3, "universe": 20}, [
        "ebedfb6580c8416b", "3e3c50eddc22f193", "b37a2f94da515d87",
        "cb466c89c7e3d066", "a7bd2e50168202c2",
    ]),
    ("zipf_relation", {"n": 40, "arity": 3, "skew": 2.5, "universe": 4}, [
        "207a58be727159e5", "8218607a30108585", "d1eb67e3b86888cd",
        "42952389cdfffc1f", "96c0100a358cc715",
    ]),
    ("skewed_join_pair", {"n_a": 0, "n_b": 0}, [
        "792bfceb41f6923c", "792bfceb41f6923c", "792bfceb41f6923c",
        "792bfceb41f6923c", "792bfceb41f6923c",
    ]),
    ("skewed_join_pair", {"n_a": 40, "n_b": 25, "skew": 1.4, "key_universe": 6}, [
        "eedc39e23edeeefa", "b12b8a555bb666a4", "2e85bd9050a1b942",
        "43da18da52c16c49", "d5be6566ce07b5ef",
    ]),
    ("skewed_join_pair", {"n_a": 10, "n_b": 30, "skew": 3.0, "key_universe": 50}, [
        "ed48b22dd732115a", "fe4de637d63ceb85", "f3513f3c8db78083",
        "704239f49cf91c84", "dbf032926907afd1",
    ]),
]


def digest(result) -> str:
    parts = result if isinstance(result, tuple) else (result,)
    text = repr([p.tuples if hasattr(p, "tuples") else p for p in parts])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "name, case, recorded", DIGESTS,
    ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(DIGESTS)],
)
def test_generators_reproduce_the_recorded_data(name, case, recorded):
    generate = getattr(generators, name)
    assert [
        digest(generate(**case, seed=seed)) for seed in range(5)
    ] == recorded
