"""The column-at-a-time wire codec against its row-at-a-time reference.

``relation_to_wire`` / ``relation_from_wire`` build and read a payload
a column at a time; the functions below are the loops they replaced,
one ``Domain.decode`` / ``Domain.encode`` call per value.  The contract
is *same bytes, same codes*: equal payloads; after decoding, equal
tuples, schemas and domain dictionaries (first-seen order), whatever
the mix of domains, value types and duplicates; and the same exception
class and message for everything the reference refuses.  Replies are
decoded through ``Domain.decode_array`` when every member is a 64-bit
int, so that path is held to ``decode_many`` too, down to the bytes of
a live server's reply line.  Above a crossover those decoded members
are written to JSON straight from their int64 matrix, so every line
``encode_line`` writes for a relation is held to ``json.dumps`` of the
reference payload, byte for byte.
"""

from __future__ import annotations

import copy
import json
import socket
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from repro.errors import ReproError
from repro.relational.domain import Domain, IntegerDomain
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
import repro.serve.protocol as protocol
from repro.serve import (
    ServiceClient,
    encode_line,
    relation_from_wire,
    relation_to_wire,
)
from repro.serve.protocol import ROWS_WRITER_MIN_ELEMENTS

CASES = settings(max_examples=60, deadline=None)
INT64_ENDS = [-(2**63), 2**63 - 1]


# -- the reference: today's loops, one value at a time -----------------------


def reference_to_wire(relation):
    schema = relation.schema
    return {
        "columns": [
            [name, domain.name]
            for name, domain in zip(schema.names, schema.domains)
        ],
        "rows": [list(row) for row in relation.decoded()],
    }


def reference_line(payload):
    """A message as the protocol has always written it."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def reference_from_wire(payload, registry):
    try:
        columns = payload["columns"]
        rows = payload["rows"]
    except (KeyError, TypeError):
        raise ReproError(
            "a wire relation needs 'columns' and 'rows'"
        ) from None
    specs = []
    for entry in columns:
        try:
            name, domain_name = entry
        except (ValueError, TypeError):
            raise ReproError(
                f"wire column must be [name, domain], got {entry!r}"
            ) from None
        domain = registry.get(domain_name)
        if domain is None:
            domain = registry.setdefault(domain_name, Domain(domain_name))
        specs.append(Column(str(name), domain))
    schema = Schema(specs)
    return Relation.from_values(schema, [tuple(row) for row in rows])


# -- helpers -----------------------------------------------------------------


def domain_state(registry):
    """What a tenant's registry holds: per domain its class and members
    in code order.  ``repr`` keeps ``1``, ``1.0`` and ``True`` apart."""
    return {
        name: (type(domain).__name__, domain.frozen,
               None if isinstance(domain, IntegerDomain)
               else [repr(v) for v in domain])
        for name, domain in registry.items()
    }


def outcome(call):
    """A call's result, or the class and message of what it raised."""
    try:
        return ("ok", call())
    except Exception as exc:  # the exception *is* the thing compared
        return ("raised", type(exc).__name__, str(exc))


def both_decoders(payload, registry):
    """Decode ``payload`` with the reference and the codec, each over
    its own copy of ``registry``; returns both outcomes and registries."""
    ref_registry, new_registry = copy.deepcopy(registry), copy.deepcopy(registry)
    ref = outcome(lambda: reference_from_wire(payload, ref_registry))
    new = outcome(lambda: relation_from_wire(payload, new_registry))
    return ref, new, ref_registry, new_registry


def assert_same_decoding(payload, registry=None):
    ref, new, ref_registry, new_registry = both_decoders(
        payload, registry or {}
    )
    assert ref[0] == new[0], (ref, new)
    if ref[0] == "raised":
        assert new == ref
    else:
        expected, got = ref[1], new[1]
        assert got.tuples == expected.tuples
        assert got.schema.names == expected.schema.names
        assert [d.name for d in got.schema.domains] == [
            d.name for d in expected.schema.domains
        ]
        assert domain_state(new_registry) == domain_state(ref_registry)
    return ref, new, new_registry


# JSON-representable values of every kind the protocol carries; small
# alphabets so that values repeat within and across columns.
VALUES = st.one_of(
    st.integers(min_value=-3, max_value=6),
    st.sampled_from(["a", "b", "", "ß"]),
    st.sampled_from([0.5, 1.0, 2.0, -0.0]),
    st.booleans(),
    st.none(),
)

#: columns → domain names: two or three columns may share one domain.
LAYOUTS = st.lists(
    st.sampled_from(["d0", "d1", "d2"]), min_size=1, max_size=4
)


@st.composite
def payloads(draw, values=VALUES):
    layout = draw(LAYOUTS)
    rows = draw(st.lists(
        st.lists(values, min_size=len(layout), max_size=len(layout)),
        max_size=12,
    ))
    if rows and draw(st.booleans()):  # duplicate rows: first one is kept
        rows = rows + [list(draw(st.sampled_from(rows)))]
    return {
        "columns": [[f"c{i}", name] for i, name in enumerate(layout)],
        "rows": rows,
    }


# -- decoding ----------------------------------------------------------------


class TestDecodeEquivalence:
    @CASES
    @given(first=payloads(), second=payloads())
    def test_dictionary_domains_mixed_values(self, first, second):
        """Two stores through one registry: codes assigned by the first
        are found by the second, new members extend in row-major
        first-seen order, across columns that share a domain."""
        _, _, registry = assert_same_decoding(first)
        assert_same_decoding(second, registry)

    @CASES
    @given(payload=payloads(st.integers(min_value=-1, max_value=2**40)),
           frozen=st.booleans())
    def test_integer_and_frozen_domains(self, payload, frozen):
        registry = {
            "d0": IntegerDomain("d0"),
            "d1": Domain("d1", [0, 1, 2], frozen=frozen),
        }
        assert_same_decoding(payload, registry)

    def test_duplicate_rows_keep_first_occurrence_and_order(self):
        payload = {
            "columns": [["x", "d"], ["y", "d"]],
            "rows": [["b", "a"], ["c", "b"], ["b", "a"], ["c", "c"],
                     ["c", "b"]],
        }
        _, new, registry = assert_same_decoding(payload)
        assert new[1].tuples == ((0, 1), (2, 0), (2, 2))
        # Row-major over the two columns; column by column gives b, c, a.
        assert list(registry["d"]) == ["b", "a", "c"]

    def test_empty_relation(self):
        payload = {"columns": [["x", "d"], ["y", "e"]], "rows": []}
        _, new, _ = assert_same_decoding(payload)
        assert len(new[1]) == 0 and new[1].schema.names == ("x", "y")

    @pytest.mark.parametrize("payload", [
        {"columns": [], "rows": []},                       # zero columns
        {"columns": [], "rows": [[]]},
        {"columns": [["x", "d"]]},                         # no rows key
        {"columns": [["x", "d"], ["x", "d"]], "rows": []}, # duplicate name
        {"columns": [["x"]], "rows": []},                  # bad column spec
        {"columns": [["x", "d"]], "rows": [[1], [1, 2]]},  # ragged
        {"columns": [["x", "d"]], "rows": [[1], []]},
        {"columns": [["x", "d"]], "rows": [[1], 7]},       # non-list rows
        {"columns": [["x", "d"]], "rows": [[1], None]},
        {"columns": [["x", "d"]], "rows": ["ab", "c"]},
        {"columns": [["x", "d"], ["y", "d"]], "rows": [[1, 2], "ab"]},
        {"columns": [["x", "d"]], "rows": [{"k": 1}]},
        {"columns": [["x", "d"]], "rows": None},
        {"columns": [["x", "d"]], "rows": "abc"},
        {"columns": [["x", "d"]], "rows": 3},
        {"columns": [["x", "d"]], "rows": {"a": 1}},
        {"columns": [["x", "d"]], "rows": [[[1, 2]]]},     # unhashable value
        {"columns": [["x", "d"], ["y", "e"]],
         "rows": [["a", "b"], ["c", {"k": 1}], ["d", "e"]]},
    ])
    def test_malformed_payloads_are_treated_alike(self, payload):
        """Most of these raise; a few the row loop happens to accept
        (a string is a row of characters).  Either way: the same."""
        assert_same_decoding(payload)

    @pytest.mark.parametrize("rows", [
        [[1], [-1], [2]],        # negative
        [[1], [True], [2]],      # bool
        [[1], [1.0], [2]],       # float
        [[1], ["1"], [2]],       # string
        [[1], [None], [2]],
    ])
    def test_integer_domain_refuses_alike(self, rows):
        payload = {"columns": [["x", "n"]], "rows": rows}
        ref, new, _ = assert_same_decoding(payload, {"n": IntegerDomain("n")})
        assert ref[0] == "raised" and ref[1] == "DomainError"

    def test_frozen_domain_still_refuses_new_values(self):
        registry = {"d": Domain("d", ["a", "b"], frozen=True)}
        known = {"columns": [["x", "d"]], "rows": [["b"], ["a"]]}
        _, new, _ = assert_same_decoding(known, registry)
        assert new[1].tuples == ((1,), (0,))
        fresh = {"columns": [["x", "d"]], "rows": [["b"], ["z"]]}
        ref, _, after = assert_same_decoding(fresh, registry)
        assert ref[:2] == ("raised", "DomainError")
        assert list(after["d"]) == ["a", "b"]

    def test_error_leaves_the_domains_as_the_reference_does(self):
        """Two domains, the offender in the second: the reference has
        extended both up to the bad row; the codec refuses before it
        changes anything and hands the rows to the same loop."""
        payload = {
            "columns": [["x", "d"], ["y", "e"]],
            "rows": [["a", 1], ["b", [2]], ["c", 3]],
        }
        ref, new, registry = assert_same_decoding(payload)
        assert ref[:2] == ("raised", "DomainError")
        assert list(registry["d"]) == ["a", "b"]
        assert list(registry["e"]) == [1]

    @pytest.mark.parametrize("wide", [2**63, 2**70])
    def test_an_integer_past_64_bits_is_refused_before_any_domain_changes(
        self, wide
    ):
        """An IntegerDomain's members are their codes, so one that does
        not fit a word cannot be stored.  The reference finds out in the
        constructor, its dictionary domains already extended; the codec
        refuses with every domain as it was."""
        registry = {"n": IntegerDomain("n"), "d": Domain("d", ["a"])}
        payload = {
            "columns": [["x", "d"], ["y", "n"]],
            "rows": [["new", 1], ["a", wide], ["newer", 2**71]],
        }
        ref, new, ref_registry, new_registry = both_decoders(payload, registry)
        assert ref[:2] == new[:2] == ("raised", "RelationError")
        assert new[2] == (
            f"stored elements must fit a signed 64-bit word; got element {wide}"
        )
        assert ref[2].startswith(new[2])
        assert domain_state(new_registry) == domain_state(registry)
        assert list(ref_registry["d"]) == ["a", "new", "newer"]

    def test_the_ends_of_the_word_cross_the_wire(self):
        registry = {"n": IntegerDomain("n")}
        payload = {"columns": [["x", "n"]], "rows": [[2**63 - 1], [0]]}
        _, new, _ = assert_same_decoding(payload, registry)
        assert new[1].tuples == ((2**63 - 1,), (0,))
        assert relation_to_wire(new[1])["rows"] == payload["rows"]
        # An IntegerDomain holds naturals: a negative is its DomainError
        # at any width, never an overflow.
        low = {"columns": [["x", "n"]], "rows": [[-(2**63) - 1]]}
        ref, _, _ = assert_same_decoding(low, registry)
        assert ref[:2] == ("raised", "DomainError")

    def test_fast_path_builds_a_matrix_not_tuples(self):
        payload = {"columns": [["x", "d"], ["y", "d"]],
                   "rows": [["a", "b"], ["b", "c"]]}
        relation = relation_from_wire(payload, {})
        assert "tuples" not in vars(relation)  # nothing was boxed
        assert relation.array.dtype == np.int64
        assert relation.array.tolist() == [[0, 1], [1, 2]]


# -- encoding ----------------------------------------------------------------


def _relations(payload, registry):
    """The decoded payload as a tuple-built and an array-built relation
    over the same schema."""
    built = reference_from_wire(payload, registry)
    return (
        Relation(built.schema, built.tuples),
        Relation(built.schema, np.array(
            built.tuples, dtype=np.int64
        ).reshape(len(built), len(built.schema))),
    )


class TestEncodeEquivalence:
    @CASES
    @given(payload=payloads())
    def test_dictionary_domains_either_form(self, payload):
        from_tuples, from_array = _relations(payload, {})
        for relation in (from_tuples, from_array):
            wire = relation_to_wire(relation)
            assert wire == reference_to_wire(relation)
            # == calls 1, 1.0 and True equal; the bytes do not.
            assert encode_line(wire) == encode_line(
                reference_to_wire(relation)
            )

    @CASES
    @given(payload=payloads(st.integers(min_value=0, max_value=2**40)))
    def test_integer_domains_either_form(self, payload):
        registry = {name: IntegerDomain(name) for name in ("d0", "d1", "d2")}
        for relation in _relations(payload, registry):
            assert encode_line(relation_to_wire(relation)) == encode_line(
                reference_to_wire(relation)
            )

    def test_encoding_never_converts_the_relation(self):
        """However it was built, a relation is sent from its matrix: no
        row is boxed into a tuple on the way."""
        for relation in _relations(
            {"columns": [["x", "d"], ["y", "e"]],
             "rows": [["a", 1], ["b", 2]]}, {},
        ):
            relation_to_wire(relation)
            assert "tuples" not in vars(relation)

    @pytest.mark.parametrize("rows", [
        [(0, 0), (1, 5), (2, 0)],    # code past the dictionary
        [(0, 0), (-1, 1), (7, 7)],   # negative first, in row order
        [(0, 9), (9, 0)],            # two columns, first row decides
    ])
    def test_code_outside_a_dictionary_domain_fails_alike(self, rows):
        domain = Domain("d", ["a", "b", "c"])
        schema = Schema.of(("x", domain), ("y", domain))
        for relation in (
            Relation(schema, rows),
            Relation(schema, np.array(rows, dtype=np.int64)),
        ):
            ref = outcome(lambda: reference_to_wire(relation))
            assert ref[:2] == ("raised", "DomainError")
            assert outcome(lambda: relation_to_wire(relation)) == ref

    def test_negative_code_in_an_integer_domain_fails_alike(self):
        schema = Schema.of(("x", IntegerDomain("n")), ("y", IntegerDomain("m")))
        relation = Relation(schema, np.array([[1, 2], [3, -4], [-5, 6]]))
        ref = outcome(lambda: reference_to_wire(relation))
        assert ref[:2] == ("raised", "DomainError") and "-4" in ref[2]
        assert outcome(lambda: relation_to_wire(relation)) == ref

    @CASES
    @given(payload=payloads(st.one_of(
        st.integers(min_value=-3, max_value=6), st.sampled_from(INT64_ENDS),
    )))
    def test_int_dictionary_domains_take_the_array_path(self, payload):
        for relation in _relations(payload, {}):
            assert all(
                domain.decode_array(relation.array[:, position]) is not None
                for position, domain in enumerate(relation.schema.domains)
            )
            assert encode_line(relation_to_wire(relation)) == encode_line(
                reference_to_wire(relation)
            )

    @pytest.mark.parametrize("rows", [
        [(0, 0), (1, 5), (2, 0)],
        [(0, 0), (-1, 1), (7, 7)],
        [(0, 9), (9, 0)],
    ])
    def test_code_outside_an_int_dictionary_fails_alike(self, rows):
        domain = Domain("d", [10, 20, 2**63 - 1])
        schema = Schema.of(("x", domain), ("y", domain))
        relation = Relation(schema, np.array(rows, dtype=np.int64))
        ref = outcome(lambda: reference_to_wire(relation))
        assert ref[:2] == ("raised", "DomainError")
        assert outcome(lambda: relation_to_wire(relation)) == ref


# -- decode_array: a column of codes at a time ---------------------------------


class TestDecodeArray:
    """``Domain.decode_array`` against ``decode_many``: the same members,
    or ``None`` wherever the reference would refuse or box a value that
    is not a 64-bit int."""

    @CASES
    @given(
        members=st.lists(st.one_of(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            st.sampled_from(INT64_ENDS),
        ), unique=True, max_size=8),
        codes=st.lists(st.integers(min_value=-2, max_value=9), max_size=12),
    )
    def test_int_members_decode_as_decode_many_does(self, members, codes):
        domain = Domain("d", members)
        got = domain.decode_array(np.array(codes, dtype=np.int64))
        ref = outcome(lambda: domain.decode_many(codes))
        if ref[0] == "raised":  # a code outside the dictionary
            assert got is None
        else:
            assert got.dtype == np.int64 and got.tolist() == ref[1]

    @pytest.mark.parametrize("odd", [
        "a", True, 1.5, None, 123456789012345678901234567890, 2**63,
        -(2**63) - 1,
    ])
    def test_a_member_that_is_not_a_64_bit_int_falls_back(self, odd):
        domain = Domain("d", [5, odd, 7])
        assert domain.decode_array(np.array([0, 2], dtype=np.int64)) is None
        schema = Schema.of(("x", domain), ("n", IntegerDomain("n")))
        relation = Relation(schema, np.array([[0, 3], [1, 4], [2, 5]]))
        assert encode_line(relation_to_wire(relation)) == encode_line(
            reference_to_wire(relation)
        )

    def test_members_appended_later_are_decoded(self):
        domain = Domain("d", [10, 20])
        codes = np.array([1, 0], dtype=np.int64)
        assert domain.decode_array(codes).tolist() == [20, 10]
        domain.encode(2**63 - 1)
        assert domain.decode_array(np.array([2, 0])).tolist() == [
            2**63 - 1, 10,
        ]
        domain.encode("x")
        assert domain.decode_array(codes) is None

    def test_an_integer_domain_is_the_identity_on_naturals(self):
        domain = IntegerDomain("n")
        codes = np.array([0, 2**63 - 1, 5], dtype=np.int64)
        assert domain.decode_array(codes) is codes
        assert domain.decode_array(np.array([3, -1])) is None
        assert domain.decode_array(np.array([], dtype=np.int64)).size == 0


# -- the rows writer: encode_line against json.dumps ---------------------------


#: Values of every width, the ends of the word and the limb edges.
INT64S = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from(INT64_ENDS + [
        0, -1, 9, 10, 9999, 10**4, -(10**4), 10**8 - 1, 10**8, 10**16,
        -(10**18),
    ]),
    st.integers(min_value=-20_000, max_value=20_000),
)

#: Members no int64 matrix can hold: the relation takes the fallback.
NOT_INT64 = st.sampled_from([
    "a", "ß\"\n", 1.5, -0.0, True, None, 2**63, -(2**63) - 1, 2**70,
])


@st.composite
def int_matrices(draw):
    """An int64 matrix of 1-8 columns whose size (rows × arity) lands on
    either side of the crossover: a few drawn values, and from a seeded
    generator, values of every decimal width up to 19 digits."""
    arity = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.integers(
        min_value=0, max_value=2 * ROWS_WRITER_MIN_ELEMENTS // arity + 2,
    ))
    values = np.array(draw(st.lists(INT64S, min_size=1, max_size=12)),
                      dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bound = 10 ** rng.integers(0, 19, size=(rows, arity))
    spread = rng.integers(-bound, bound)
    chosen = rng.choice(values, size=(rows, arity))
    return np.where(rng.random((rows, arity)) < 0.5, chosen, spread)


def relation_of(matrix, kinds, odd=()):
    """A relation whose decoded members are ``matrix``: an
    ``IntegerDomain`` column (``"n"``; negatives flipped to ``~v``) holds
    its values as codes, a dictionary column (``"d"``) holds indexes into
    its members.  ``odd`` (one member, in a tuple) adds a dictionary
    column with that member too, which sends the relation down the
    value-by-value path."""
    columns, codes = [], []
    for position, kind in enumerate(kinds):
        column = matrix[:, position]
        if kind == "n":
            column = np.where(column < 0, ~column, column)
            columns.append((f"c{position}", IntegerDomain(f"n{position}")))
            codes.append(column)
        else:
            members, index = np.unique(column, return_inverse=True)
            members = members.tolist()[::-1]  # codes not in value order
            columns.append((f"c{position}", Domain(f"d{position}", members)))
            codes.append(len(members) - 1 - index.reshape(-1))
    if odd:
        columns.append(("odd", Domain("odd", [7, *odd])))
        codes.append(np.arange(len(matrix)) % 2)
    schema = Schema.of(*columns)
    return Relation(schema, np.stack(codes, axis=1).reshape(
        len(matrix), len(columns)
    ))


def assert_lines_are_the_reference(relation):
    """A query reply and a placed, persisted store request, as the
    server and the client build them; returns whether the rows writer
    wrote the relation."""
    sent = []
    client = ServiceClient("localhost", 0)
    client._request = lambda payload: sent.append(payload) or {}
    client.store("R", relation, key="c0", persist=True)
    client.preload("P", relation, replicate=True)
    reply = {"ok": True, "relation": relation, "rows": len(relation),
             "makespan_ms": 0.125}
    with mock.patch.object(
        protocol, "_rows_json", wraps=protocol._rows_json
    ) as writer:
        for payload in (reply, *sent):
            assert isinstance(payload["relation"], Relation)
            assert encode_line(payload) == reference_line(
                {**payload, "relation": reference_to_wire(relation)}
            )
    assert [list(payload) for payload in sent] == [
        ["op", "name", "relation", "key", "persist"],
        ["op", "name", "relation", "replicate"],
    ]
    return writer.call_count > 0


class TestRowsWriter:
    @CASES
    @given(
        matrix=int_matrices(),
        kinds=st.lists(st.sampled_from("nd"), min_size=8, max_size=8),
    )
    @example(  # both ends of the word, past the crossover
        matrix=np.array(
            [[-(2**63) + i, 2**63 - 1 - i] * 4 for i in range(40)],
            dtype=np.int64,
        ),
        kinds=["d"] * 8,
    )
    def test_int_members_are_written_as_json_dumps_writes_them(
        self, matrix, kinds
    ):
        """Columns of ``IntegerDomain`` (``n``) or int dictionary (``d``)
        domains, the first ``arity`` of ``kinds``."""
        relation = relation_of(matrix, kinds[:matrix.shape[1]])
        wrote = assert_lines_are_the_reference(relation)
        event("rows writer" if wrote else "boxed")
        assert wrote == (relation.array.size >= ROWS_WRITER_MIN_ELEMENTS)

    @CASES
    @given(matrix=int_matrices(), odd=NOT_INT64)
    def test_a_member_that_is_not_a_64_bit_int_takes_the_fallback(
        self, matrix, odd
    ):
        relation = relation_of(matrix, "d" * matrix.shape[1], odd=(odd,))
        assert not assert_lines_are_the_reference(relation)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_both_sides_of_the_crossover(self, extra):
        rows = ROWS_WRITER_MIN_ELEMENTS // 2 + extra
        matrix = np.arange(2 * rows, dtype=np.int64).reshape(rows, 2)
        matrix[::3] *= -(10**15) - 7
        for kinds in ("nn", "dd", "nd"):
            relation = relation_of(matrix, kinds)
            assert assert_lines_are_the_reference(relation) == (
                2 * rows >= ROWS_WRITER_MIN_ELEMENTS
            )

    def test_a_code_outside_the_dictionary_fails_as_before(self):
        domain = Domain("d", [10, 20, 30])
        schema = Schema.of(("x", domain), ("n", IntegerDomain("n")))
        rows = np.stack([np.arange(200) % 3, np.arange(200)], axis=1)
        rows[150, 0] = 3
        relation = Relation(schema, rows)
        ref = outcome(lambda: reference_to_wire(relation))
        assert ref[:2] == ("raised", "DomainError")
        assert outcome(
            lambda: encode_line({"ok": True, "relation": relation})
        ) == ref


class TestLiveReply:
    def test_a_query_reply_line_is_the_reference_payload_encoded(
        self, monkeypatch
    ):
        """Byte for byte, over a socket: an all-int reply past the rows
        writer's crossover (the writer), a small one (boxed) and a
        mixed one (the fallback)."""
        import repro.serve.server as server_module

        from .test_serve import _ServerHarness

        replied = []
        encode = server_module.encode_line

        def capturing(payload):
            if isinstance(payload.get("relation"), Relation):
                replied.append(payload["relation"])
            return encode(payload)

        monkeypatch.setattr(server_module, "encode_line", capturing)
        ints = Schema.of(("a", IntegerDomain("a")), ("b", Domain("b")))
        mixed = Schema.of(("k", Domain("k")), ("v", Domain("v")))
        sent = {
            "WIDE": Relation.from_values(
                ints, [(i, -(2**63) + 7 * i) for i in range(300)]
            ),
            "INTS": Relation.from_values(
                ints, [(i, 2**63 - 1 - i) for i in range(20)]
            ),
            "MIXED": Relation.from_values(
                mixed,
                [(i, f"s{i}") for i in range(10)]
                + [("x", 1.5), (123456789012345678901234567890, "y")],
            ),
        }
        with _ServerHarness() as harness:
            with ServiceClient(*harness.address) as db:
                for name, relation in sent.items():
                    db.store(name, relation)
            sock = socket.create_connection(harness.address, timeout=30.0)
            with sock, sock.makefile("rb") as reader:
                for name in sent:
                    sock.sendall(encode_line(
                        {"op": "query", "expr": f"dedup({name})"}
                    ))
                    line = reader.readline()
                    reply = json.loads(line)
                    assert line == reference_line({
                        "ok": True,
                        "relation": reference_to_wire(replied[-1]),
                        "rows": reply["rows"],
                        "makespan_ms": reply["makespan_ms"],
                    })
                    assert reply["rows"] == len(sent[name])
        fast = [
            all(
                domain.decode_array(relation.array[:, position]) is not None
                for position, domain in enumerate(relation.schema.domains)
            )
            for relation in replied
        ]
        assert fast == [True, True, False]
        assert [relation.array.size >= ROWS_WRITER_MIN_ELEMENTS
                for relation in replied] == [True, False, False]
