"""Domains and the §2.3 integer dictionary encoding."""

import pytest

from repro.errors import DomainError
from repro.relational import Domain, IntegerDomain


class TestDomainEncoding:
    def test_codes_are_dense_in_first_seen_order(self):
        domain = Domain("d")
        assert domain.encode("apple") == 0
        assert domain.encode("pear") == 1
        assert domain.encode("apple") == 0  # idempotent

    def test_decode_inverts_encode(self):
        domain = Domain("d")
        values = ["x", 42, ("a", "b"), True]
        codes = [domain.encode(v) for v in values]
        assert [domain.decode(c) for c in codes] == values

    def test_initial_values_encoded_in_order(self):
        domain = Domain("d", values=["a", "b", "c"])
        assert domain.encode("c") == 2
        assert len(domain) == 3

    def test_decode_unknown_code_raises(self):
        domain = Domain("d", values=["only"])
        with pytest.raises(DomainError):
            domain.decode(5)

    def test_decode_rejects_non_int_codes(self):
        domain = Domain("d", values=["only"])
        with pytest.raises(DomainError):
            domain.decode(True)
        with pytest.raises(DomainError):
            domain.decode("0")

    def test_unhashable_value_rejected(self):
        domain = Domain("d")
        with pytest.raises(DomainError):
            domain.encode(["not", "hashable"])

    def test_encode_many_decode_many_roundtrip(self):
        domain = Domain("d")
        values = ["p", "q", "p", "r"]
        assert domain.decode_many(domain.encode_many(values)) == values


class TestWholeSequences:
    """``encode_many`` / ``decode_many`` / ``lookup_many`` check a whole
    sequence at once and must answer — values, codes assigned, errors
    raised — exactly as one ``encode`` / ``decode`` per item does."""

    MIXED = ["p", 1, None, 1.0, True, "p", 0.5, "", 2, None]

    @staticmethod
    def _one_by_one(call, items):
        try:
            return [call(item) for item in items]
        except DomainError as exc:
            return str(exc)

    @staticmethod
    def _at_once(call, items):
        try:
            return call(items)
        except DomainError as exc:
            return str(exc)

    @pytest.mark.parametrize("values", [
        MIXED, [], ["a"], iter(["a", "b", "a"]), ("x", "y"),
        ["a", ["unhashable"], "b"], ["a", {"k": 1}],
    ])
    def test_encode_many_equals_the_loop(self, values):
        values = list(values)
        loop, many = Domain("d", ["a"]), Domain("d", ["a"])
        assert self._at_once(many.encode_many, values) == self._one_by_one(
            loop.encode, values
        )
        assert list(many) == list(loop)  # incl. what a failure left

    def test_encode_many_on_a_frozen_domain(self):
        domain = Domain("d", ["a", "b"], frozen=True)
        assert domain.encode_many(["b", "a", "b"]) == [1, 0, 1]
        with pytest.raises(DomainError, match="'z' is not a member"):
            domain.encode_many(["b", "z", "y"])
        assert list(domain) == ["a", "b"]

    def test_lookup_many_assigns_nothing(self):
        domain = Domain("d", ["a", "b"])
        assert domain.lookup_many(["b", "new", "a", None]) == [
            1, None, 0, None,
        ]
        assert list(domain) == ["a", "b"]
        with pytest.raises(DomainError, match="hashable"):
            domain.lookup_many(["a", []])
        with pytest.raises(DomainError, match="frozen"):
            Domain("d", ["a", "b"], frozen=True).lookup_many(["a", "new"])
        assert domain.lookup_many(["b", "a"]) == [1, 0]

    @pytest.mark.parametrize("codes", [
        [0, 2, 1, 0], [], (1,), [0, 3], [-1, 0], [0, True], [0, 1.0],
        [0, "1"], [2**70],
    ])
    def test_decode_many_equals_the_loop(self, codes):
        domain = Domain("d", ["a", "b", "c"])
        assert self._at_once(domain.decode_many, codes) == self._one_by_one(
            domain.decode, codes
        )

    @pytest.mark.parametrize("items", [
        [3, 0, 2**70], [], [1, -1], [1, True], [1, 2.0], [1, "2"], [None],
    ])
    def test_integer_domain_equals_the_loops(self, items):
        domain = IntegerDomain("n")
        for many, one in (
            (domain.encode_many, domain.encode),
            (domain.lookup_many, domain.encode),
            (domain.decode_many, domain.decode),
        ):
            assert self._at_once(many, items) == self._one_by_one(one, items)


class TestFrozenDomain:
    def test_frozen_rejects_new_values(self):
        domain = Domain("d", values=["a"], frozen=True)
        assert domain.encode("a") == 0
        with pytest.raises(DomainError):
            domain.encode("b")


class TestDomainIdentity:
    def test_equality_is_by_name(self):
        assert Domain("same") == Domain("same")
        assert Domain("one") != Domain("two")

    def test_hashable_and_usable_in_sets(self):
        assert len({Domain("a"), Domain("a"), Domain("b")}) == 2

    def test_membership_and_len(self):
        domain = Domain("d", values=["a", "b"])
        assert "a" in domain
        assert "z" not in domain
        assert list(domain) == ["a", "b"]

    def test_empty_name_rejected(self):
        with pytest.raises(DomainError):
            Domain("")


class TestIntegerDomain:
    def test_identity_encoding(self):
        domain = IntegerDomain()
        assert domain.encode(17) == 17
        assert domain.decode(17) == 17

    def test_rejects_non_int_and_negative(self):
        domain = IntegerDomain()
        with pytest.raises(DomainError):
            domain.encode("17")
        with pytest.raises(DomainError):
            domain.encode(-1)
        with pytest.raises(DomainError):
            domain.encode(True)

    def test_unbounded_len_raises(self):
        with pytest.raises(DomainError):
            len(IntegerDomain())

    def test_membership(self):
        domain = IntegerDomain()
        assert 5 in domain
        assert -1 not in domain
        assert "x" not in domain

    def test_equal_to_plain_domain_with_same_name(self):
        # Identity is by name across the hierarchy (same underlying domain).
        assert IntegerDomain("shared") == Domain("shared")
