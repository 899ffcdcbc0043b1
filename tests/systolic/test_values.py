"""Tokens, the explicit null, and ghost tags."""

from repro.systolic.values import NULL_VALUE, Token


class TestToken:
    def test_frozen_and_hashable(self):
        assert Token(1, "a") == Token(1, "a")
        assert len({Token(1), Token(1), Token(2)}) == 2

    def test_repr_with_and_without_tag(self):
        assert "tag" not in repr(Token(1))
        assert "tag" in repr(Token(1, "x"))


class TestNullValue:
    def test_singleton(self):
        from repro.systolic.values import _NullValue

        assert _NullValue() is NULL_VALUE

    def test_falsy(self):
        assert not NULL_VALUE

    def test_distinct_from_empty_wire(self):
        token = Token(NULL_VALUE)
        assert token is not None
        assert token.value is NULL_VALUE

    def test_never_equals_integers(self):
        assert NULL_VALUE != 0
        assert NULL_VALUE != False  # noqa: E712 — deliberate comparison
