"""Tokens, the explicit null, and ghost tags."""

from repro.systolic.values import (
    FALSE,
    NULL_VALUE,
    TRUE,
    Token,
    tag_of,
    tok,
    value_of,
)


class TestToken:
    def test_tok_shorthand(self):
        token = tok(5, ("a", 0, 1))
        assert token.value == 5
        assert token.tag == ("a", 0, 1)

    def test_frozen_and_hashable(self):
        assert tok(1, "a") == tok(1, "a")
        assert len({tok(1), tok(1), tok(2)}) == 2

    def test_boolean_constants(self):
        assert TRUE.value is True
        assert FALSE.value is False

    def test_repr_with_and_without_tag(self):
        assert "tag" not in repr(tok(1))
        assert "tag" in repr(tok(1, "x"))


class TestNullValue:
    def test_singleton(self):
        from repro.systolic.values import _NullValue

        assert _NullValue() is NULL_VALUE

    def test_falsy(self):
        assert not NULL_VALUE

    def test_distinct_from_empty_wire(self):
        token = tok(NULL_VALUE)
        assert token is not None
        assert value_of(token) is NULL_VALUE

    def test_never_equals_integers(self):
        assert NULL_VALUE != 0
        assert NULL_VALUE != False  # noqa: E712 — deliberate comparison


class TestAccessors:
    def test_value_of_none(self):
        assert value_of(None) is None

    def test_tag_of_none(self):
        assert tag_of(None) is None

    def test_accessors_on_token(self):
        token = tok(9, "g")
        assert value_of(token) == 9
        assert tag_of(token) == "g"
