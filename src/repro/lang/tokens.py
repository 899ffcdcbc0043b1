"""Tokenizer for the relational-algebra expression language.

The language is a small functional notation over named relations::

    intersect(A, B)
    project(join(EMP, DEPT, dept == id), name, budget)
    select(EMP, salary >= 50000)
    divide(TAKES, COURSES, group = student, value = course, by = course)

Tokens: names, integers, ``#`` (positional column refs), parentheses,
commas, ``=`` (keyword arguments), and the six comparison operators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParseError

__all__ = ["Token", "tokenize", "COMPARISON_TOKENS"]

#: Comparison operators, longest first so '<=' wins over '<'.
COMPARISON_TOKENS = ("==", "!=", "<=", ">=", "<", ">")

_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", "#": "HASH", "=": "ASSIGN"}


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    kind: str
    text: str
    position: int

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r}@{self.position})"


def tokenize(source: str) -> list[Token]:
    """Lex an expression into tokens, ending with an EOF marker."""
    tokens: list[Token] = []
    index = 0
    length = len(source)
    while index < length:
        char = source[index]
        if char.isspace():
            index += 1
            continue
        matched = _match_operator(source, index)
        if matched is not None:
            tokens.append(Token("OP", matched, index))
            index += len(matched)
            continue
        if char in _PUNCT:
            tokens.append(Token(_PUNCT[char], char, index))
            index += 1
            continue
        if char.isdigit():
            start = index
            while index < length and source[index].isdigit():
                index += 1
            tokens.append(Token("INT", source[start:index], start))
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            tokens.append(Token("NAME", source[start:index], start))
            continue
        raise ParseError(
            f"unexpected character {char!r} at position {index} in {source!r}"
        )
    tokens.append(Token("EOF", "", length))
    return tokens


def _match_operator(source: str, index: int) -> str | None:
    for op in COMPARISON_TOKENS:
        if source.startswith(op, index):
            return op
    return None
