"""Recursive-descent parser: expression text → machine plan nodes.

The parser builds the same :mod:`repro.machine.plan` AST the database
machine executes, so a parsed query can run on the software engine, the
pulse-level arrays, or the full Fig 9-1 machine unchanged.

Grammar::

    expr      := NAME | func '(' args ')'
    func      := intersect | difference | union | dedup | project
               | join | divide | select
    column    := NAME | '#' INT
    condition := column OP column          (in join)
               | column OP INT             (in select)
    kwarg     := NAME '=' column           (in divide)
"""

from __future__ import annotations

from repro import obs
from repro.errors import ParseError
from repro.lang.tokens import Token, tokenize
from repro.obs import metrics
from repro.machine.plan import (
    Base,
    Dedup,
    Difference,
    Divide,
    Intersect,
    Join,
    PlanNode,
    Project,
    Select,
    Union,
)
from repro.relational.schema import ColumnRef

__all__ = ["parse"]

_FUNCTIONS = {
    "intersect", "difference", "union", "dedup", "project",
    "join", "divide", "select",
}


def parse(source: str) -> PlanNode:
    """Parse one expression into a plan."""
    metrics.inc("lang.parse.calls")
    with obs.span("lang.parse", chars=len(source)):
        parser = _Parser(tokenize(source), source)
        plan = parser.expression()
        parser.expect("EOF")
        return plan


class _Parser:
    def __init__(self, tokens: list[Token], source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._index = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._index + offset, len(self._tokens) - 1)]

    def advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "EOF":
            self._index += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} at position {token.position} in "
                f"{self._source!r}, found {token.kind}({token.text!r})"
            )
        return self.advance()

    def error(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(
            f"{message} at position {token.position} in {self._source!r} "
            f"(found {token.kind}({token.text!r}))"
        )

    # -- grammar ----------------------------------------------------------------

    def expression(self) -> PlanNode:
        token = self.expect("NAME")
        name = token.text
        if self.peek().kind != "LPAREN":
            return Base(name)
        if name not in _FUNCTIONS:
            raise ParseError(
                f"unknown function {name!r} at position {token.position}; "
                f"have {sorted(_FUNCTIONS)}"
            )
        self.expect("LPAREN")
        node = getattr(self, f"_parse_{name}")()
        self.expect("RPAREN")
        return node

    def _column(self) -> ColumnRef:
        token = self.peek()
        if token.kind == "HASH":
            self.advance()
            return int(self.expect("INT").text)
        if token.kind == "NAME":
            return self.advance().text
        raise self.error("expected a column reference (name or #index)")

    # -- per-function rules --------------------------------------------------------

    def _two_inputs(self) -> tuple[PlanNode, PlanNode]:
        left = self.expression()
        self.expect("COMMA")
        right = self.expression()
        return left, right

    def _parse_intersect(self) -> PlanNode:
        return Intersect(*self._two_inputs())

    def _parse_difference(self) -> PlanNode:
        return Difference(*self._two_inputs())

    def _parse_union(self) -> PlanNode:
        return Union(*self._two_inputs())

    def _parse_dedup(self) -> PlanNode:
        return Dedup(self.expression())

    def _parse_project(self) -> PlanNode:
        child = self.expression()
        columns: list[ColumnRef] = []
        while self.peek().kind == "COMMA":
            self.advance()
            columns.append(self._column())
        if not columns:
            raise self.error("project needs at least one column")
        return Project(child, tuple(columns))

    def _parse_join(self) -> PlanNode:
        left, right = self._two_inputs()
        on: list[tuple[ColumnRef, ColumnRef]] = []
        ops: list[str] = []
        while self.peek().kind == "COMMA":
            self.advance()
            col_a = self._column()
            op = self.expect("OP").text
            col_b = self._column()
            on.append((col_a, col_b))
            ops.append(op)
        if not on:
            raise self.error("join needs at least one 'colA OP colB' condition")
        plain = all(op == "==" for op in ops)
        return Join(left, right, on=tuple(on),
                    ops=None if plain else tuple(ops))

    def _parse_select(self) -> PlanNode:
        child = self.expression()
        self.expect("COMMA")
        column = self._column()
        op = self.expect("OP").text
        value = int(self.expect("INT").text)
        return Select(child, column=column, op=op, value=value)

    def _parse_divide(self) -> PlanNode:
        left, right = self._two_inputs()
        kwargs: dict[str, ColumnRef] = {}
        while self.peek().kind == "COMMA":
            self.advance()
            keyword = self.expect("NAME").text
            if keyword not in ("group", "value", "by"):
                raise ParseError(
                    f"divide keywords are group/value/by, got {keyword!r}"
                )
            self.expect("ASSIGN")
            kwargs[keyword] = self._column()
        return Divide(
            left, right,
            a_value=kwargs.get("value", 1),
            a_group=kwargs.get("group"),
            b_value=kwargs.get("by", 0),
        )
