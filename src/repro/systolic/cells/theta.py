"""The programmable join comparator of §6 (Fig 6-1, §6.3.2), in both
of §6.3.2's programmability options.

A join-array processor compares the ``a`` and ``b`` join-column values
passing through it and emits the individual ``t_ij`` to the right — no
accumulation follows (§6.2: "here we are interested in the t_ij
individually").  For joins over several columns the partial results
chain left-to-right exactly as in the comparison array (§6.3.1), so
``t_in`` is ANDed when present and treated as TRUE at the leftmost
column.

§6.3.2 generalizes the equality test to "any sort of binary comparison
(e.g. <, >, etc.)": "The particular operation to be performed might be
encoded in a few bits, and passed along with the a_ij and b_ij.  Or, it
might be preloaded into the array of processors."  :class:`ThetaCell`
is the preloaded form — a constructor argument, the simulated
equivalent of preloading.  :class:`DynamicThetaCell` is the other: an
op code travels down the array alongside relation A's join-column
elements (same staggering, same speed), and each processor performs
whatever comparison the arriving code names — "some degree of
programability ... at the expense of additional logic": the extra op
port and the operation decoder.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.relational.algebra import COMPARISON_OPS
from repro.systolic.cell import Cell, PortMap
from repro.systolic.values import Token

__all__ = ["ThetaCell", "DynamicThetaCell"]


class _JoinCell(Cell):
    """What both join comparators share: every stream but ``t`` passes
    through unchanged, and a meeting emits ``t_in AND (a op b)`` under
    the pair's ghost tag."""

    def _pass_through(self, inputs: PortMap) -> dict[str, Optional[Token]]:
        return {
            port[:-len("in")] + "out": inputs[port]
            for port in self.IN_PORTS
            if port != "t_in" and inputs.get(port) is not None
        }

    def _meet(
        self, compare: Callable, a: Token, b: Token, t: Optional[Token]
    ) -> Token:
        result = compare(a.value, b.value)
        if t is not None:
            result = bool(t.value) and result
        return Token(result, self._pair_tag(a, b, t))

    @staticmethod
    def _pair_tag(a: Token, b: Token, t: Optional[Token]) -> Optional[tuple]:
        """Derive the ``("t", i, j)`` tag from the meeting elements."""
        if t is not None and t.tag is not None:
            return t.tag
        a_tag = a.tag
        b_tag = b.tag
        if (
            isinstance(a_tag, tuple) and len(a_tag) == 3 and a_tag[0] == "a"
            and isinstance(b_tag, tuple) and len(b_tag) == 3 and b_tag[0] == "b"
        ):
            return ("t", a_tag[1], b_tag[1])
        return None


class ThetaCell(_JoinCell):
    """One processor of the join array, preloaded with a comparison op."""

    IN_PORTS = ("a_in", "b_in", "t_in")
    OUT_PORTS = ("a_out", "b_out", "t_out")

    def __init__(self, name: str, op: str = "==") -> None:
        super().__init__(name)
        compare = COMPARISON_OPS.get(op)
        if compare is None:
            raise SimulationError(
                f"cell {name!r}: unknown comparison operator {op!r}; "
                f"have {sorted(COMPARISON_OPS)}"
            )
        self.op = op
        self._compare = compare

    def step(self, inputs: PortMap) -> dict[str, Optional[Token]]:
        a = inputs.get("a_in")
        b = inputs.get("b_in")
        t = inputs.get("t_in")
        outputs = self._pass_through(inputs)
        if a is not None and b is not None:
            outputs["t_out"] = self._meet(self._compare, a, b, t)
        elif t is not None:
            raise self.protocol_error(
                "a partial join result arrived without an element pair — "
                "the join-column schedule is mis-staggered"
            )
        return outputs


class DynamicThetaCell(_JoinCell):
    """A join comparator whose operation arrives with the data."""

    IN_PORTS = ("a_in", "b_in", "t_in", "op_in")
    OUT_PORTS = ("a_out", "b_out", "t_out", "op_out")

    def step(self, inputs: PortMap) -> dict[str, Optional[Token]]:
        a = inputs.get("a_in")
        b = inputs.get("b_in")
        t = inputs.get("t_in")
        op = inputs.get("op_in")
        outputs = self._pass_through(inputs)
        if (a is None) != (op is None):
            raise self.protocol_error(
                "the op code must travel with relation A's element — "
                "one arrived without the other"
            )
        if a is not None and b is not None:
            compare = COMPARISON_OPS.get(op.value)
            if compare is None:
                raise self.protocol_error(
                    f"unknown op code {op.value!r} arrived on op_in"
                )
            outputs["t_out"] = self._meet(compare, a, b, t)
        elif t is not None:
            raise self.protocol_error(
                "a partial join result arrived without an element pair"
            )
        return outputs
