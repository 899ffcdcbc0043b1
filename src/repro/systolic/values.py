"""Values travelling on systolic wires.

A wire either carries nothing on a given pulse (``None``) or a
:class:`Token`.  A token wraps the payload *value* — an integer element,
a boolean partial result, or :data:`NULL_VALUE` for the division array's
explicit "null value" output (§7) — plus an optional *ghost tag*.

Ghost tags do not exist in the hardware: they are verification-only
metadata (e.g. ``("a", i, k)`` = element ``k`` of tuple ``a_i``) that
cells propagate and cross-check so the test suite can prove the feeding
schedules put every datum in the right cell at the right pulse.
Production use runs untagged; tags are opt-in per feeder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["Token", "NULL_VALUE"]


class _NullValue:
    """The explicit null the division array emits for non-matching rows.

    Distinct from an empty wire (``None``): a :data:`NULL_VALUE` token
    occupies a pulse slot but carries no element, mirroring §7's "some
    null value is output".
    """

    _instance: "Optional[_NullValue]" = None

    def __new__(cls) -> "_NullValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL_VALUE"

    def __bool__(self) -> bool:
        return False


#: Singleton explicit-null payload.
NULL_VALUE = _NullValue()


@dataclass(frozen=True)
class Token:
    """A datum on a wire during one pulse."""

    value: Any
    tag: Any = None

    def __repr__(self) -> str:
        if self.tag is None:
            return f"Token({self.value!r})"
        return f"Token({self.value!r}, tag={self.tag!r})"

