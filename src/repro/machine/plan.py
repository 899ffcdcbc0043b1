"""Query plans for the integrated systolic system (§9).

A transaction is a tree (DAG, if inputs are shared) of relational
operations over named base relations.  §9's machine executes one such
plan by configuring the crossbar so each operation streams from its
input memories through the right systolic device into an output
memory; independent operations "may be run concurrently".

Device kinds (matching the device boxes of Fig 9-1):

* ``comparison`` — the intersection-array hardware, which also serves
  difference, remove-duplicates, union, and projection (§4.3, §5);
* ``join`` — the Fig 6-1 join array;
* ``division`` — the Fig 7-2 division array;
* ``cpu`` — the conventional host for selections and other odd jobs
  (the "CPU" box of Fig 9-1); selections can also ride along a
  logic-per-track disk read (§9, ref [8]).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

from repro.errors import PlanError
from repro.relational.schema import ColumnRef

__all__ = [
    "DEVICE_COMPARISON",
    "DEVICE_JOIN",
    "DEVICE_DIVISION",
    "DEVICE_CPU",
    "PlanNode",
    "Base",
    "Intersect",
    "Difference",
    "Union",
    "Dedup",
    "Project",
    "Join",
    "Divide",
    "Select",
    "walk",
]

DEVICE_COMPARISON = "comparison"
DEVICE_JOIN = "join"
DEVICE_DIVISION = "division"
DEVICE_CPU = "cpu"


class PlanNode(ABC):
    """One operation in a query plan."""

    @property
    @abstractmethod
    def children(self) -> tuple["PlanNode", ...]:
        """Input sub-plans, left to right."""

    @property
    @abstractmethod
    def device_kind(self) -> str:
        """Which device class executes this node."""

    @abstractmethod
    def describe(self) -> str:
        """Short operator label for timelines and error messages."""

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        """This node over new inputs, left to right; the node itself
        when every input is the one it already has."""
        if all(old is new for old, new in zip(self.children, children)):
            return self
        names = [
            spec.name for spec in fields(self)
            if isinstance(getattr(self, spec.name), PlanNode)
        ]
        return replace(self, **dict(zip(names, children)))

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.children)
        return f"{self.describe()}({inner})" if inner else self.describe()


@dataclass(frozen=True, repr=False)
class Base(PlanNode):
    """A named base relation, resident on disk."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise PlanError("a base relation requires a name")

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return ()

    @property
    def device_kind(self) -> str:
        return DEVICE_CPU  # loading is not an array operation

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False)
class _Binary(PlanNode):
    left: PlanNode
    right: PlanNode

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, repr=False)
class Intersect(_Binary):
    """``A ∩ B`` (§4)."""

    @property
    def device_kind(self) -> str:
        return DEVICE_COMPARISON

    def describe(self) -> str:
        return "intersect"


@dataclass(frozen=True, repr=False)
class Difference(_Binary):
    """``A − B`` (§4.3)."""

    @property
    def device_kind(self) -> str:
        return DEVICE_COMPARISON

    def describe(self) -> str:
        return "difference"


@dataclass(frozen=True, repr=False)
class Union(_Binary):
    """``A ∪ B`` (§5)."""

    @property
    def device_kind(self) -> str:
        return DEVICE_COMPARISON

    def describe(self) -> str:
        return "union"


@dataclass(frozen=True, repr=False)
class Dedup(PlanNode):
    """remove-duplicates (§5)."""

    child: PlanNode

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    @property
    def device_kind(self) -> str:
        return DEVICE_COMPARISON

    def describe(self) -> str:
        return "dedup"


@dataclass(frozen=True, repr=False)
class Project(PlanNode):
    """Projection over a column list (§5)."""

    child: PlanNode
    columns: tuple[ColumnRef, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise PlanError("a projection requires at least one column")

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    @property
    def device_kind(self) -> str:
        return DEVICE_COMPARISON

    def describe(self) -> str:
        return f"project[{','.join(map(str, self.columns))}]"


@dataclass(frozen=True, repr=False)
class Join(_Binary):
    """(θ-)join over column pairs (§6)."""

    on: tuple[tuple[ColumnRef, ColumnRef], ...] = ()
    ops: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.on:
            raise PlanError("a join requires at least one column pair")
        if self.ops is not None and len(self.ops) != len(self.on):
            raise PlanError(
                f"a join needs one operator per column pair: "
                f"{len(self.ops)} ops for {len(self.on)} pairs"
            )

    @property
    def device_kind(self) -> str:
        return DEVICE_JOIN

    def describe(self) -> str:
        ops = self.ops or ("==",) * len(self.on)
        conds = ",".join(
            f"{ca}{op}{cb}" for (ca, cb), op in zip(self.on, ops)
        )
        return f"join[{conds}]"


@dataclass(frozen=True, repr=False)
class Divide(_Binary):
    """``A ÷ B`` (§7)."""

    a_value: ColumnRef = 1
    a_group: Optional[ColumnRef] = None
    b_value: ColumnRef = 0

    @property
    def device_kind(self) -> str:
        return DEVICE_DIVISION

    def describe(self) -> str:
        return "divide"


@dataclass(frozen=True, repr=False)
class Select(PlanNode):
    """Selection σ — CPU work, or free on a logic-per-track disk read."""

    child: PlanNode
    column: ColumnRef = 0
    op: str = "=="
    value: int = 0

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    @property
    def device_kind(self) -> str:
        return DEVICE_CPU

    def describe(self) -> str:
        return f"select[{self.column}{self.op}{self.value}]"


def walk(plan: PlanNode) -> list[PlanNode]:
    """Post-order traversal (children before parents), deduplicated.

    Shared sub-plans appear once — the machine computes them once and
    reuses the stored result.
    """
    seen: dict[int, PlanNode] = {}
    order: list[PlanNode] = []

    def visit(node: PlanNode) -> None:
        if id(node) in seen:
            return
        for child in node.children:
            visit(child)
        seen[id(node)] = node
        order.append(node)

    visit(plan)
    return order
