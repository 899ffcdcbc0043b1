"""The integrated systolic database machine of §9 (Fig 9-1).

Disk, memory modules, crossbar switch, fixed-size systolic devices, a
host CPU, a plan language, and a scheduler that runs multi-operation
transactions with inter-operation concurrency — plus Song's tree
machine as the §9 comparison architecture.
"""

from repro.machine.catalog import Catalog
from repro.machine.crossbar import CrossbarSwitch, Link
from repro.machine.device import CpuDevice, DeviceRun, SystolicDevice
from repro.machine.disk import MachineDisk
from repro.machine.execution import MachineState, PlanExecutor
from repro.machine.memory import MemoryModule, relation_bytes
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
    walk,
)
from repro.machine.operators import (
    Operator,
    estimate_rows,
    infer_schema,
    operator_of,
)
from repro.machine.physical import (
    PhysicalOp,
    PhysicalPlan,
    PhysicalPlanner,
    PipelinedChain,
    PlanningContext,
)
from repro.machine.pipelining import ChainTiming, StageCost, analyze_chain
from repro.machine.report_export import (
    report_to_csv,
    report_to_dict,
    report_to_json,
)
from repro.machine.pool import AdmissionGate, EnginePool, PlanCache
from repro.machine.scheduler import (
    DeviceRoster,
    ExecutionReport,
    ScheduledStep,
    gantt,
)
from repro.machine.session import Session
from repro.machine.system import SystolicDatabaseMachine
from repro.machine.tree_machine import TreeMachine, TreeRun

__all__ = [
    "AdmissionGate",
    "Base",
    "Catalog",
    "ChainTiming",
    "CpuDevice",
    "CrossbarSwitch",
    "Dedup",
    "DeviceRoster",
    "DeviceRun",
    "Difference",
    "Divide",
    "EnginePool",
    "ExecutionReport",
    "Intersect",
    "Join",
    "Link",
    "MachineDisk",
    "MachineState",
    "MemoryModule",
    "Operator",
    "PhysicalOp",
    "PhysicalPlan",
    "PhysicalPlanner",
    "PipelinedChain",
    "PlanCache",
    "PlanExecutor",
    "PlanNode",
    "PlanningContext",
    "Project",
    "ScheduledStep",
    "Select",
    "Session",
    "SystolicDatabaseMachine",
    "StageCost",
    "SystolicDevice",
    "TreeMachine",
    "TreeRun",
    "Union",
    "analyze_chain",
    "estimate_rows",
    "gantt",
    "infer_schema",
    "operator_of",
    "relation_bytes",
    "report_to_csv",
    "report_to_dict",
    "report_to_json",
    "walk",
]
