"""The docs drift check CI runs must pass on this checkout."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_check_docs_passes_on_the_checkout():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_docs.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py"
    )
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    return check_docs


def test_machine_api_rule_flags_removed_members_and_keywords(tmp_path):
    check_docs = _load_check_docs()
    doc = tmp_path / "API.md"
    doc.write_text(
        "| `DeviceRoster.pick` / `PhysicalPlan.ops` / `EnginePool.gate` "
        "| attribute, dataclass field, set in `__init__` |\n"
        "| `SystolicDatabaseMachine(disk=MachineDisk(logic_per_track=True),"
        " backend=None)` | nested constructors |\n"
        "| `Relation.tuples` / `RelationStore(root=None)` "
        "| not repro.machine's |\n"
        "| `EnginePool(roster_fairness=True)` / `DeviceRoster.assignments` "
        "| both removed |\n"
    )
    assert check_docs.check_api(docs=[doc]) == [
        "API.md: documents `EnginePool(roster_fairness=)`, which "
        "repro.machine.EnginePool does not accept",
        "API.md: documents `DeviceRoster.assignments`, which "
        "repro.machine.DeviceRoster does not have",
    ]


def test_api_rule_reads_method_call_keywords(tmp_path):
    """``.compile(plans, …, use_cache=True)`` is how API.md spelled an
    option that no ``compile`` accepted any more."""
    check_docs = _load_check_docs()
    doc = tmp_path / "API.md"
    doc.write_text(
        "| `.compile(plans, arrivals=None, pipeline=True)` "
        "| a table row under its class |\n"
        "| `EnginePool.session(tenant, shards=2, parallel=True)` "
        "/ `obs.span(name, rows=3)` / `np.unique(x, return_index=True)` "
        "| named owner · open-ended · nobody's |\n"
    )
    assert check_docs.check_api(docs=[doc]) == []
    doc.write_text(
        "| `.compile(plans, pipeline=True, use_cache=True)` | removed |\n"
        "| `EnginePool.session(tenant, partitioner=None)` | removed |\n"
    )
    assert check_docs.check_api(docs=[doc]) == [
        "API.md: documents `.compile(use_cache=)`, which no class of "
        "repro.machine / repro.obs accepts",
        "API.md: documents `EnginePool.session(partitioner=)`, which "
        "repro.machine.EnginePool does not accept",
    ]


def test_env_var_rule_flags_a_variable_nothing_reads(tmp_path):
    check_docs = _load_check_docs()
    doc = tmp_path / "PERF.md"
    doc.write_text(
        "Set `REPRO_BACKEND=lattice`, or the kill-switch "
        "`REPRO_MACHINE_PARALLEL=0`.\n"
    )
    assert check_docs.check_env_vars(docs=[doc]) == [
        "PERF.md: documents environment variable REPRO_MACHINE_PARALLEL, "
        "which nothing under src/ reads",
    ]


def test_api_rule_covers_the_obs_classes(tmp_path):
    check_docs = _load_check_docs()
    doc = tmp_path / "OBSERVABILITY.md"
    doc.write_text(
        "`Tracer.span` opens a span, `Span.structure()` projects it, "
        "`NullTracer.span` is the off switch; `obs.detached` is prose.\n"
    )
    assert check_docs.check_api(docs=[doc]) == []
    doc.write_text(
        "Graft it with `Tracer.detached` / `Tracer.adopt`; "
        "`Span.structure()` stays.\n"
    )
    assert check_docs.check_api(docs=[doc]) == [
        "OBSERVABILITY.md: documents `Tracer.detached`, which "
        "repro.obs.Tracer does not have",
        "OBSERVABILITY.md: documents `Tracer.adopt`, which "
        "repro.obs.Tracer does not have",
    ]


_SPAN_TABLE = (
    "| span | recorded by | attributes |\n"
    "|---|---|---|\n"
    "| `cli.<stage>` | the CLI | — |\n"
    "| `planner.assign` / `planner.fuse` | the planner's phases | — |\n"
    "{extra}"
    "\n"
    "| metric | kind | meaning |\n"
    "|---|---|---|\n"
    "| `engine.runs` | counter | not a span |\n"
)


def test_span_catalog_rule_holds_docs_and_source_to_each_other(tmp_path):
    check_docs = _load_check_docs()
    source = tmp_path / "src" / "pkg"
    source.mkdir(parents=True)
    (source / "work.py").write_text(
        '"""Docstring example: ``with obs.span("ghost.example"): ...``"""\n'
        "def run(obs, tracer, name):\n"
        '    with obs.span(f"cli.{name}"):\n'
        "        with obs.span(\n"
        '            "planner.assign", plans=1,\n'
        "        ):\n"
        '            with tracer.span("planner.fuse"):\n'
        "                return obs.span(name)\n"
    )
    doc = tmp_path / "OBSERVABILITY.md"
    doc.write_text(_SPAN_TABLE.format(extra=""))
    assert check_docs.check_span_catalog(doc=doc, root=tmp_path / "src") == []

    (source / "more.py").write_text(
        'def run(obs):\n    return obs.span("machine.op", op="x")\n'
    )
    doc.write_text(_SPAN_TABLE.format(
        extra="| `machine.replay` | the replay phase | — |\n"
    ))
    assert check_docs.check_span_catalog(doc=doc, root=tmp_path / "src") == [
        "OBSERVABILITY.md: span 'machine.op' is opened under src/ but "
        "missing from the span catalog",
        "OBSERVABILITY.md: span 'machine.replay' is in the span catalog "
        "but nothing under src/ opens it",
    ]


def test_one_stored_form_rule_flags_object_arrays_and_tuple_walks(tmp_path):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("relational", "systolic/engine", "arrays", "perf"):
        (package / directory).mkdir(parents=True)
    (package / "relational" / "relation.py").write_text(
        "def members(self):\n    return frozenset(self.tuples)\n"
    )
    (package / "systolic" / "engine" / "materialize.py").write_text(
        "def feed(relation):\n    return list(relation.tuples)\n"
    )
    (package / "perf" / "cost.py").write_text(
        '"""``relation.tuples`` in prose is not a read."""\n'
        "def check(self, plan):\n"
        "    return self.tuples < 0 or plan.a_tuples is None\n"
    )
    assert check_docs.check_one_stored_form(root=package) == []

    (package / "arrays" / "division.py").write_text(
        "import numpy as np\n"
        "def operands(a, rows):\n"
        "    pairs = [row[:2] for row in a.tuples]\n"
        "    wide = np.asarray(rows, dtype=object)\n"
        "    return pairs, wide, wide.dtype == object\n"
    )
    assert check_docs.check_one_stored_form(root=package) == [
        "arrays/division.py:4: an object-dtype array — a relation's "
        "elements are int64, there is no second representation",
        "arrays/division.py:5: an object-dtype array — a relation's "
        "elements are int64, there is no second representation",
        "arrays/division.py:3: reads `.tuples` — outside the reference "
        "algebra and the cell-network kit, work on `.array` columns",
    ]


def test_proof_producer_rule_is_an_allow_list(tmp_path):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("relational", "shard", "serve", "machine"):
        (package / directory).mkdir(parents=True)
    (package / "relational" / "relation.py").write_text(
        "class DistinctRows:\n    pass\n"
    )
    (package / "shard" / "executor.py").write_text(
        "from repro.relational.relation import DistinctRows\n"
        "def merge(rows):\n    return DistinctRows(rows)\n"
    )
    (package / "machine" / "disk.py").write_text(
        '"""A stored read arrives as ``DistinctRows``: prose, not a use."""\n'
    )
    assert check_docs.check_proof_producers(root=package) == []

    (package / "serve" / "protocol.py").write_text(
        "from repro.relational.relation import DistinctRows\n"
        "def relation_from_wire(schema, rows):\n"
        "    return Relation(schema, DistinctRows(rows))\n"
    )
    (package / "__main__.py").write_text(
        "from repro.relational import relation\n"
        "def load(rows):\n    return relation.DistinctRows(rows)\n"
    )
    problems = check_docs.check_proof_producers(root=package)
    assert [problem.split(" names ")[0] for problem in problems] == [
        "__main__.py:3:", "serve/protocol.py:1:", "serve/protocol.py:3:",
    ]
    assert all("verifying `Relation(...)`" in problem for problem in problems)


def test_operator_facts_rule_allows_only_the_shape_rules(tmp_path):
    check_docs = _load_check_docs()
    package = tmp_path / "repro"
    for directory in ("lang", "machine", "shard"):
        (package / directory).mkdir(parents=True)
    (package / "lang" / "optimize.py").write_text(
        "def rule(node):\n"
        "    return isinstance(node, (Intersect, Union))\n"
    )
    (package / "machine" / "physical.py").write_text(
        '"""``isinstance(node, Join)`` in prose is not a branch."""\n'
        "def load(node):\n"
        "    return isinstance(node, Base) or node.device_kind == 'cpu'\n"
    )
    assert check_docs.check_operator_facts(root=package) == []

    (package / "machine" / "device.py").write_text(
        "from repro.machine import plan\n"
        "def dispatch(node):\n"
        "    if isinstance(node, plan.Join):\n"
        "        return 1\n"
        "    return isinstance(node.child, (Base, Select, Dedup))\n"
    )
    problems = check_docs.check_operator_facts(root=package)
    assert [problem.split(" — ")[0] for problem in problems] == [
        "machine/device.py:3: branches on Join",
        "machine/device.py:5: branches on Dedup, Select",
    ]
